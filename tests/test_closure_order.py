"""Order contract of generate(): members come out in the order of the naive
product-and-filter closure.

The oracle below is that loop written out on bare tables. Each round it
walks every tuple of current members in itertools.product order, keeps the
tuples that pick one of the previous round's new tables, and composes them
point by point through a map from argument tuples to values. It shares no
code with clone_engine. Its only shortcut is to stop a layer once it holds
every table of that arity, after which no round could add anything.
"""

import itertools
import random

import pytest

from clonelab.clone_engine import generate
from clonelab.finite_core import (
    Operation,
    ResourceCapExceeded,
    Universe,
    all_operations,
    commutes,
    operation_from_callable,
)


class OracleCap(Exception):
    pass


def naive_layer(m, gens, j, cap=None):
    """The arity-j member tables of the clone generated by gens, a list of
    (arity, table) pairs, in insertion order."""
    points = list(itertools.product(range(m), repeat=j))
    # The distinct projection tables, first occurrence first: on one
    # element all j projections share a table.
    tables = list(dict.fromkeys(tuple(p[i] for p in points) for i in range(j)))
    seen = set(tables)
    if cap is not None and len(seen) > cap:
        raise OracleCap(f"arity-{j} fragment exceeded member cap {cap}")
    full = m ** len(points)
    frontier = set(range(len(tables)))
    while frontier and len(seen) < full:
        new = []
        for arity, gt in gens:
            value_at = dict(zip(itertools.product(range(m), repeat=arity), gt))
            for picks in itertools.product(range(len(tables)), repeat=arity):
                if frontier.isdisjoint(picks):
                    continue
                # Column x of the picked tables is the generator's argument at x.
                columns = zip(*[tables[i] for i in picks])
                composed = tuple(map(value_at.__getitem__, columns))
                if composed not in seen:
                    seen.add(composed)
                    new.append(composed)
                    if cap is not None and len(seen) > cap:
                        raise OracleCap(f"arity-{j} fragment exceeded member cap {cap}")
                    if len(seen) == full:
                        return tables + new
        frontier = set(range(len(tables), len(tables) + len(new)))
        tables.extend(new)
    return tables


def assert_same_order(universe, gens, bound, cap=None):
    pairs = [(g.arity, g.table) for g in gens]
    kwargs = {} if cap is None else {"member_cap": cap}
    try:
        expected = [naive_layer(universe.size, pairs, j, cap) for j in range(1, bound + 1)]
    except OracleCap as exc:
        with pytest.raises(ResourceCapExceeded) as info:
            generate(gens, bound, universe=universe, **kwargs)
        assert str(info.value) == str(exc)
        return
    fragment = generate(gens, bound, universe=universe, **kwargs)
    for j, tables in enumerate(expected, start=1):
        assert [op.table for op in fragment.members[j]] == tables, (gens, j)


def test_every_small_u2_set_matches_naive_order(u2):
    ops = list(all_operations(u2, 1)) + list(all_operations(u2, 2))
    for r in (0, 1, 2):
        for gens in itertools.combinations(ops, r):
            assert_same_order(u2, list(gens), 3)


def test_ternary_generators_match_naive_order(u2, u3):
    rng = random.Random(7)
    for universe in (u2, u3):
        m = universe.size
        for _ in range(4):
            g = Operation(universe, 3, tuple(rng.randrange(m) for _ in range(m ** 3)))
            h = Operation(universe, 1, tuple(rng.randrange(m) for _ in range(m)))
            assert_same_order(universe, [g], 2, cap=400)
            assert_same_order(universe, [h, g], 2, cap=400)


def test_four_ary_u2_generators_match_naive_order(u2):
    # Fold depth 3: the mask fold halves 16 masks three times per prefix.
    rng = random.Random(11)
    gens = [
        operation_from_callable(u2, 4, lambda a, b, c, d: (a & b) | (c & d)),
        operation_from_callable(u2, 4, lambda a, b, c, d: a ^ (b & c & d)),
    ] + [Operation(u2, 4, tuple(rng.randrange(2) for _ in range(16))) for _ in range(3)]
    for g in gens:
        assert_same_order(u2, [g], 2)


def test_ternary_u2_generators_at_bound_3_match_naive_order(u2, gates):
    # 8-point tables: masks of one byte.
    for fn in (
        lambda a, b, c: a ^ b ^ c,
        lambda a, b, c: a ^ b ^ c ^ 1,
        lambda a, b, c: a & b & c,
        lambda a, b, c: a & (b | c),
        lambda a, b, c: a | (b & c),
        lambda a, b, c: (a & b) | ((1 - a) & c),
    ):
        assert_same_order(u2, [operation_from_callable(u2, 3, fn)], 3)
    assert_same_order(u2, [gates["maj"]], 3)
    assert_same_order(u2, [gates["not"], gates["maj"]], 3)


def test_unary_only_u2_sets_match_naive_order(u2):
    # A unary generator has no prefix to fold.
    unary = list(all_operations(u2, 1))
    for r in (1, 2, 3):
        for gens in itertools.combinations(unary, r):
            assert_same_order(u2, list(gens), 4)


def test_capped_u2_run_matches_naive_message(u2, gates):
    gens = [gates["and"], gates["xor"]]
    with pytest.raises(OracleCap, match="^arity-4 fragment exceeded member cap 300$"):
        naive_layer(2, [(g.arity, g.table) for g in gens], 4, 300)
    assert_same_order(u2, gens, 4, cap=300)


def test_seeded_u3_binary_sets_match_naive_order_under_cap(u3):
    rng = random.Random(2024)
    capped = 0
    for _ in range(40):
        gens = [
            Operation(u3, 2, tuple(rng.randrange(3) for _ in range(9)))
            for _ in range(rng.choice((1, 2)))
        ]
        try:
            naive_layer(3, [(2, g.table) for g in gens], 2, 150)
        except OracleCap:
            capped += 1
        assert_same_order(u3, gens, 2, cap=150)
    # Both outcomes occur, so the cap message and the member order are
    # each compared.
    assert 0 < capped < 40


def seeded_commutative_u3_table(rng):
    """A random binary table on U3 with t(a, b) = t(b, a)."""
    upper = {(a, b): rng.randrange(3) for a in range(3) for b in range(a, 3)}
    return tuple(upper[min(a, b), max(a, b)] for a in range(3) for b in range(3))


def test_commutative_u3_generators_match_naive_order(u3):
    # The tuple path composes each unordered pair of a commutative binary
    # generator once; each set runs alone and beside a generator that
    # does not commute.
    rng = random.Random(25)
    commutative = [
        operation_from_callable(u3, 2, max),
        operation_from_callable(u3, 2, min),
        operation_from_callable(u3, 2, lambda x, y: (x + y) % 3),
        Operation(u3, 2, seeded_commutative_u3_table(rng)),
    ]
    other = operation_from_callable(u3, 2, lambda x, y: (2 * x + y) % 3)
    assert all(map(commutes, commutative)) and not commutes(other)
    for g in commutative:
        assert_same_order(u3, [g], 2, cap=150)
        assert_same_order(u3, [g, other], 2, cap=150)
        assert_same_order(u3, [other, g], 2, cap=150)


def test_capped_commutative_u3_run_matches_naive_message(u3):
    gens = [operation_from_callable(u3, 2, lambda x, y: (x * y + x + y) % 3),
            operation_from_callable(u3, 1, lambda x: (x + 1) % 3)]
    assert commutes(gens[0])
    with pytest.raises(OracleCap, match="^arity-2 fragment exceeded member cap 40$"):
        naive_layer(3, [(g.arity, g.table) for g in gens], 2, 40)
    assert_same_order(u3, gens, 2, cap=40)


def test_commutative_u2_sets_with_a_unary_generator_match_naive_order(u2, gates):
    for binary in ("and", "or", "xor", "nand"):
        for unary in ("not", "const0", "const1"):
            gens = [gates[unary], gates[binary]]
            assert_same_order(u2, gens, 4, cap=300)
            assert_same_order(u2, gens[::-1], 4, cap=300)


def test_one_element_universe_matches_naive_order():
    u1 = Universe(1)
    assert_same_order(u1, [], 3)
    assert_same_order(u1, [Operation(u1, 2, (0,))], 3)
    # Operations are canonical by their tables, and every arity has one.
    for gens in ([], [Operation(u1, 2, (0,))]):
        fragment = generate(gens, 3, universe=u1)
        assert [len(fragment.members[j]) for j in (1, 2, 3)] == [1, 1, 1]


def test_full_layers(u2, gates):
    fragment = generate([gates["nand"]], 3)
    assert [len(fragment.members[j]) for j in (1, 2, 3)] == [4, 16, 256]
    # A cap equal to the full layer size is never exceeded.
    generate([gates["nand"]], 3, member_cap=256)
    with pytest.raises(ResourceCapExceeded, match="arity-3 fragment exceeded member cap 255"):
        generate([gates["nand"]], 3, member_cap=255)


def test_nand_at_bound_4_stops_at_its_cap(gates):
    with pytest.raises(
        ResourceCapExceeded, match="^arity-4 fragment exceeded member cap 24000$"
    ):
        generate([gates["nand"]], 4, member_cap=24000)
