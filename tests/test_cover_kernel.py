"""Differential tests of the cover search against a from-scratch oracle.

The oracle restates the search in the plainest terms: partitions are
lists of point sets built in restricted-growth-string order, each
partition's subfamilies of at most lam blocks are all checked, by size
and then lexicographically, and each subfamily takes the first member, in
fragment order, that agrees with the target on its union. `search_dagger`
must return exactly the oracle's outcome (cover block order, every
interpolant, the disproof flag and the strategy). The scan that
`check_dagger` and the search share reads only the subfamilies of exactly
min(lam, #blocks) blocks: it must pass exactly the covers the oracle
passes, and `check_dagger` must report the least failing subfamily of
that size, found by brute force.
"""

import itertools
import random

import pytest

from clonelab.clone_engine import generate
from clonelab.finite_core import Operation, Universe, all_operations, operation_from_callable
from clonelab.interpolation import agreement_mask, first_failing_subfamily
from clonelab.ultralocal import (
    DaggerCertificate,
    DaggerFailure,
    _partitions,
    check_dagger,
    search_dagger,
)
from point_covers import point_cover

U2 = Universe(2)
U3 = Universe(3)
STRATEGIES = ("singletons", "equalizer_atoms", "exhaustive_partitions")
MAX_BLOCKS = (1, 2, 3, None)


def oracle_partitions(points, max_blocks):
    """Every partition of the list points into at most max_blocks blocks,
    as lists of sets, in restricted-growth-string order: point k goes to
    an existing block (in order of creation) before it opens a new one."""
    def extend(k, blocks):
        if k == len(points):
            yield [set(b) for b in blocks]
            return
        for block in blocks:
            block.add(points[k])
            yield from extend(k + 1, blocks)
            block.remove(points[k])
        if len(blocks) < max_blocks:
            blocks.append({points[k]})
            yield from extend(k + 1, blocks)
            blocks.pop()

    yield from extend(1, [{points[0]}])


def agreement_sets(f, members):
    """Each member with the set of points where it agrees with f."""
    points = list(f.universe.tuples(f.arity))
    return [(t, {p for p in points if t(*p) == f(*p)}) for t in members]


def oracle_check(agreement, lam, blocks):
    """(interpolants, None) when every subfamily of at most lam blocks has
    an agreeing member, else (None, the first failing subfamily)."""
    interpolants = {}
    for size in range(min(lam, len(blocks)) + 1):
        for combo in itertools.combinations(range(len(blocks)), size):
            union = set().union(*(blocks[b] for b in combo))
            agreeing = [t for t, points in agreement if union <= points]
            if not agreeing:
                return None, frozenset(combo)
            interpolants[frozenset(combo)] = agreeing[0]
    return interpolants, None


def oracle_search(f, fragment, lam, strategy, max_blocks):
    """(cover blocks, interpolants) of the first passing candidate, or
    None, and the disproof flag."""
    members = fragment.members[f.arity]
    agreement = agreement_sets(f, members)
    points = list(f.universe.tuples(f.arity))
    if strategy == "singletons":
        candidates = [[{p} for p in points]]
    elif strategy == "equalizer_atoms":
        atoms = {}
        for p in points:
            signature = tuple(t(*p) == f(*p) for t in members)
            atoms.setdefault(signature, set()).add(p)
        candidates = [list(atoms.values())]
    else:
        candidates = oracle_partitions(points, max_blocks or len(points))
    for blocks in candidates:
        interpolants, _ = oracle_check(agreement, lam, blocks)
        if interpolants is not None:
            return (blocks, interpolants), False
    complete = strategy == "exhaustive_partitions" and (max_blocks or len(points)) >= len(points)
    return None, complete


def assert_matches_oracle(f, fragment, lam, strategy, max_blocks):
    outcome = search_dagger(f, fragment, lam, strategy, max_blocks)
    expected, disproof = oracle_search(f, fragment, lam, strategy, max_blocks)
    case = (f.table, lam, strategy, max_blocks)
    assert outcome.strategy == strategy, case
    assert outcome.disproof == disproof, case
    if expected is None:
        assert outcome.certificate is None, case
        return
    blocks, interpolants = expected
    cert = outcome.certificate
    assert cert is not None, case
    assert cert.lam == lam and cert.cover == point_cover(f.universe, f.arity, blocks), case
    assert cert.interpolants == interpolants, case


def _strategy_grid():
    for strategy in STRATEGIES:
        if strategy == "exhaustive_partitions":
            for max_blocks in MAX_BLOCKS:
                yield strategy, max_blocks
        else:
            yield strategy, None


def u2_fragments(gates):
    return [
        generate([], 2, universe=U2),
        generate([gates["and"]], 2),
        generate([gates["xor"]], 2),
        generate([gates["and"], gates["or"]], 2),
    ]


def test_search_matches_oracle_on_unary_and_binary_u2_targets(gates):
    targets = list(all_operations(U2, 1)) + list(all_operations(U2, 2))
    for fragment in u2_fragments(gates):
        for f in targets:
            for lam in range(4):
                for strategy, max_blocks in _strategy_grid():
                    assert_matches_oracle(f, fragment, lam, strategy, max_blocks)


def test_search_matches_oracle_on_ternary_u2_targets(gates):
    fragment = generate([gates["maj"]], 3)
    rng = random.Random(7)
    members = fragment.members[3]
    targets = [gates["maj"]]
    for _ in range(5):
        table = list(rng.choice(members).table)
        table[rng.randrange(8)] ^= 1
        targets.append(Operation(U2, 3, tuple(table)))
    targets.append(Operation(U2, 3, tuple(rng.randrange(2) for _ in range(8))))
    for f in targets:
        for lam in range(4):
            for strategy, max_blocks in _strategy_grid():
                assert_matches_oracle(f, fragment, lam, strategy, max_blocks)


def u3_fragments():
    """The lattice operations (4 binary members) and one binary operation
    whose fragment has 24 binary members."""
    lattice = [operation_from_callable(U3, 2, min), operation_from_callable(U3, 2, max)]
    return [generate(lattice, 2), generate([Operation(U3, 2, (0, 1, 0, 0, 1, 2, 2, 1, 0))], 2)]


def test_search_matches_oracle_on_seeded_u3_binary_targets():
    rng = random.Random(11)
    for fragment in u3_fragments():
        members = fragment.members[2]
        for _ in range(2):
            table = list(rng.choice(members).table)
            table[rng.randrange(9)] = rng.randrange(3)
            f = Operation(U3, 2, tuple(table))
            for lam in range(4):
                for strategy, max_blocks in _strategy_grid():
                    if max_blocks is None and lam > 1:
                        continue  # a full walk of 21,147 partitions per case
                    assert_matches_oracle(f, fragment, lam, strategy, max_blocks)
        f = Operation(U3, 2, tuple(rng.randrange(3) for _ in range(9)))
        assert_matches_oracle(f, fragment, 2, "exhaustive_partitions", None)


def random_cover(universe, arity, rng):
    """Up to four blocks, overlapping or not, that cover the domain."""
    points = list(universe.tuples(arity))
    nblocks = rng.randrange(1, 5)
    blocks = [set() for _ in range(nblocks)]
    for p in points:
        for b in rng.sample(range(nblocks), rng.randrange(1, nblocks + 1)):
            blocks[b].add(p)
    return [b for b in blocks if b]


def least_top_size_failure(agreement, lam, blocks):
    """The lexicographically least set of exactly min(lam, #blocks) block
    indices whose union no member agrees on, or None."""
    failing = [
        combo for combo in itertools.combinations(range(len(blocks)), min(lam, len(blocks)))
        if not any(set().union(*(blocks[b] for b in combo)) <= points for _, points in agreement)
    ]
    return frozenset(min(failing)) if failing else None


def random_cover_cases(gates):
    """(fragment, target, cover blocks) over U2 and U3, 40 per fragment."""
    rng = random.Random(3)
    cases = [(fragment, U2, 2) for fragment in u2_fragments(gates)]
    cases += [(fragment, U3, 2) for fragment in u3_fragments()]
    for fragment, universe, arity in cases:
        for _ in range(40):
            f = Operation(universe, arity, tuple(
                rng.randrange(universe.size) for _ in range(universe.size ** arity)
            ))
            yield fragment, f, random_cover(universe, arity, rng)


def test_the_top_size_scan_passes_exactly_the_covers_the_oracle_passes(gates):
    outcomes = set()
    for fragment, f, blocks in random_cover_cases(gates):
        members = fragment.members[f.arity]
        agreement = agreement_sets(f, members)
        block_masks = point_cover(f.universe, f.arity, blocks).block_masks()
        masks = [agreement_mask(f, t) for t in members]
        for lam in range(4):
            _, failing = oracle_check(agreement, lam, blocks)
            passes = first_failing_subfamily(block_masks, masks, lam) is None
            assert passes == (failing is None), (f.table, blocks, lam)
            outcomes.add(passes)
    assert outcomes == {True, False}


def test_check_dagger_matches_oracle_on_random_covers(gates):
    failures = 0
    for fragment, f, blocks in random_cover_cases(gates):
        agreement = agreement_sets(f, fragment.members[f.arity])
        cover = point_cover(f.universe, f.arity, blocks)
        for lam in range(4):
            interpolants, failing = oracle_check(agreement, lam, blocks)
            result = check_dagger(f, fragment, lam, cover)
            if failing is None:
                assert result == DaggerCertificate(cover, lam, interpolants)
            else:
                least = least_top_size_failure(agreement, lam, blocks)
                assert result == DaggerFailure(cover, lam, least)
                failures += 1
    assert failures > 0


@pytest.mark.parametrize("max_blocks", [1, 2, 3, 4, 6, 9])
def test_the_walk_lists_each_partition_once(max_blocks):
    points = list(range(6))
    expected = [
        [sum(1 << p for p in block) for block in blocks]
        for blocks in oracle_partitions(points, max_blocks)
    ]
    # Stirling numbers of the second kind S(6, k), summed over k <= max_blocks
    count = sum((1, 31, 90, 65, 15, 1)[:max_blocks])
    assert len(expected) == len({tuple(masks) for masks in expected}) == count
    assert [list(masks) for masks in _partitions(6, max_blocks)] == expected
