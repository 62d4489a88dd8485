"""Preservation on two elements, where tables and relation tuples are
bitmasks, against direct scans written here.

The oracles read tables and tuple sets as plain Python values and walk
matrices with itertools.product. They share no code with finite_core's
preservation scan or with clone_engine.inv.
"""

import itertools
import random

from clonelab.clone_engine import generate, inv
from clonelab.finite_core import (
    Operation,
    Relation,
    all_operations,
    graph,
    neq,
    operation_from_callable,
    pi4,
    preservation_witness,
    rho3,
)


def apply_rows(n, table, rows):
    """The row-wise image of the n rows under an n-ary two-element table."""
    return tuple(
        table[sum(v << (n - 1 - k) for k, v in enumerate(column))] for column in zip(*rows)
    )


def direct_witness(n, table, tuples):
    """(rows, image) of the first failing matrix in itertools.product
    order over the sorted tuples, or None."""
    for rows in itertools.product(sorted(tuples), repeat=n):
        image = apply_rows(n, table, rows)
        if image not in tuples:
            return rows, image
    return None


def relations(r):
    """Every r-ary relation on {0, 1}, as a frozenset, in the order of
    the bits of its number over the lexicographically ordered points."""
    points = list(itertools.product((0, 1), repeat=r))
    for bits in range(1 << len(points)):
        yield frozenset(p for i, p in enumerate(points) if bits >> i & 1)


def brute_inv(generators, max_arity):
    return [
        (r, rel)
        for r in range(1, max_arity + 1)
        for rel in relations(r)
        if all(direct_witness(g.arity, g.table, rel) is None for g in generators)
    ]


def as_pairs(relations_found):
    return [(rel.arity, rel.tuples) for rel in relations_found]


def test_inv_on_two_elements_matches_the_brute_force(u2):
    ops = list(all_operations(u2, 1)) + list(all_operations(u2, 2))
    # Each generator's invariant relations once; a set keeps those that
    # every member of it keeps.
    kept = {op: set(brute_inv([op], 3)) for op in ops}
    everything = brute_inv([], 3)
    assert len(everything) == 4 + 16 + 256
    for size in (0, 1, 2):
        for gens in itertools.combinations(ops, size):
            expected = [pair for pair in everything if all(pair in kept[g] for g in gens)]
            fragment = generate(gens, 1, universe=u2)
            assert as_pairs(inv(fragment, 3)) == expected, gens


def test_inv_with_majority_and_a_4_ary_generator_matches_the_brute_force(u2, gates):
    four = operation_from_callable(u2, 4, lambda a, b, c, d: (a & b) ^ (c | d))
    for gens in ([gates["maj"]], [four], [gates["not"], gates["maj"]]):
        fragment = generate(gens, 1, universe=u2)
        assert as_pairs(inv(fragment, 3)) == brute_inv(gens, 3), gens


def test_inv_keeps_the_relation_records_of_the_tuple_path(u2, gates):
    fragment = generate([gates["and"]], 1)
    found = inv(fragment, 2)
    assert all(isinstance(rel, Relation) and rel.universe == u2 for rel in found)
    assert Relation(u2, 2, frozenset({(0, 0), (0, 1), (1, 1)})) in found


def test_preservation_witness_on_two_elements_matches_the_direct_scan(u2):
    rng = random.Random(25)
    ops = list(all_operations(u2, 1)) + list(all_operations(u2, 2))
    ops += [Operation(u2, 3, tuple(rng.randrange(2) for _ in range(8))) for _ in range(12)]
    ops += [Operation(u2, 4, tuple(rng.randrange(2) for _ in range(16))) for _ in range(6)]
    rels = [rho3(u2), pi4(u2), neq(u2)]
    rels += [graph(op) for op in ops if op.arity <= 2]
    rels += [Relation(u2, r, frozenset()) for r in (1, 2, 3)]
    rels += [Relation(u2, r, frozenset(itertools.product((0, 1), repeat=r))) for r in (1, 2, 3)]
    failing = 0
    for op in ops:
        for rel in rels:
            expected = direct_witness(op.arity, op.table, rel.tuples)
            witness = preservation_witness(op, rel)
            assert (None if witness is None else tuple(witness)) == expected, (op, rel)
            failing += expected is not None
    # Both verdicts occur often, so witnesses and passes are each compared.
    assert 0.2 < failing / (len(ops) * len(rels)) < 0.8
