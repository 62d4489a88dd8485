import itertools
import random

import pytest

from clonelab import baker_pixley
from clonelab.baker_pixley import (
    BPInstance,
    InterpolantNode,
    bp_interpolate,
    bp_tree_from_json,
    bp_tree_to_json,
    find_near_unanimity,
    nu_ultraclosure_check,
    recheck_bp_tree,
)
from clonelab.clone_engine import contains, generate, inv
from clonelab.finite_core import Operation, all_operations, preserves, superpose
from clonelab.ultralocal import Cover
from point_covers import point_cover


def random_partition_cover(universe, arity, max_blocks, rng):
    while True:
        assignment = [rng.randrange(max_blocks) for _ in range(universe.size ** arity)]
        labels = sorted(set(assignment))
        if len(labels) >= 2:
            break
    blocks = [[i for i, a in enumerate(assignment) if a == label] for label in labels]
    return Cover(universe, arity, blocks)


def synthetic_instance(universe, f, h, cover, rng):
    """Base interpolants agree with f on their blocks and are random
    elsewhere; nothing ties them to any fragment."""
    d = h.arity
    base = {}
    nblocks = len(cover.blocks)
    for size in range(min(d - 1, nblocks) + 1):
        for combo in itertools.combinations(range(nblocks), size):
            union = set()
            for i in combo:
                union |= cover.blocks[i]
            table = tuple(
                v if i in union else rng.randrange(universe.size) for i, v in enumerate(f.table)
            )
            base[frozenset(combo)] = Operation(universe, f.arity, table)
    return BPInstance(f, h, cover, base)


def test_small_cover_returns_supplied(u2, gates):
    maj = gates["maj"]
    cover = Cover(u2, 2, [range(4)])
    inst = synthetic_instance(u2, gates["and"], maj, cover, random.Random(0))
    result = bp_interpolate(inst)
    assert result.operation.table == gates["and"].table
    assert result.tree.base and result.tree.blocks == (0,)


def test_self_interpolation(u2, gates):
    maj = gates["maj"]
    cover = Cover(u2, 3, [range(3), range(3, 6), range(6, 8)])
    base = {}
    for size in range(3):
        for combo in itertools.combinations(range(3), size):
            base[frozenset(combo)] = maj
    inst = BPInstance(maj, maj, cover, base)
    assert bp_interpolate(inst).operation.table == maj.table


def test_synthetic_instances_recover_target(u2, gates):
    rng = random.Random(20)
    maj = gates["maj"]
    for _ in range(25):
        cover = random_partition_cover(u2, 3, 5, rng)
        f = Operation(u2, 3, tuple(rng.randrange(2) for _ in range(8)))
        inst = synthetic_instance(u2, f, maj, cover, rng)
        result = bp_interpolate(inst)
        assert result.operation.table == f.table


def test_tree_structure(u2, gates):
    rng = random.Random(4)
    maj = gates["maj"]
    cover = random_partition_cover(u2, 3, 5, rng)
    while len(cover.blocks) < 4:
        cover = random_partition_cover(u2, 3, 5, rng)
    f = Operation(u2, 3, tuple(rng.randrange(2) for _ in range(8)))
    inst = synthetic_instance(u2, f, maj, cover, rng)
    tree = bp_interpolate(inst).tree
    assert tree.blocks == tuple(range(len(cover.blocks)))
    assert not tree.base

    def walk(node):
        if node.base:
            assert frozenset(node.blocks) in inst.base_interpolants
            return
        ordered = sorted(node.blocks)
        assert len(node.children) == maj.arity
        for i, child in enumerate(node.children):
            assert set(child.blocks) == set(node.blocks) - {ordered[i]}
            walk(child)

    walk(tree)


def test_the_build_composes_only_the_subfamilies_the_tree_reaches(u2, gates, monkeypatch):
    # Of the 99 subfamilies of at least 3 of 7 blocks, the tree reaches 35.
    maj = gates["maj"]
    cover = Cover(u2, 3, [[0, 1], [2], [3], [4], [5], [6], [7]])
    f = Operation(u2, 3, (0, 1, 1, 0, 1, 0, 0, 1))
    inst = synthetic_instance(u2, f, maj, cover, random.Random(9))
    composed = []

    def counting(h, ops):
        composed.append(h)
        return superpose(h, ops)

    monkeypatch.setattr(baker_pixley, "superpose", counting)
    result = bp_interpolate(inst)
    assert result.operation == f
    assert len(composed) == 35


def test_bp_tree_json_round_trip_rechecks(u2, gates):
    rng = random.Random(21)
    for _ in range(10):
        cover = random_partition_cover(u2, 3, 5, rng)
        f = Operation(u2, 3, tuple(rng.randrange(2) for _ in range(8)))
        inst = synthetic_instance(u2, f, gates["maj"], cover, rng)
        result = bp_interpolate(inst)
        table, tree = bp_tree_from_json(bp_tree_to_json(result))
        assert (table, tree) == (result.operation.table, result.tree)
        assert recheck_bp_tree((table, tree), inst) is None
        # a tree whose root drops a block no longer covers the domain
        short = InterpolantNode(tree.blocks[:-1], tree.base, tree.children)
        assert recheck_bp_tree((table, short), inst) == "tree root does not cover all blocks"


def test_instance_validation(u2, gates):
    maj, and_op = gates["maj"], gates["and"]
    cover = point_cover(u2, 2, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])
    good_base = {
        frozenset(): gates["p1"],
        frozenset({0}): and_op,
        frozenset({1}): and_op,
        frozenset({0, 1}): and_op,
    }
    BPInstance(and_op, maj, cover, good_base)

    with pytest.raises(ValueError):  # not a near-unanimity operation
        BPInstance(and_op, gates["p1"], cover, good_base)
    with pytest.raises(ValueError):  # missing base interpolant
        BPInstance(and_op, maj, cover, {frozenset(): gates["p1"]})
    with pytest.raises(ValueError):  # disagreement on a block
        bad = dict(good_base)
        bad[frozenset({0})] = gates["p2"]
        BPInstance(and_op, maj, cover, bad)


def test_nu_absorption_property(u2, gates):
    # whenever at least d-1 arguments of a near-unanimity operation agree
    # with the target value, the composite returns that value
    rng = random.Random(9)
    maj = gates["maj"]
    for _ in range(200):
        votes = [rng.randrange(2) for _ in range(3)]
        target = max(set(votes), key=votes.count)
        if sum(v == target for v in votes) >= 2:
            assert maj.table[maj.index_of(tuple(votes))] == target


def test_find_near_unanimity_scans_generators(u2, gates):
    # the generator is above the fragment's arity bound but still found
    frag = generate([gates["maj"]], 2)
    found = find_near_unanimity(frag)
    assert found is not None and found.table == gates["maj"].table
    assert find_near_unanimity(generate([], 2, universe=u2)) is None


def test_nu_ultraclosure_check(u2, gates):
    report = nu_ultraclosure_check(generate([gates["maj"]], 2))
    assert report.holds and not report.extras
    # the full binary clone is closed under anything
    full = generate([gates["nand"], gates["maj"]], 2)
    assert nu_ultraclosure_check(full).holds
    with pytest.raises(ValueError):
        nu_ultraclosure_check(generate([], 2, universe=u2))


def classical_bp_membership(f, fragment, d):
    """Baker-Pixley: with a d-ary near-unanimity member, f is in the clone
    exactly when it preserves every invariant relation of arity < d."""
    return all(preserves(f, r) for r in inv(fragment, d - 1))


def test_classical_membership_examples(u2, gates):
    fragmaj = generate([gates["maj"]], 2)
    assert classical_bp_membership(gates["p1"], fragmaj, 3)
    assert not classical_bp_membership(gates["not"], fragmaj, 3)
    lattice = generate([gates["and"], gates["or"], gates["maj"]], 2)
    assert classical_bp_membership(gates["and"], lattice, 3)


def test_classical_membership_matches_containment(u2, gates):
    fragmaj = generate([gates["maj"]], 2)
    for f in itertools.chain(all_operations(u2, 1), all_operations(u2, 2)):
        assert classical_bp_membership(f, fragmaj, 3) == contains(fragmaj, f)
