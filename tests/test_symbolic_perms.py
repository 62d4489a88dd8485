import itertools
import random

import pytest

from clonelab.symbolic_perms import (
    AltCoverWitness,
    FinSuppPermutation,
    alt_cover_from_json,
    alt_cover_to_json,
    alt_cover_witness,
    compose,
    from_cycles,
    identity,
    in_alt,
    in_alt_B,
    inverse,
    moved_map_from_json,
    parity,
    permutation_to_json,
    transposition,
    verify_alt_cover,
)


def random_perm(rng, window):
    points = list(range(window))
    rng.shuffle(points)
    return FinSuppPermutation(dict(zip(range(window), points)))


def test_parity_examples():
    assert parity(identity()) == "even"
    assert parity(transposition(0, 1)) == "odd"
    assert parity(from_cycles([(0, 1), (2, 3)])) == "even"
    assert parity(from_cycles([(0, 1, 2)])) == "even"


def test_validation():
    with pytest.raises(ValueError):
        FinSuppPermutation({0: 1})  # range does not close up
    with pytest.raises(ValueError):
        FinSuppPermutation({0: 1, 2: 1})  # not injective
    # self-maps are dropped rather than stored
    assert FinSuppPermutation({3: 3}).moved == {}


def test_cycle_decomposition():
    p = from_cycles([(0, 1, 2), (5, 6)])
    assert p.cycles() == [(0, 1, 2), (5, 6)]
    assert p.support == frozenset({0, 1, 2, 5, 6})


def test_group_laws_random():
    rng = random.Random(23)
    for _ in range(50):
        p, q = random_perm(rng, 9), random_perm(rng, 9)
        assert compose(p, inverse(p)) == identity()
        assert inverse(inverse(p)) == p
        # parity is a homomorphism
        same = parity(p) == parity(q)
        assert (parity(compose(p, q)) == "even") == same


def test_compose_application_order():
    p = transposition(0, 1)
    q = from_cycles([(1, 2, 3)])
    assert compose(p, q)(1) == p(q(1))
    assert compose(p, q)(1) == 2


def test_alt_membership_examples():
    assert in_alt(from_cycles([(0, 1, 2)]))
    assert not in_alt_B(transposition(0, 1), {0, 1, 2})
    assert not in_alt_B(from_cycles([(0, 1, 2)]), {0, 1})
    assert in_alt_B(from_cycles([(0, 1, 2)]), {0, 1, 2})


def test_composition_of_odd_permutations_is_even():
    rng = random.Random(31)
    for _ in range(30):
        p, q = random_perm(rng, 8), random_perm(rng, 8)
        if parity(p) == parity(q) == "odd":
            assert parity(compose(p, q)) == "even"


def test_alt_cover_witness_frozen_example():
    w = alt_cover_witness(2, 0, 1, 6)
    assert [sorted(b) for b in w.cover.blocks] == [[0, 1], [2, 3], [4, 5]]
    assert w.interpolants[frozenset({0, 1})] == from_cycles([(0, 1), (4, 5)])
    assert w.interpolants[frozenset({1, 2})] == identity()
    assert verify_alt_cover(w)


def test_alt_cover_witness_small():
    w = alt_cover_witness(1, 0, 1, 4)
    assert [sorted(b) for b in w.cover.blocks] == [[0, 1], [2, 3]]
    assert w.interpolants[frozenset({0})] == from_cycles([(0, 1), (2, 3)])
    assert w.interpolants[frozenset({1})] == identity()


@pytest.mark.parametrize("k", range(1, 7))
def test_alt_cover_witness_family(k):
    w = alt_cover_witness(k, 0, 1, 2 * (k + 1))
    assert verify_alt_cover(w)
    target = transposition(0, 1)
    for key, p in w.interpolants.items():
        assert in_alt(p)
        # identity interpolants occur exactly when the first block is absent
        assert (p == identity()) == (0 not in key)
        for i in key:
            for point in w.cover.blocks[i]:
                assert p(point) == target(point)


@pytest.mark.parametrize("k", range(1, 7))
def test_witness_pieces_recover_the_transposition(k):
    # every non-identity interpolant is the target transposition times a
    # disjoint one, so composing with that piece recovers the target
    w = alt_cover_witness(k, 0, 1, 2 * (k + 1))
    target = transposition(0, 1)
    for p in w.interpolants.values():
        if p == identity():
            continue
        extra = [c for c in p.cycles() if set(c) != {0, 1}]
        assert len(extra) == 1 and len(extra[0]) == 2
        assert compose(p, transposition(*extra[0])) == target


def test_alt_cover_witness_errors():
    with pytest.raises(ValueError):
        alt_cover_witness(2, 0, 1, 5)  # window too small
    with pytest.raises(ValueError):
        alt_cover_witness(2, 0, 0, 6)


def test_verify_rejects_tampered_witness():
    w = alt_cover_witness(2, 0, 1, 6)
    bad = dict(w.interpolants)
    bad[frozenset({0})] = transposition(0, 1)  # odd interpolant
    assert not verify_alt_cover(AltCoverWitness(w.k, w.a, w.b, w.cover, bad))
    missing = dict(w.interpolants)
    missing.pop(frozenset({0}))
    assert not verify_alt_cover(AltCoverWitness(w.k, w.a, w.b, w.cover, missing))


def test_separation_of_transposition():
    # The transposition is odd, yet at each window point x the even 3-cycle
    # (x, f(x), spare) sends x where f does: pointwise interpolable, no member.
    f = transposition(0, 1)
    assert not in_alt(f)
    for x in range(8):
        spare = min({0, 1, 2} - {x, f(x)})
        p = from_cycles([(x, f(x), spare)]) if f(x) != x else identity()
        assert in_alt(p) and p(x) == f(x)


def test_separation_of_members():
    assert in_alt(identity()) and in_alt(from_cycles([(0, 1, 2)]))


def test_even_permutations_of():
    points = [0, 1, 2, 3]
    perms = [FinSuppPermutation(dict(zip(points, image))) for image in itertools.permutations(points)]
    even = [p for p in perms if p.is_even()]
    assert len(even) == 12
    assert all(p.support <= set(points) for p in even)


def test_json_round_trip():
    p = from_cycles([(0, 1), (4, 5, 6)])
    assert FinSuppPermutation(moved_map_from_json(permutation_to_json(p)["moved"])) == p
    w = alt_cover_witness(2, 0, 1, 6)
    assert alt_cover_from_json(alt_cover_to_json(w)) == w


@pytest.mark.parametrize("moved", [{"0": 1.9, "1": 0}, {" 0": 1, "1": 0}, {"+0": 1, "1": 0}])
def test_moved_map_from_json_reads_integers_strictly(moved):
    with pytest.raises(ValueError):
        moved_map_from_json(moved)
