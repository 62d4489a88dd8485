import itertools
import random

import pytest

from clonelab import interpolation
from clonelab.clone_engine import contains, fragment_from_json, fragments_equal, generate, inv, pol
from clonelab.finite_core import (
    Operation,
    ResourceCapExceeded,
    all_operations,
    operation_from_callable,
    superpose,
)
from clonelab.interpolation import (
    OMEGA,
    InterpolationQuery,
    agreement_mask,
    is_lambda_interpolable,
    local_closure_fragment,
    local_closure_membership,
)
from clonelab.ultralocal import Cover, DaggerCertificate, check_dagger


def test_lambda_zero_always_holds(u2, gates):
    frag = generate([], 2, universe=u2)
    for f in [gates["and"], gates["xor"], gates["p1"]]:
        assert is_lambda_interpolable(InterpolationQuery(f, frag, 0)).holds


def test_not_fails_level_one_with_least_witness(u2, gates):
    frag = generate([], 1, universe=u2)
    verdict = is_lambda_interpolable(InterpolationQuery(gates["not"], frag, 1))
    assert not verdict.holds
    assert verdict.witness == ((0,),)


def test_members_interpolate_themselves(u2, gates):
    frag = generate([gates["and"]], 2)
    for lam in range(0, 5):
        assert is_lambda_interpolable(InterpolationQuery(gates["and"], frag, lam)).holds


def test_query_validation(u2, u3, gates):
    frag = generate([], 1, universe=u2)
    with pytest.raises(ValueError):
        InterpolationQuery(gates["and"], frag, 1)  # arity above bound
    with pytest.raises(ValueError):
        InterpolationQuery(gates["not"], frag, -1)


def test_agreement_mask(u2, gates):
    # and agrees with the first projection except at (1,0)
    mask = agreement_mask(gates["and"], gates["p1"])
    assert mask == 0b1011


def test_antitone_in_level(u2):
    rng = random.Random(3)
    frag = generate([], 2, universe=u2)
    ops = list(all_operations(u2, 2))
    for _ in range(30):
        f = rng.choice(ops)
        results = [
            is_lambda_interpolable(InterpolationQuery(f, frag, lam)).holds
            for lam in range(0, 5)
        ]
        # once it fails it stays failed
        for a, b in zip(results, results[1:]):
            assert a or not b


def test_membership_omega_equals_table_membership(u2, gates):
    # on a finite universe the saturated closure is the fragment itself
    for gens in [[gates["maj"]], [gates["and"]], [gates["not"]]]:
        frag = generate(gens, 2)
        for arity in (1, 2):
            for f in all_operations(u2, arity):
                assert local_closure_membership(f, frag, OMEGA) == contains(frag, f)


def test_membership_examples(u2, gates):
    frag = generate([], 1, universe=u2)
    assert not local_closure_membership(gates["not"], frag, 2)
    assert local_closure_membership(gates["not"], frag, 1)
    fragmaj = generate([gates["maj"]], 3)
    for kappa in (1, 2, 3, OMEGA):
        assert local_closure_membership(gates["maj"], fragmaj, kappa)


def test_closure_level_one_is_everything(u2, gates):
    frag = generate([gates["maj"]], 2)
    closure = local_closure_fragment(frag, 1, 2)
    assert len(closure.members[1]) == 4
    assert len(closure.members[2]) == 16


def test_closure_omega_is_identity(u2, gates):
    frag = generate([gates["and"], gates["not"]], 2)
    assert fragments_equal(local_closure_fragment(frag, OMEGA, 2), frag)


def test_closure_chain_for_majority(u2, gates):
    frag = generate([gates["maj"]], 2)
    level2 = local_closure_fragment(frag, 2, 2)
    level3 = local_closure_fragment(frag, 3, 2)
    for j in (1, 2):
        assert level3.tables(j) <= level2.tables(j)
    # frozen expectations: level 2 keeps exactly the conservative
    # operations, level 3 only the projections
    assert level2.tables(2) == {
        gates["p1"].table,
        gates["p2"].table,
        gates["and"].table,
        gates["or"].table,
    }
    assert level3.tables(2) == {gates["p1"].table, gates["p2"].table}
    assert level2.tables(1) == level3.tables(1) == {gates["id"].table}


def test_closure_operator_laws(u2, gates):
    for gens in [[gates["and"]], [gates["maj"]], [gates["not"]]]:
        frag = generate(gens, 2)
        for kappa in (2, 3, 4):
            closed = local_closure_fragment(frag, kappa, 2)
            for j in (1, 2):
                assert frag.tables(j) <= closed.tables(j)
            again = local_closure_fragment(closed, kappa, 2)
            assert fragments_equal(again, closed)


def test_closure_agrees_with_invariant_relations(u2, gates):
    # two independent routes to the same clone: subset interpolation
    # versus polymorphisms of the invariant relations of lower arity
    for gens in [[gates["and"]], [gates["maj"]], [gates["not"]], [gates["xor"]]]:
        frag = generate(gens, 2)
        for kappa in (2, 3, 4):
            via_interpolation = local_closure_fragment(frag, kappa, 2)
            via_relations = pol(inv(frag, kappa - 1), 2, universe=u2)
            assert fragments_equal(via_interpolation, via_relations)


def test_closure_result_is_superposition_closed(u2, gates):
    closed = local_closure_fragment(generate([gates["maj"]], 2), 3, 2)
    members2 = list(closed.members[2])
    tables = closed.tables(2)
    for g in members2:
        for t1 in members2:
            for t2 in members2:
                assert superpose(g, [t1, t2]).table in tables


def test_closure_bound_validation(u2, gates):
    frag = generate([gates["and"]], 1)
    with pytest.raises(ValueError):
        local_closure_fragment(frag, 2, 2)
    with pytest.raises(ValueError):
        local_closure_membership(gates["and"], frag, "uncountable")


def test_lambda_zero_fails_on_an_empty_layer(u2, gates):
    empty = fragment_from_json({"universe": {"size": 2}, "arity_bound": 1, "members": {"1": []}})
    verdict = is_lambda_interpolable(InterpolationQuery(gates["not"], empty, 0))
    assert not verdict.holds and verdict.witness == ()
    assert not local_closure_membership(gates["not"], empty, 1)


def test_subset_cap_stops_the_scan_and_says_how_far_it_got(u2, gates, monkeypatch):
    frag = generate([gates["and"]], 2)
    query = InterpolationQuery(gates["and"], frag, 2)
    singletons = Cover(u2, 2, [[i] for i in range(4)])
    # C(4, 2) = 6 subsets, none failing; a cover test scans the same 6
    monkeypatch.setattr(interpolation, "SUBSET_CAP", 6)
    assert is_lambda_interpolable(query).holds
    assert isinstance(check_dagger(gates["and"], frag, 2, singletons), DaggerCertificate)
    monkeypatch.setattr(interpolation, "SUBSET_CAP", 5)
    with pytest.raises(ResourceCapExceeded) as caught:
        is_lambda_interpolable(query)
    assert str(caught.value) == (
        "subset cap 5 reached: scanned 5 of the 6 subsets of 2 of the 4 domain points, "
        "none failing"
    )
    with pytest.raises(ResourceCapExceeded) as caught:
        check_dagger(gates["and"], frag, 2, singletons)
    assert str(caught.value) == (
        "subset cap 5 reached: scanned 5 of the 6 subsets of 2 of the 4 cover blocks, "
        "none failing"
    )


def least_failing_subset(f, fragment, lam):
    """Brute force: every set of min(lam, |domain|) domain points on
    which no member agrees with f, and the least of them, or None."""
    points = sorted(f.universe.tuples(f.arity))
    failing = [
        subset for subset in itertools.combinations(points, min(lam, len(points)))
        if not any(all(t(*p) == f(*p) for p in subset) for t in fragment.members[f.arity])
    ]
    return min(failing) if failing else None


def test_the_witness_is_the_least_failing_subset_of_a_brute_force_oracle(u2, u3, gates):
    rng = random.Random(20)
    cases = [(generate([gates[g]], 2), u2) for g in ("and", "xor", "nand")]
    cases.append((generate([], 2, universe=u2), u2))
    cases += [(generate([operation_from_callable(u3, 2, min)], 2), u3),
              (generate([Operation(u3, 2, (0, 1, 0, 0, 1, 2, 2, 1, 0))], 2), u3)]
    seen = set()
    for fragment, universe in cases:
        for _ in range(6):
            table = tuple(rng.randrange(universe.size) for _ in range(universe.size ** 2))
            f = Operation(universe, 2, table)
            for lam in range(5):
                verdict = is_lambda_interpolable(InterpolationQuery(f, fragment, lam))
                assert verdict.witness == least_failing_subset(f, fragment, lam), (f.table, lam)
                assert verdict.holds == (verdict.witness is None)
                seen.add(verdict.holds)
    assert seen == {True, False}


def test_a_witness_inside_the_subset_cap_is_unchanged(u2, gates, monkeypatch):
    frag = generate([], 2, universe=u2)
    query = InterpolationQuery(gates["xor"], frag, 2)
    verdict = is_lambda_interpolable(query)
    assert verdict.witness == ((0, 0), (1, 1))  # the third subset of 2 points
    monkeypatch.setattr(interpolation, "SUBSET_CAP", 3)
    assert is_lambda_interpolable(query) == verdict
    monkeypatch.setattr(interpolation, "SUBSET_CAP", 2)
    with pytest.raises(ResourceCapExceeded):
        is_lambda_interpolable(query)
