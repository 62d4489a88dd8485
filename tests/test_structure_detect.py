import itertools
import random

import pytest

from clonelab.clone_engine import fragments_equal, generate, pol
from clonelab.finite_core import (
    Operation,
    Relation,
    Universe,
    all_operations,
    constant_op,
    neq,
    operation_from_callable,
    pi4,
    preserves,
    projection,
    rho3,
)
from clonelab.interpolation import local_closure_fragment
from clonelab.structure_detect import (
    AbelianGroup,
    PPFormula,
    ProductCloneResult,
    ProductUniverse,
    closure_commutation_check,
    decompose_product,
    eval_pp_formula,
    gamma_plus,
    gamma_star,
    goldstern_shelah_member,
    is_essentially_unary,
    is_product_clone,
    phi_formula,
    product_clone,
    product_operation,
    psi_formula,
    star_operation,
)
from clonelab.ultralocal import ultra_closure_fragment


def commutes_with_star_direct(pu, f):
    """Independent oracle: check the commutation identity over all pairs
    of argument tuples, with the band operation applied entrywise."""
    star = star_operation(pu)
    paired = pu.paired
    n = f.arity
    for us in paired.tuples(n):
        fu = f.table[f.index_of(us)]
        for vs in paired.tuples(n):
            mixed = tuple(star.table[star.index_of((u, v))] for u, v in zip(us, vs))
            lhs = f.table[f.index_of(mixed)]
            rhs = star.table[star.index_of((fu, f.table[f.index_of(vs)]))]
            if lhs != rhs:
                return False
    return True


def zmod(n):
    u = Universe(n)
    return AbelianGroup(
        u,
        operation_from_callable(u, 2, lambda a, b: (a + b) % n),
        operation_from_callable(u, 1, lambda a: (-a) % n),
        0,
    )


def test_psi_on_three_elements(u3):
    got = eval_pp_formula(psi_formula(), {"rho3": rho3(u3)}, u3)
    expected = frozenset(
        t for t in u3.tuples(4) if t[0] == t[1] or t[2] == t[3] or t[1] == t[2]
    )
    assert got.tuples == expected


@pytest.mark.parametrize("size", [2, 3, 4])
def test_phi_defines_pi4(size):
    u = Universe(size)
    got = eval_pp_formula(phi_formula(), {"rho3": rho3(u)}, u)
    assert got.tuples == pi4(u).tuples


def test_single_atom_formula_is_identity(u2):
    formula = PPFormula(("x", "y"), (), (("r", ("x", "y")),))
    rel = neq(u2)
    assert eval_pp_formula(formula, {"r": rel}, u2).tuples == rel.tuples


def test_formula_errors(u2):
    with pytest.raises(ValueError):
        PPFormula(("x",), ("x",), ())  # name clash
    with pytest.raises(ValueError):
        PPFormula(("x",), (), (("r", ("z",)),))  # undeclared variable
    formula = PPFormula(("x", "y"), (), (("r", ("x", "y")),))
    with pytest.raises(ValueError):
        eval_pp_formula(formula, {}, u2)  # unresolved name
    with pytest.raises(ValueError):
        eval_pp_formula(formula, {"r": rho3(u2)}, u2)  # arity mismatch


def test_a_free_variable_no_atom_mentions_ranges_over_the_universe(u2):
    ones = Relation(u2, 1, frozenset({(1,)}))
    formula = PPFormula(("x", "y"), (), (("r", ("y",)),))
    assert eval_pp_formula(formula, {"r": ones}, u2).tuples == frozenset({(0, 1), (1, 1)})
    assert eval_pp_formula(PPFormula(("x",), (), ()), {}, u2).tuples == frozenset({(0,), (1,)})


def test_repeated_variable_atom(u2):
    formula = PPFormula(("x",), (), (("r", ("x", "x")),))
    rel = neq(u2)
    assert eval_pp_formula(formula, {"r": rel}, u2).tuples == frozenset()


def test_is_essentially_unary_examples(u2, u3, gates):
    assert is_essentially_unary(projection(u3, 3, 1))
    assert not is_essentially_unary(gates["and"])
    assert is_essentially_unary(constant_op(u2, 2, 1))


def test_essential_unarity_agreement(u2, u3):
    from clonelab.finite_core import is_essentially_unary_direct

    for universe, max_arity in [(u2, 2), (u3, 2)]:
        for arity in range(1, max_arity + 1):
            for op in all_operations(universe, arity):
                assert is_essentially_unary(op) == is_essentially_unary_direct(op)


def test_star_operation(u2):
    pu = ProductUniverse(u2, u2)
    star = star_operation(pu)
    assert star.table[star.index_of((pu.pair(0, 0), pu.pair(1, 1)))] == pu.pair(0, 1)
    for u in pu.paired.elements():
        assert star.table[star.index_of((u, u))] == u
    expected = product_operation(pu, projection(u2, 2, 0), projection(u2, 2, 1))
    assert star.table == expected.table


def test_decompose_star(u2):
    pu = ProductUniverse(u2, u2)
    split = decompose_product(pu, star_operation(pu))
    assert split
    assert split.factor_left.table == projection(u2, 2, 0).table
    assert split.factor_right.table == projection(u2, 2, 1).table


def test_decompose_round_trip_unary(u2):
    pu = ProductUniverse(u2, u2)
    for g in all_operations(u2, 1):
        for h in all_operations(u2, 1):
            split = decompose_product(pu, product_operation(pu, g, h))
            assert split
            assert split.factor_left.table == g.table
            assert split.factor_right.table == h.table


def test_decompose_round_trip_random_binary():
    rng = random.Random(12)
    pu = ProductUniverse(Universe(2), Universe(3))
    for _ in range(40):
        g = Operation(pu.left, 2, tuple(rng.randrange(2) for _ in range(4)))
        h = Operation(pu.right, 2, tuple(rng.randrange(3) for _ in range(9)))
        combined = product_operation(pu, g, h)
        split = decompose_product(pu, combined)
        assert split
        recomposed = product_operation(pu, split.factor_left, split.factor_right)
        assert recomposed.table == combined.table


def test_swap_map_is_not_a_product(u2):
    pu = ProductUniverse(u2, u2)
    swap = Operation(pu.paired, 1, (3, 1, 2, 0))
    split = decompose_product(pu, swap)
    assert not split
    assert split.witness is not None
    assert not preserves(swap, gamma_star(pu))


def test_decomposition_matches_band_graph_exhaustive(u2):
    # three routes agree on all 256 unary maps: preservation of the band
    # graph, direct commutation, and successful decomposition
    pu = ProductUniverse(u2, u2)
    rel = gamma_star(pu)
    for op in all_operations(pu.paired, 1):
        a = preserves(op, rel)
        b = commutes_with_star_direct(pu, op)
        c = bool(decompose_product(pu, op))
        assert a == b == c


def test_is_product_clone(u2, gates):
    pu = ProductUniverse(u2, u2)
    star = star_operation(pu)
    assert is_product_clone(generate([star], 2), pu)

    built = product_clone(generate([gates["and"]], 2), generate([gates["or"]], 2), 2)
    result = is_product_clone(built, pu)
    assert result
    assert result.factor_left.tables(2) == generate([gates["and"]], 2).tables(2)
    assert result.factor_right.tables(2) == generate([gates["or"]], 2).tables(2)

    # every projection splits, but the rectangular band operation is missing
    projections_only = generate([], 2, universe=pu.paired)
    assert is_product_clone(projections_only, pu) == ProductCloneResult(False, None, None, None)

    swap = Operation(pu.paired, 1, (3, 1, 2, 0))
    bad = generate([swap, star], 2)
    verdict = is_product_clone(bad, pu)
    assert not verdict and verdict.failing_member is not None


def test_product_clone_members(u2, gates):
    P = generate([gates["not"]], 1)
    Q = generate([], 1, universe=u2)
    built = product_clone(P, Q, 1)
    assert len(built.members[1]) == len(P.members[1]) * len(Q.members[1])


@pytest.mark.parametrize(
    "closure", [ultra_closure_fragment, local_closure_fragment], ids=["ultra", "local"]
)
def test_closure_commutation(u2, gates, closure):
    # The identity is checked directly with each closure, the cover-condition
    # one and the local one, and closure_commutation_check must agree.
    P = generate([], 1, universe=u2)
    Q = generate([gates["not"]], 1)
    for left, right in itertools.product([P, Q], repeat=2):
        closed_product = closure(product_clone(left, right, 1), 4, 1)
        product_of_closed = product_clone(
            closure(left, 4, 1), closure(right, 4, 1), 1
        )
        assert fragments_equal(closed_product, product_of_closed)
        assert closure_commutation_check(left, right, 4, 1)


def test_abelian_group_validation(u2):
    with pytest.raises(ValueError):
        AbelianGroup(
            u2,
            operation_from_callable(u2, 2, lambda a, b: a & b),
            operation_from_callable(u2, 1, lambda a: a),
            0,
        )
    zmod(2)  # valid


def test_module_compatible_examples(u2, gates):
    z2 = zmod(2)
    assert gamma_plus(z2).tuples == frozenset(
        [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    )
    from clonelab.structure_detect import module_compatible

    assert module_compatible(gates["xor"], z2)
    assert not module_compatible(gates["and"], z2)

    z3 = zmod(3)
    for c in range(3):
        scalar = operation_from_callable(Universe(3), 1, lambda a, c=c: (c * a) % 3)
        assert module_compatible(scalar, z3)


def test_injective_unary_polymorphisms_of_inequality():
    for size in (2, 3):
        u = Universe(size)
        frag = pol([neq(u)], 1)
        for op in frag.members[1]:
            assert len(set(op.table)) == size  # injective


def test_goldstern_shelah_examples(u3, dual_discriminator):
    ident = projection(u3, 1, 0)
    assert all(goldstern_shelah_member(ident, a) for a in range(3))
    assert all(goldstern_shelah_member(dual_discriminator, a) for a in range(3))
    const = constant_op(u3, 1, 0)
    assert not goldstern_shelah_member(const, 0)
    assert goldstern_shelah_member(const, 1)


def test_goldstern_shelah_conservative_sample(u3):
    rng = random.Random(17)
    from clonelab.finite_core import is_conservative

    for _ in range(50):
        op = Operation(u3, 2, tuple(rng.randrange(3) for _ in range(9)))
        if is_conservative(op):
            assert all(goldstern_shelah_member(op, a) for a in range(3))
