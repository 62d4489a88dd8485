import itertools
import random

import pytest

from clonelab.clone_engine import fragments_equal, generate, pol
from clonelab.finite_core import (
    Operation,
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
    ProductUniverse,
    decompose_product,
    gamma_plus,
    gamma_star,
    goldstern_shelah_member,
    product_operation,
    star_operation,
)
from clonelab.ultralocal import ultra_closure_fragment
from product_oracles import commutes_with_band, product_clone


def zmod(n):
    u = Universe(n)
    return AbelianGroup(
        u,
        operation_from_callable(u, 2, lambda a, b: (a + b) % n),
        operation_from_callable(u, 1, lambda a: (-a) % n),
        0,
    )


def psi(r, universe, x0, x1, x2, x3):
    """exists y (rho3(x0,x1,y) and rho3(y,x2,x3)), by brute force over y."""
    return any((x0, x1, y) in r and (y, x2, x3) in r for y in universe.elements())


def test_psi_on_three_elements(u3):
    r = rho3(u3).tuples
    got = frozenset(x for x in u3.tuples(4) if psi(r, u3, *x))
    expected = frozenset(
        t for t in u3.tuples(4) if t[0] == t[1] or t[2] == t[3] or t[1] == t[2]
    )
    assert got == expected


@pytest.mark.parametrize("size", [2, 3, 4])
def test_phi_defines_pi4(size):
    # phi(x0,x1,x2,x3) = psi(x0,x1,x2,x3) and psi(x1,x0,x2,x3)
    u = Universe(size)
    r = rho3(u).tuples
    got = frozenset(
        (a, b, c, d) for a, b, c, d in u.tuples(4) if psi(r, u, a, b, c, d) and psi(r, u, b, a, c, d)
    )
    assert got == pi4(u).tuples


def is_essentially_unary(op):
    """What `detect ess-unary` decides: preservation of rho3."""
    return preserves(op, rho3(op.universe))


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
        b = commutes_with_band(pu, op)
        c = bool(decompose_product(pu, op))
        assert a == b == c


@pytest.mark.parametrize(
    "closure", [ultra_closure_fragment, local_closure_fragment], ids=["ultra", "local"]
)
def test_closure_commutation(u2, gates, closure):
    # Closing the product equals the product of the closures, with the
    # cover-condition closure and with the local one.
    P = generate([], 1, universe=u2)
    Q = generate([gates["not"]], 1)
    for left, right in itertools.product([P, Q], repeat=2):
        closed_product = closure(product_clone(left, right, 1), 4, 1)
        product_of_closed = product_clone(
            closure(left, 4, 1), closure(right, 4, 1), 1
        )
        assert fragments_equal(closed_product, product_of_closed)


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
