import itertools
import random

import pytest

from clonelab.finite_core import ResourceCapExceeded
from clonelab.simple_module import (
    FiniteField,
    LinearMap,
    PipelineError,
    SubspaceCoverInstance,
    all_vectors,
    carried_sum,
    check_kernels_cover,
    density_interpolate,
    factor_through,
    field_of_order,
    identity_map,
    image_basis,
    instance_from_json,
    instance_to_json,
    kernel_basis,
    map_on_span,
    matrix_unit_span,
    random_instance,
    recover,
    rref,
    solve,
    standard_basis,
    zero_map,
    zero_vector,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_fields_construct_and_satisfy_axioms(q):
    F = field_of_order(q)  # axioms verified exhaustively inside
    assert F.order == q
    for a in range(1, q):
        assert F.mul_table[a][F.inv_table[a]] == 1
        assert F.add_table[a][F.neg_table[a]] == 0


@pytest.mark.parametrize("q", [0, 1, 6, 10, 16])
def test_invalid_field_orders(q):
    with pytest.raises(ValueError):
        FiniteField(q)


def test_gf4_has_no_characteristic_2_surprises():
    F = field_of_order(4)
    assert all(F.add_table[a][a] == 0 for a in range(4))
    # multiplicative group is cyclic of order 3: x, x^2, x^3 = 1
    powers = []
    acc = 1
    for _ in range(3):
        acc = F.mul_table[acc][2]
        powers.append(acc)
    assert acc == 1 and sorted(powers) == [1, 2, 3]
    assert sorted(F.mul_table[2][b] for b in range(1, 4)) == [1, 2, 3]


# Each field's characteristic and monic modulus, little-endian: elements are
# read as base-p digit polynomials and multiplied modulo the modulus. The
# prime fields take the modulus x; GF(4) and GF(8) take x^2 = x + 1 and
# x^3 = x + 1 over GF(2); GF(9) takes x^2 = 2 over GF(3).
MODULI = {
    2: (2, (0, 1)), 3: (3, (0, 1)), 5: (5, (0, 1)), 7: (7, (0, 1)),
    4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1)),
}


class PolyField:
    """Field arithmetic from the polynomial definition, reading no table."""

    def __init__(self, q):
        self.q = q
        self.p, self.modulus = MODULI[q]
        self.k = len(self.modulus) - 1

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.k)]

    def number(self, coefficients):
        return sum(c % self.p * self.p ** i for i, c in enumerate(coefficients))

    def add(self, a, b):
        return self.number(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def sub(self, a, b):
        return self.number(x - y for x, y in zip(self.digits(a), self.digits(b)))

    def mul(self, a, b):
        product = [0] * (2 * self.k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                product[i + j] += x * y
        for top in range(len(product) - 1, self.k - 1, -1):
            c = product[top]
            for i, m in enumerate(self.modulus):
                product[top - self.k + i] -= c * m
        return self.number(product[:self.k])

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)

    def dot(self, row, v):
        acc = 0
        for a, x in zip(row, v):
            acc = self.add(acc, self.mul(a, x))
        return acc

    def product(self, left, right):
        columns = list(zip(*right))
        return tuple(tuple(self.dot(row, col) for col in columns) for row in left)

    def rref(self, rows):
        """Gauss-Jordan elimination; the reduced form is unique."""
        rows = [list(r) for r in rows]
        pivots = []
        for c in range(len(rows[0]) if rows else 0):
            r = len(pivots)
            found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if found is None:
                continue
            rows[r], rows[found] = rows[found], rows[r]
            scale = self.inv(rows[r][c])
            rows[r] = [self.mul(scale, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r:
                    f = rows[i][c]
                    rows[i] = [self.sub(x, self.mul(f, y)) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
        return [tuple(r) for r in rows], pivots


def _random_rows(rng, q, nrows, ncols, rank_deficient=False):
    rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
    if rank_deficient and nrows >= 3:
        # the last row combines the first two, so the rank drops
        P, c = PolyField(q), rng.randrange(q)
        rows[-1] = [P.add(a, P.mul(c, b)) for a, b in zip(rows[0], rows[1])]
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_tables_match_the_polynomial_definition(q):
    F, P = field_of_order(q), PolyField(q)
    for a in range(q):
        assert F.neg_table[a] == P.sub(0, a)
        assert F.inv_table[a] == (P.inv(a) if a else None)
        for b in range(q):
            assert F.add_table[a][b] == P.add(a, b)
            assert F.mul_table[a][b] == P.mul(a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matrix_kernels_match_the_polynomial_oracle(q):
    rng = random.Random(1000 + q)
    F, P = field_of_order(q), PolyField(q)
    for trial in range(6):
        n = 2 + trial % 3
        a_rows = _random_rows(rng, q, n, n, rank_deficient=trial % 2 == 1)
        b_rows = _random_rows(rng, q, n, n)
        A, B = LinearMap(F, a_rows), LinearMap(F, b_rows)
        v = tuple(rng.randrange(q) for _ in range(n))
        c = rng.randrange(q)
        assert A.apply(v) == tuple(P.dot(row, v) for row in a_rows)
        assert A.compose(B).rows == P.product(a_rows, b_rows)
        assert (A + B).rows == tuple(
            tuple(P.add(x, y) for x, y in zip(r, s)) for r, s in zip(a_rows, b_rows))
        assert (A - B).rows == tuple(
            tuple(P.sub(x, y) for x, y in zip(r, s)) for r, s in zip(a_rows, b_rows))
        assert A.scale(c).rows == tuple(tuple(P.mul(c, x) for x in r) for r in a_rows)

        wide = _random_rows(rng, q, n, n + 2, rank_deficient=trial % 2 == 0)
        assert rref(F, wide) == P.rref(wide)

        rhs = tuple(rng.randrange(q) for _ in range(n))
        reduced, pivots = P.rref([r + (b,) for r, b in zip(a_rows, rhs)])
        if n in pivots:
            assert solve(F, a_rows, rhs) is None
        else:
            x = [0] * n
            for r, pc in enumerate(pivots):
                x[pc] = reduced[r][n]
            assert solve(F, a_rows, rhs) == tuple(x)
            assert tuple(P.dot(row, x) for row in a_rows) == rhs


@pytest.mark.parametrize("op", [
    lambda a, b: a.compose(b), lambda a, b: a + b, lambda a, b: a - b,
], ids=["compose", "add", "sub"])
def test_matrices_of_different_sizes_do_not_combine(op):
    F = field_of_order(2)
    with pytest.raises(ValueError, match="^cannot combine a 3 x 3 matrix with a 2 x 2 one$"):
        op(identity_map(F, 3), identity_map(F, 2))
    with pytest.raises(ValueError):
        op(identity_map(F, 3), zero_map(F, 0))


def test_rref_and_rank():
    F = field_of_order(3)
    rows = [(1, 2, 0), (2, 4 % 3, 0), (0, 0, 1)]
    reduced, pivots = rref(F, rows)
    assert pivots == [0, 2]
    assert len(rref(F, rows)[1]) == 2


def test_kernel_and_image_against_enumeration():
    rng = random.Random(2)
    F = field_of_order(2)
    for _ in range(20):
        m = LinearMap(F, tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(4)))
        kernel = kernel_basis(F, m.rows)
        # every kernel basis vector maps to zero
        for v in kernel:
            assert m.apply(v) == zero_vector(4)
        # kernel size matches the enumerated count
        count = sum(1 for v in all_vectors(F, 4) if m.apply(v) == zero_vector(4))
        assert count == 2 ** len(kernel)
        # image basis vectors are independent values of the map
        img = image_basis(m)
        assert len(rref(F, img)[1]) == len(img)
        assert len(img) + len(kernel) == 4
        values = {m.apply(v) for v in all_vectors(F, 4)}
        assert len(values) == 2 ** len(img)


def test_solve_consistency():
    F = field_of_order(5)
    rows = [(1, 2), (3, 4)]
    rhs = (0, 1)
    x = solve(F, rows, rhs)
    assert x is not None
    for row, b in zip(rows, rhs):
        acc = 0
        for a, xi in zip(row, x):
            acc = F.add_table[acc][F.mul_table[a][xi]]
        assert acc == b
    assert solve(F, [(1, 0), (1, 0)], (0, 1)) is None


def test_map_on_span_round_trip():
    F = field_of_order(3)
    basis = standard_basis(3)
    images = [(1, 2, 0), (0, 1, 1), (2, 2, 2)]
    m = map_on_span(F, basis, images, 3)
    for b, w in zip(basis, images):
        assert m.apply(b) == w


STANDARD = {dim: [tuple(int(i == j) for j in range(dim)) for i in range(dim)] for dim in range(10)}


def greedy_indices(P, vectors):
    """Indices of the vectors that are independent of those kept before them."""
    kept = []
    for i, v in enumerate(vectors):
        if len(P.rref([vectors[j] for j in kept] + [v])[1]) > len(kept):
            kept.append(i)
    return kept


def oracle_map_on_span(P, vectors, images, dim):
    """(kept standard vectors, Q P^-1), where the columns of P are the
    vectors followed by the standard vectors a greedy scan keeps, and the
    columns of Q are their images, zero for the standard vectors."""
    candidates = list(vectors) + STANDARD[dim]
    values = list(images) + [(0,) * dim] * dim
    kept = greedy_indices(P, candidates)
    assert len(kept) == dim and kept[:len(vectors)] == list(range(len(vectors)))
    columns = list(zip(*(candidates[c] for c in kept)))
    reduced, _ = P.rref([row + STANDARD[dim][i] for i, row in enumerate(columns)])
    inverse = tuple(row[dim:] for row in reduced)
    images_as_columns = tuple(zip(*(values[c] for c in kept)))
    return [candidates[c] for c in kept[len(vectors):]], P.product(images_as_columns, inverse)


def _independent_family(rng, P, q, dim, size):
    while True:
        vectors = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(size)]
        if len(P.rref(vectors)[1]) == size:
            return vectors


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_map_on_span_matches_the_polynomial_oracle(q):
    rng = random.Random(3000 + q)
    F, P = field_of_order(q), PolyField(q)
    for trial in range(12):
        dim = 1 + trial % 4
        size = rng.randrange(dim + 1)
        vectors = _independent_family(rng, P, q, dim, size)
        images = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(size)]
        m = map_on_span(F, vectors, images, dim)
        added, expected = oracle_map_on_span(P, vectors, images, dim)
        assert m.rows == expected
        for v, w in zip(vectors, images):
            assert m.apply(v) == w
        for e in added:
            assert m.apply(e) == zero_vector(dim)
        if size:
            # a multiple of the first vector makes the family dependent
            c = rng.randrange(q)
            multiple = tuple(P.mul(c, x) for x in vectors[0])
            with pytest.raises(ValueError, match="^vectors are dependent$"):
                map_on_span(F, vectors + [multiple], images + [images[0]], dim)


def oracle_carried_sum(P, dim, interpolants):
    """Sum of s_i r_i, s_i sending the greedy columns of r_i to the next
    standard vectors and killing the standard vectors that complete them."""
    t, cursor = ((0,) * dim,) * dim, 0
    for r in interpolants:
        columns = list(zip(*r))
        kept = [columns[c] for c in greedy_indices(P, columns)]
        _, s = oracle_map_on_span(P, kept, STANDARD[dim][cursor:cursor + len(kept)], dim)
        cursor += len(kept)
        t = tuple(tuple(P.add(x, y) for x, y in zip(a, b))
                  for a, b in zip(t, P.product(s, r)))
    return t


def oracle_factor_through(P, t, f):
    """u sending the greedy columns of t to the matching columns of f."""
    columns, f_columns = list(zip(*t)), list(zip(*f))
    kept = greedy_indices(P, columns)
    return oracle_map_on_span(P, [columns[c] for c in kept], [f_columns[c] for c in kept],
                              len(t))[1]


@pytest.mark.parametrize("q", [7, 8, 9])
def test_carried_sum_and_factor_through_match_the_oracle_on_large_fields(q):
    # recover never reaches these stages here: q^dim exceeds VECTOR_CAP
    F, P = field_of_order(q), PolyField(q)
    inst = random_instance(F, q, random.Random(q))
    r0 = inst.interpolants[0]
    translated = [r - r0 for r in inst.interpolants]
    t = carried_sum(F, q, translated)
    assert t.rows == oracle_carried_sum(P, q, [r.rows for r in translated])
    u = factor_through(t, inst.f - r0)
    assert u.rows == oracle_factor_through(P, t.rows, (inst.f - r0).rows)
    assert u.compose(t).rows == (inst.f - r0).rows


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_kernel_of_one_functional_spans_a_hyperplane(q):
    rng = random.Random(4000 + q)
    F, P = field_of_order(q), PolyField(q)
    for dim in (2, 3):
        phi = _independent_family(rng, P, q, dim, 1)[0]
        basis = kernel_basis(F, [phi])
        assert len(basis) == dim - 1
        span = {
            tuple(P.dot(column, coefficients) for column in zip(*basis))
            for coefficients in itertools.product(range(q), repeat=dim - 1)
        }
        hyperplane = {v for v in all_vectors(F, dim) if P.dot(phi, v) == 0}
        assert span == hyperplane and len(hyperplane) == q ** (dim - 1)


def test_instance_validation():
    F = field_of_order(2)
    f = identity_map(F, 2)
    r0 = zero_map(F, 2)
    with pytest.raises(ValueError):
        SubspaceCoverInstance(F, 2, f, (r0,), (((1, 0),),))  # disagreement
    inst = SubspaceCoverInstance(F, 2, f, (f,), (((1, 0),),))
    assert inst.blocks == (((1, 0),),)


def test_enlarge_single_matching_block():
    F = field_of_order(2)
    f = identity_map(F, 3)
    inst = SubspaceCoverInstance(F, 3, f, (f,), (((1, 0, 0),),))
    # the kernel of f - f is everything
    check_kernels_cover(inst)


def test_enlarge_reports_uncovered_vector():
    F = field_of_order(2)
    f = identity_map(F, 2)
    r0 = zero_map(F, 2)
    # agreement holds on the block (the zero vector only, empty basis) but
    # the kernels cannot cover
    inst = SubspaceCoverInstance(F, 2, f, (r0,), ((),))
    with pytest.raises(PipelineError) as err:
        check_kernels_cover(inst)
    assert err.value.stage == "enlarge"
    assert err.value.witness is not None


def test_enlarge_plane_and_line():
    F = field_of_order(2)
    dim = 3
    # the zero map agrees with r0 = 0 on a plane and with a projection-like
    # r1 on the line it kills; the kernels grow the plane to everything
    # and keep the line, so they cover
    f = zero_map(F, dim)
    r0 = zero_map(F, dim)
    r1 = LinearMap(F, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    inst = SubspaceCoverInstance(
        F, dim, f, (r0, r1), (((1, 0, 0), (0, 1, 0)), ((0, 0, 1),))
    )
    check_kernels_cover(inst)


def test_recovered_t_kills_only_kernel_vectors_of_f_minus_r0():
    rng = random.Random(5)
    for q, dim in [(2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]:
        F = field_of_order(q)
        inst = random_instance(F, dim, rng)
        result = recover(inst)
        f0 = inst.f - result.r0
        for v in kernel_basis(F, result.t.rows):
            assert f0.apply(v) == zero_vector(dim)


def test_targets_overflow():
    F = field_of_order(2)
    dim = 2
    f = identity_map(F, dim)
    # three full-rank interpolants cannot get independent targets
    with pytest.raises(PipelineError) as err:
        carried_sum(F, dim, [f, f, f])
    assert err.value.stage == "targets"


def test_factor_through_examples():
    F = field_of_order(3)
    rng = random.Random(13)
    f = LinearMap(F, tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)))
    ident = identity_map(F, 4)
    assert factor_through(ident, f).rows == f.rows
    u = factor_through(f, f)
    assert u.compose(f).rows == f.rows


def test_factor_through_requires_kernel_containment():
    F = field_of_order(2)
    t = zero_map(F, 2)
    f = identity_map(F, 2)
    with pytest.raises(PipelineError):
        factor_through(t, f)


def test_factor_through_random_instances():
    rng = random.Random(21)
    F = field_of_order(3)
    for _ in range(20):
        a = LinearMap(F, tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)))
        t = LinearMap(F, tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(4)))
        f = a.compose(t)  # then ker(t) <= ker(f) automatically
        u = factor_through(t, f)
        assert u.compose(t).rows == f.rows


def test_density_interpolation():
    F = field_of_order(2)
    dim = 2
    target = LinearMap(F, ((1, 1), (0, 1)))
    # the full matrix basis always succeeds
    res = density_interpolate(target, standard_basis(dim), matrix_unit_span(F, dim))
    assert res is not None and res.combination.rows == target.rows
    # the identity alone matches the zero map at the zero vector
    res = density_interpolate(
        zero_map(F, dim), [zero_vector(dim)], [identity_map(F, dim)]
    )
    assert res is not None
    # a zero target is always matched by the zero combination
    res = density_interpolate(
        zero_map(F, dim), [standard_basis(dim)[0]], [identity_map(F, dim)]
    )
    assert res is not None and res.coefficients == (0,)
    # a genuinely inconsistent system has no combination
    swap = LinearMap(F, ((0, 1), (1, 0)))
    res = density_interpolate(swap, [standard_basis(dim)[0]], [identity_map(F, dim)])
    assert res is None


def test_recover_trivial_cases():
    F = field_of_order(2)
    dim = 3
    r0 = LinearMap(F, ((1, 1, 0), (0, 1, 0), (1, 0, 1)))
    basis = tuple(standard_basis(dim))
    inst = SubspaceCoverInstance(F, dim, r0, (r0,), (basis,))
    result = recover(inst)
    assert result.recovered.rows == r0.rows

    zero = zero_map(F, dim)
    inst = SubspaceCoverInstance(F, dim, zero, (zero,), (basis,))
    assert recover(inst).recovered.rows == zero.rows


def test_recover_randomized():
    rng = random.Random(99)
    for q, dims in [(2, (2, 3, 4, 5, 6)), (3, (3, 4, 5, 6))]:
        F = field_of_order(q)
        for dim in dims:
            for _ in range(3):
                inst = random_instance(F, dim, rng)
                result = recover(inst)
                assert result.recovered.rows == inst.f.rows
                # the reassembly identity holds piece by piece
                assert (result.u.compose(result.t) + result.r0).rows == inst.f.rows


def test_random_instance_structure():
    rng = random.Random(50)
    F = field_of_order(3)
    inst = random_instance(F, 5, rng)
    assert len(inst.interpolants) == 4  # a pencil has q + 1 members
    # rank condition that makes target assignment possible
    r0 = inst.interpolants[0]
    total = sum(len(image_basis(r - r0)) for r in inst.interpolants)
    assert total <= inst.dim
    # blocks cover: every vector agrees with some interpolant
    for v in all_vectors(F, inst.dim):
        assert any(
            inst.f.apply(v) == r.apply(v) for r in inst.interpolants
        )


def test_random_instance_dimension_guard():
    F = field_of_order(3)
    with pytest.raises(ValueError):
        random_instance(F, 2, random.Random(0))


def test_vector_cap():
    F = field_of_order(3)
    with pytest.raises(ResourceCapExceeded):
        all_vectors(F, 9)


def test_instance_json_round_trip():
    rng = random.Random(77)
    inst = random_instance(field_of_order(2), 4, rng)
    back = instance_from_json(instance_to_json(inst))
    assert back.f.rows == inst.f.rows
    assert [r.rows for r in back.interpolants] == [r.rows for r in inst.interpolants]
    assert back.blocks == inst.blocks


def test_instance_json_writes_a_ring_span_only_when_one_is_named():
    inst = random_instance(field_of_order(3), 3, random.Random(5))
    assert inst.ring_span is None and "ring_span" not in instance_to_json(inst)
    span = (identity_map(inst.field, 3),)
    data = {**instance_to_json(inst), "ring_span": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}
    assert instance_from_json(data) == inst._replace(ring_span=span)
    assert instance_to_json(instance_from_json(data)) == data


@pytest.mark.parametrize("marker", [0, 1, 16, 49])
def test_instances_over_non_desk_fields_rejected(marker):
    # only explicit small finite fields are accepted; anything else,
    # including stand-ins for infinite scalars, fails at construction
    data = {"field": marker, "dim": 1, "f": [[0]], "interpolants": [[[0]]], "blocks": [[]]}
    with pytest.raises(ValueError):
        instance_from_json(data)
