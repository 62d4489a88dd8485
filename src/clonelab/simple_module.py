"""Exact linear algebra over small finite fields and the cover-to-ring
recovery pipeline.

The pipeline takes a linear map f that agrees with given ring elements
r_0, ..., r_{m-1} on subspaces whose union is the whole space, and
rebuilds f inside the ring span:

  1. check that the kernels of f - r_i, which contain the agreement
     sets, cover the space,
  2. translate by r_0 so the first interpolant is zero,
  3. form t as a sum of maps s_i r_i: each s_i sends a greedy basis of
     the image of r_i onto fresh standard vectors and kills the standard
     vectors that complete that basis, so the kernel of t is contained in
     the kernel of f,
  4. factor f = u t through t: u sends the independent columns of t that
     a greedy scan keeps to the matching columns of f and kills the
     standard vectors that complete a basis,
  5. re-express u inside the ring span by solving a linear system on a
     basis of t's image.

map_on_span builds each s_i and u with one row reduction. The final
identity f = u t + r_0 is checked by exact matrix arithmetic.
Every computation is over GF(q) with q at most 9; there is nothing
approximate anywhere.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .finite_core import ResourceCapExceeded, int_from_json, table_from_json

MAX_FIELD_ORDER = 9
VECTOR_CAP = 4096


class PipelineError(Exception):
    """A recovery stage failed; carries the stage tag and a witness."""

    def __init__(self, stage: str, message: str, witness=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.witness = witness


# The characteristic p, the degree k and the reduction rule x^k -> lower-degree
# polynomial (little-endian coefficients) of each field order; a prime order
# is degree 1, which needs no reduction rule.
_FIELD_SPECS = {
    2: (2, 1, ()), 3: (3, 1, ()), 5: (5, 1, ()), 7: (7, 1, ()),
    4: (2, 2, (1, 1)),      # x^2 = 1 + x      over GF(2)
    8: (2, 3, (1, 1, 0)),   # x^3 = 1 + x      over GF(2)
    9: (3, 2, (2, 0)),      # x^2 = 2          over GF(3)
}


def _digits(p: int, k: int, a: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(a % p)
        a //= p
    return out


def _undigits(p: int, digits) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _poly_add(p: int, k: int, a: int, b: int) -> int:
    da, db = _digits(p, k, a), _digits(p, k, b)
    return _undigits(p, [(x + y) % p for x, y in zip(da, db)])


def _poly_mul(p: int, k: int, a: int, b: int, reduction) -> int:
    da, db = _digits(p, k, a), _digits(p, k, b)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] = (conv[i + j] + x * y) % p
    # fold degrees >= k down through the reduction rule
    for deg in range(len(conv) - 1, k - 1, -1):
        c = conv[deg]
        if c:
            conv[deg] = 0
            for i, r in enumerate(reduction):
                conv[deg - k + i] = (conv[deg - k + i] + c * r) % p
    return _undigits(p, conv[:k])


def _verify_axioms(q: int, add_table, mul_table) -> None:
    rng = range(q)
    for a in rng:
        if add_table[a][0] != a or mul_table[a][1] != a:
            raise ValueError("identity axioms fail")
        for b in rng:
            if add_table[a][b] != add_table[b][a]:
                raise ValueError("addition not commutative")
            if mul_table[a][b] != mul_table[b][a]:
                raise ValueError("multiplication not commutative")
            for c in rng:
                if add_table[add_table[a][b]][c] != add_table[a][add_table[b][c]]:
                    raise ValueError("addition not associative")
                if mul_table[mul_table[a][b]][c] != mul_table[a][mul_table[b][c]]:
                    raise ValueError("multiplication not associative")
                if mul_table[a][add_table[b][c]] != add_table[mul_table[a][b]][mul_table[a][c]]:
                    raise ValueError("distributivity fails")


class FiniteField(namedtuple("FiniteField", "order add_table mul_table neg_table inv_table")):
    """GF(q) for q a prime power at most 9, with explicit operation tables.

    Elements are the integers 0..q-1; for prime powers the base-p digits
    of an element are the coefficients of its polynomial representative.
    The tables are built from the order and checked against every field
    axiom, so a bad reduction rule cannot slip through; tables passed in,
    as a copy of the record passes them, must equal them. The arithmetic
    indexes the tables: a + b is add_table[a][b], a * b is mul_table[a][b],
    -a is neg_table[a] and 1/a is inv_table[a] (None at zero).
    """

    __slots__ = ()

    def __new__(cls, order: int, *tables):
        if order < 2 or order > MAX_FIELD_ORDER:
            raise ValueError(
                f"field order must be between 2 and {MAX_FIELD_ORDER}, got {order}"
            )
        if order not in _FIELD_SPECS:
            raise ValueError(f"{order} is not a prime power")
        p, k, reduction = _FIELD_SPECS[order]
        add_table = tuple(
            tuple(_poly_add(p, k, a, b) for b in range(order)) for a in range(order)
        )
        mul_table = tuple(
            tuple(_poly_mul(p, k, a, b, reduction) for b in range(order))
            for a in range(order)
        )
        neg_table = tuple(row.index(0) for row in add_table)
        inv_table = (None,) + tuple(row.index(1) for row in mul_table[1:])
        _verify_axioms(order, add_table, mul_table)
        built = (add_table, mul_table, neg_table, inv_table)
        if tables and tables != built:
            raise ValueError(f"tables are not those of GF({order})")
        return tuple.__new__(cls, (order,) + built)


field_of_order = functools.cache(FiniteField)


# --- vectors and matrices ----------------------------------------------------

def zero_vector(dim: int):
    return (0,) * dim


def standard_basis(dim: int):
    return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]


class LinearMap(namedtuple("LinearMap", "field rows")):
    """A square matrix over GF(q) acting on column vectors from the left;
    rows is a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, field: FiniteField, rows: tuple[tuple[int, ...], ...]):
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise ValueError("matrix must be square")
            for entry in row:
                if not 0 <= entry < field.order:
                    raise ValueError(f"entry {entry} outside the field")
        return tuple.__new__(cls, (field, rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _same_size(self, other: "LinearMap") -> None:
        if other.dim != self.dim:
            raise ValueError(f"cannot combine a {self.dim} x {self.dim} matrix "
                             f"with a {other.dim} x {other.dim} one")

    def apply(self, v):
        add, mul = self.field.add_table, self.field.mul_table
        out = []
        for row in self.rows:
            acc = 0
            for a, x in zip(row, v):
                acc = add[acc][mul[a][x]]
            out.append(acc)
        return tuple(out)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """Matrix product: self after other."""
        self._same_size(other)
        add, mul = self.field.add_table, self.field.mul_table
        n, right = self.dim, other.rows
        rows = []
        for left in self.rows:
            row = []
            for j in range(n):
                acc = 0
                for l in range(n):
                    acc = add[acc][mul[left[l]][right[l][j]]]
                row.append(acc)
            rows.append(tuple(row))
        return LinearMap(self.field, tuple(rows))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._same_size(other)
        add = self.field.add_table
        return LinearMap(self.field, tuple(
            tuple(add[a][b] for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        ))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._same_size(other)
        add, neg = self.field.add_table, self.field.neg_table
        return LinearMap(self.field, tuple(
            tuple(add[a][neg[b]] for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        ))

    def scale(self, c: int) -> "LinearMap":
        times_c = self.field.mul_table[c]
        return LinearMap(self.field, tuple(tuple(times_c[e] for e in row) for row in self.rows))


def zero_map(F: FiniteField, dim: int) -> LinearMap:
    return LinearMap(F, tuple((0,) * dim for _ in range(dim)))


def identity_map(F: FiniteField, dim: int) -> LinearMap:
    return LinearMap(
        F, tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    )


def rref(F: FiniteField, rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        times_inv = mul[F.inv_table[rows[r][c]]]
        rows[r] = [times_inv[x] for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                times_factor = mul[rows[i][c]]
                rows[i] = [add[x][neg[times_factor[y]]] for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows], pivots


def pivot_columns(F: FiniteField, vectors) -> list[int]:
    """Indices of the vectors a greedy scan in order keeps as independent:
    the pivot columns of the matrix whose columns are the vectors."""
    return rref(F, list(zip(*vectors)))[1]


def kernel_basis(F: FiniteField, rows):
    """Basis of the null space of the rows, from the RREF free columns."""
    neg = F.neg_table
    n = len(rows[0])
    reduced, pivots = rref(F, rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[reduced[r][fc]]
        basis.append(tuple(v))
    return basis


def image_basis(t: LinearMap):
    """Basis of the column space, as a greedy independent subset of the
    columns (so each basis vector is an actual image t(e_j))."""
    cols = list(zip(*t.rows))
    return [cols[c] for c in pivot_columns(t.field, cols)]


def solve(F: FiniteField, rows, rhs):
    """One solution of the linear system rows * x = rhs, or None."""
    if not rows:
        return ()
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(F, augmented)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return tuple(x)


def map_on_span(F: FiniteField, vectors, images, dim: int) -> LinearMap:
    """The map M sending each of the independent vectors to its image and
    killing each standard vector that a greedy scan after them keeps to
    complete a basis. With the basis vectors as the rows of B and their
    images as the rows of Y, B M^T = Y, so row reducing [B | Y] once
    leaves [I | M^T]."""
    candidates = list(vectors) + standard_basis(dim)
    pivots = pivot_columns(F, candidates)
    if pivots[:len(vectors)] != list(range(len(vectors))):
        raise ValueError("vectors are dependent")
    padded = list(images) + [zero_vector(dim)] * dim
    reduced, _ = rref(F, [tuple(candidates[c]) + tuple(padded[c]) for c in pivots])
    return LinearMap(F, tuple(zip(*(row[dim:] for row in reduced))))


def all_vectors(F: FiniteField, dim: int):
    total = F.order ** dim
    if total > VECTOR_CAP:
        raise ResourceCapExceeded(f"{total} vectors exceed cap {VECTOR_CAP}")
    return [tuple(v) for v in itertools.product(range(F.order), repeat=dim)]


# --- the cover instance and pipeline stages -----------------------------------

class SubspaceCoverInstance(
    namedtuple("SubspaceCoverInstance", "field dim f interpolants blocks ring_span")
):
    """A target map, interpolant maps, agreement subspaces (bases), and
    the ring span the recovered map is expressed in.

    blocks holds one basis (a tuple of vectors) per interpolant, and
    ring_span a tuple of matrices, or None for the full matrix ring.
    Construction checks shapes and the agreement of f with r_i on each
    block's basis (exact for the whole subspace, by linearity). It does
    not check that the blocks cover the space: recover checks what it
    needs, that the kernels of f - r_i, which contain the blocks, cover
    it, by exhaustive vector enumeration. recover writes u as a
    combination of the ring span, and verify rechecks u against that span.
    """

    __slots__ = ()

    def __new__(cls, field: FiniteField, dim: int, f: LinearMap, interpolants, blocks,
                ring_span=None):
        if not interpolants:
            raise ValueError("need at least one interpolant")
        if len(interpolants) != len(blocks):
            raise ValueError("one block per interpolant required")
        for mat in (f,) + interpolants:
            if mat.field != field or mat.dim != dim:
                raise ValueError("matrix shape or field mismatch")
        for r_i, block in zip(interpolants, blocks):
            for v in block:
                if len(v) != dim:
                    raise ValueError("block vector of wrong dimension")
                if f.apply(v) != r_i.apply(v):
                    raise ValueError(
                        f"target disagrees with its interpolant at block vector {v}"
                    )
        if ring_span is not None and any(M.field != field or M.dim != dim for M in ring_span):
            raise ValueError(f"ring_span matrices must be {dim} x {dim}")
        return tuple.__new__(cls, (field, dim, f, interpolants, blocks, ring_span))


def check_kernels_cover(inst: SubspaceCoverInstance) -> None:
    """Confirm that the kernels of f - r_i cover the space; the first
    vector, in all_vectors order, that no interpolant matches is reported."""
    diffs = [inst.f - r_i for r_i in inst.interpolants]
    zero = zero_vector(inst.dim)
    for v in all_vectors(inst.field, inst.dim):
        if not any(d.apply(v) == zero for d in diffs):
            raise PipelineError(
                "enlarge",
                f"vector {v} is matched by no interpolant; kernels do not cover",
                witness=v,
            )


def carried_sum(F: FiniteField, dim: int, interpolants) -> LinearMap:
    """t = sum of s_i r_i, where s_i carries the image of r_i onto fresh
    standard basis vectors, independent of the other targets, and kills a
    complement of that image; fails when the image ranks do not fit.

    When the r_i are the interpolants translated by r_0 and their kernels
    cover the space, ker(t) lies in the kernel of f - r_0: the targets are
    independent, so t v = 0 forces every s_i r_i v = 0, hence r_i v = 0,
    and v lies in some ker(f - r_0 - r_i).
    """
    image_bases = [image_basis(r_i) for r_i in interpolants]
    total = sum(len(b) for b in image_bases)
    if total > dim:
        raise PipelineError(
            "targets",
            f"interpolant image dimensions sum to {total} > {dim}; "
            "no room for independent targets",
        )
    basis_pool = standard_basis(dim)
    cursor = 0
    t = zero_map(F, dim)
    for r_i, w_basis in zip(interpolants, image_bases):
        targets = basis_pool[cursor:cursor + len(w_basis)]
        cursor += len(w_basis)
        t = t + map_on_span(F, w_basis, targets, dim).compose(r_i)
    return t


def factor_through(t: LinearMap, f: LinearMap) -> LinearMap:
    """A map u with u t = f, which exists iff ker(t) <= ker(f).

    u sends each column t(e_j) that a greedy scan keeps to the column
    f(e_j) and kills the standard vectors that complete a basis; u t = f
    is verified exactly before returning, so a kernel that f does not
    contain fails here.
    """
    F = t.field
    columns, f_columns = list(zip(*t.rows)), list(zip(*f.rows))
    pivots = pivot_columns(F, columns)
    u = map_on_span(F, [columns[c] for c in pivots], [f_columns[c] for c in pivots], t.dim)
    if u.compose(t).rows != f.rows:
        raise PipelineError("factor", "constructed factor does not satisfy u t = f")
    return u


DensityResult = namedtuple("DensityResult", "coefficients combination")


def density_interpolate(target: LinearMap, points, ring_span) -> DensityResult | None:
    """Solve for a span combination agreeing with the target on the given
    vectors. Absence of a solution is a value, not an error."""
    dim = target.dim
    span = list(ring_span)
    rows = []
    rhs = []
    for v in points:
        images = [M.apply(v) for M in span]
        rows.extend([img[i] for img in images] for i in range(dim))
        rhs.extend(target.apply(v))
    solution = solve(target.field, rows, rhs) if rows else (0,) * len(span)
    if solution is None:
        return None
    return DensityResult(tuple(solution), span_combination(target.field, dim, solution, span))


def span_combination(F: FiniteField, dim: int, coefficients, span) -> LinearMap:
    """The sum of c_k M_k over the coefficients c_k and the span matrices M_k."""
    combo = zero_map(F, dim)
    for c, M in zip(coefficients, span):
        if c:
            combo = combo + M.scale(c)
    return combo


def instance_span(inst: SubspaceCoverInstance):
    """The instance's ring span, the matrix units when it names none."""
    return matrix_unit_span(inst.field, inst.dim) if inst.ring_span is None else inst.ring_span


def matrix_unit_span(F: FiniteField, dim: int) -> list[LinearMap]:
    """The standard basis of the full matrix ring."""
    out = []
    for i in range(dim):
        for j in range(dim):
            rows = [[0] * dim for _ in range(dim)]
            rows[i][j] = 1
            out.append(LinearMap(F, tuple(tuple(r) for r in rows)))
    return out


RecoveryResult = namedtuple("RecoveryResult", "r0 t u u_coefficients recovered")


def recover(inst: SubspaceCoverInstance) -> RecoveryResult:
    """Full pipeline; the result's recovered matrix equals the instance's
    target exactly or a PipelineError identifies the failing stage. u is
    a combination of the instance's ring span."""
    r0 = inst.interpolants[0]
    check_kernels_cover(inst)
    t = carried_sum(inst.field, inst.dim, [r_i - r0 for r_i in inst.interpolants])
    u_raw = factor_through(t, inst.f - r0)
    density = density_interpolate(u_raw, image_basis(t), instance_span(inst))
    if density is None:
        raise PipelineError(
            "density", "factor map is not interpolable inside the ring span"
        )
    u = density.combination
    recovered = u.compose(t) + r0
    if recovered.rows != inst.f.rows:
        raise PipelineError("recover", "reassembled map differs from the target")
    return RecoveryResult(r0, t, u, density.coefficients, recovered)


# --- randomized instances ------------------------------------------------------

def random_instance(F: FiniteField, dim: int, rng) -> SubspaceCoverInstance:
    """A valid random instance built from a pencil of hyperplanes.

    Two independent functionals define q+1 hyperplanes that cover the
    space. The target is a random translate (by r_0) of a rank-one map
    vanishing on the first hyperplane; the other interpolants extend the
    target's restriction to their hyperplane by zero. The construction
    keeps the interpolant image ranks summing below the dimension, as the
    target-assignment stage requires.
    """
    q = F.order
    add, mul = F.add_table, F.mul_table
    if dim < max(2, q):
        raise ValueError(f"need dim >= {max(2, q)} for a covering pencil over GF({q})")

    def random_matrix():
        return LinearMap(
            F,
            tuple(
                tuple(rng.randrange(q) for _ in range(dim)) for _ in range(dim)
            ),
        )

    while True:
        phi1 = tuple(rng.randrange(q) for _ in range(dim))
        phi2 = tuple(rng.randrange(q) for _ in range(dim))
        if len(rref(F, [phi1, phi2])[1]) == 2:
            break
    # representatives of the pencil: phi1 + c*phi2 for c in F, then phi2
    functionals = [
        tuple(add[a][mul[c][b]] for a, b in zip(phi1, phi2)) for c in range(q)
    ] + [phi2]
    hyperplanes = [kernel_basis(F, [func]) for func in functionals]

    w = tuple(rng.randrange(q) for _ in range(dim))
    f_prime = LinearMap(
        F, tuple(tuple(mul[w[i]][phi1[j]] for j in range(dim)) for i in range(dim))
    )
    r0 = random_matrix()
    f = f_prime + r0

    interpolants = [r0]
    for basis in hyperplanes[1:]:
        r_prime = map_on_span(F, basis, [f_prime.apply(v) for v in basis], dim)
        interpolants.append(r_prime + r0)
    return SubspaceCoverInstance(
        F, dim, f, tuple(interpolants), tuple(tuple(b) for b in hyperplanes)
    )


# --- JSON interchange ------------------------------------------------------------

def matrix_to_json(mat: LinearMap) -> list:
    return [list(row) for row in mat.rows]


def matrix_from_json(F: FiniteField, data) -> LinearMap:
    if not isinstance(data, list):
        raise ValueError(f"matrix must be a list of rows, got {type(data).__name__}")
    return LinearMap(F, tuple(table_from_json(row, "matrix row") for row in data))


def instance_to_json(inst: SubspaceCoverInstance) -> dict:
    data = {
        "field": inst.field.order,
        "dim": inst.dim,
        "f": matrix_to_json(inst.f),
        "interpolants": [matrix_to_json(r) for r in inst.interpolants],
        "blocks": [[list(v) for v in block] for block in inst.blocks],
    }
    if inst.ring_span is not None:
        data["ring_span"] = [matrix_to_json(M) for M in inst.ring_span]
    return data


def instance_from_json(data: dict) -> SubspaceCoverInstance:
    F = field_of_order(int_from_json(data["field"], "field"))
    dim = int_from_json(data["dim"], "dim")
    f = matrix_from_json(F, data["f"])
    interpolants = tuple(matrix_from_json(F, r) for r in data["interpolants"])
    blocks = tuple(
        tuple(table_from_json(v, "block vector") for v in block) for block in data["blocks"]
    )
    span = (tuple(matrix_from_json(F, M) for M in data["ring_span"])
            if "ring_span" in data else None)
    return SubspaceCoverInstance(F, dim, f, interpolants, blocks, span)


def module_recovery_to_json(inst: SubspaceCoverInstance, result: RecoveryResult) -> dict:
    return {
        "field": inst.field.order,
        "dim": inst.dim,
        "r0": matrix_to_json(result.r0),
        "t": matrix_to_json(result.t),
        "u": matrix_to_json(result.u),
        "u_coefficients": list(result.u_coefficients),
        "recovered": matrix_to_json(result.recovered),
    }


def module_recovery_from_json(data: dict, inst: SubspaceCoverInstance):
    """(field order, dim, r0, t, u, recovered, u_coefficients) of a payload,
    its matrices read over the instance's field and required to have its
    size, and its coefficients elements of that field."""
    r0, t, u, recovered = matrices = tuple(
        matrix_from_json(inst.field, data[key]) for key in ("r0", "t", "u", "recovered")
    )
    if any(M.dim != inst.dim for M in matrices):
        raise ValueError(f"r0, t, u and recovered must be {inst.dim} x {inst.dim}")
    order = int_from_json(data.get("field", -1), "field")
    dim = int_from_json(data.get("dim", -1), "dim")
    coefficients = table_from_json(data["u_coefficients"], "u_coefficients")
    if not all(0 <= c < inst.field.order for c in coefficients):
        raise ValueError(f"u_coefficients must be elements of GF({inst.field.order})")
    return order, dim, r0, t, u, recovered, coefficients


def recheck_module_recovery(decoded, inst: SubspaceCoverInstance) -> str | None:
    """Why the payload does not recover the target as u t + r0, with u the
    certified combination of the ring span, or None."""
    order, dim, r0, t, u, recovered, coefficients = decoded
    if order != inst.field.order or dim != inst.dim:
        return "payload shape does not match the instance"
    if r0.rows != inst.interpolants[0].rows:
        return "certified r0 differs from the instance"
    if (u.compose(t) + r0).rows != recovered.rows:
        return "u t + r0 does not reassemble the certified map"
    if recovered.rows != inst.f.rows:
        return "recovered map differs from the target"
    span = instance_span(inst)
    if len(coefficients) != len(span) or span_combination(
        inst.field, inst.dim, coefficients, span
    ).rows != u.rows:
        return "u is not the certified combination of the ring span"
    return None
