"""Finite universes, operation tables, relations, and preservation checks.

Everything downstream works over an explicit finite universe {0, ..., m-1}.
An operation of arity n is a flat lookup table of length m**n in
lexicographic argument order with the last argument varying fastest; this
indexing is load-bearing because certificates serialize table indices.
Relations are explicit tuple sets.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

OPERATION_CAP = 1 << 20
RELATION_CAP = 1 << 16
MATRIX_CAP = 1 << 20


class ResourceCapExceeded(Exception):
    """An enumeration would exceed its configured cap.

    Deliberately distinct from ValueError: a capped run is inconclusive
    and must never be mistaken for a mathematical verdict.
    """


class Universe(namedtuple("Universe", "size labels", defaults=(None,))):
    """A finite base set {0, ..., size-1} with optional display labels
    (a tuple of distinct strings, or None)."""

    __slots__ = ()

    def __new__(cls, size: int, labels: tuple[str, ...] | None = None):
        if size < 1:
            raise ValueError(f"universe size must be >= 1, got {size}")
        if labels is not None:
            if len(labels) != size:
                raise ValueError("labels must match universe size")
            if len(set(labels)) != size:
                raise ValueError("labels must be pairwise distinct")
        return tuple.__new__(cls, (size, labels))

    def elements(self) -> range:
        return range(self.size)

    def tuples(self, arity: int):
        """All arity-tuples over the universe, in lexicographic order."""
        return itertools.product(self.elements(), repeat=arity)


class Operation(namedtuple("Operation", "universe arity table")):
    """A total function universe**arity -> universe stored as a flat table
    (a tuple of ints).

    Nullary operations are excluded; model constants as arity-1 constant
    tables.
    """

    __slots__ = ()

    def __new__(cls, universe: Universe, arity: int, table: tuple[int, ...]):
        if arity < 1:
            raise ValueError(f"operation arity must be >= 1, got {arity}")
        expected = universe.size ** arity
        if len(table) != expected:
            raise ValueError(f"table length {len(table)} != {universe.size}^{arity}")
        for entry in table:
            if not 0 <= entry < universe.size:
                raise ValueError(f"table entry {entry} outside universe")
        return tuple.__new__(cls, (universe, arity, table))

    def index_of(self, args: tuple[int, ...]) -> int:
        """Lexicographic index of an argument tuple (last coordinate fastest)."""
        idx = 0
        for a in args:
            idx = idx * self.universe.size + a
        return idx

    def __call__(self, *args: int) -> int:
        return apply(self, args)


class Relation(namedtuple("Relation", "universe arity tuples")):
    """A finitary relation: a frozenset of arity-tuples over the universe."""

    __slots__ = ()

    def __new__(cls, universe: Universe, arity: int, tuples: frozenset[tuple[int, ...]]):
        if arity < 1:
            raise ValueError(f"relation arity must be >= 1, got {arity}")
        for tup in tuples:
            if len(tup) != arity:
                raise ValueError(f"tuple {tup} has wrong length for arity {arity}")
            for entry in tup:
                if not 0 <= entry < universe.size:
                    raise ValueError(f"tuple entry {entry} outside universe")
        return tuple.__new__(cls, (universe, arity, tuples))

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)


class PreservationWitness(namedtuple("PreservationWitness", "rows image")):
    """A failed preservation check: rows are relation tuples (one per
    operation argument), image is their row-wise application and lies
    outside the relation."""

    __slots__ = ()


def apply(op: Operation, args: tuple[int, ...]) -> int:
    """Evaluate an operation table at an argument tuple."""
    if len(args) != op.arity:
        raise ValueError(f"expected {op.arity} arguments, got {len(args)}")
    for a in args:
        if not 0 <= a < op.universe.size:
            raise ValueError(f"argument {a} outside universe")
    return op.table[op.index_of(args)]


def operation_from_callable(universe: Universe, arity: int, fn) -> Operation:
    """Tabulate a Python callable into an Operation."""
    table = tuple(fn(*args) for args in universe.tuples(arity))
    return Operation(universe, arity, table)


def projection(universe: Universe, arity: int, index: int) -> Operation:
    """The projection of the given arity onto coordinate `index` (0-based):
    at table position x, the coordinate is base-m digit arity-1-index of x."""
    if not 0 <= index < arity:
        raise ValueError(f"projection index {index} out of range for arity {arity}")
    m = universe.size
    step = m ** (arity - 1 - index)
    return Operation(universe, arity, tuple((x // step) % m for x in range(m ** arity)))


def constant_op(universe: Universe, arity: int, value: int) -> Operation:
    if not 0 <= value < universe.size:
        raise ValueError(f"constant {value} outside universe")
    return Operation(universe, arity, (value,) * universe.size ** arity)


def superpose(outer: Operation, inners: list[Operation]) -> Operation:
    """Compose outer(inner_1(x), ..., inner_n(x)) into a single table.

    All inner operations must share one universe and one arity; the result
    has that common arity.
    """
    if len(inners) != outer.arity:
        raise ValueError(f"outer arity {outer.arity} needs {outer.arity} inner operations")
    if not inners:
        raise ValueError("superposition needs at least one inner operation")
    k = inners[0].arity
    for inner in inners:
        if inner.universe != outer.universe:
            raise ValueError("universe mismatch in superposition")
        if inner.arity != k:
            raise ValueError("inner operations must share one arity")
    m = outer.universe.size
    offsets = (0,) * m ** k
    for inner in inners[:-1]:
        offsets = tuple(o * m + v for o, v in zip(offsets, inner.table))
    lookup = offset_lookup(outer.table, offsets, m)
    table = tuple(map(lookup.__getitem__, tag_points(inners[-1].table, m)))
    return Operation(outer.universe, k, table)


# --- composition ------------------------------------------------------------
#
# Applying an n-ary table pointwise to vectors v_0..v_{n-1} evaluates, at
# each point x, the table at the argument tuple v_0[x] v_1[x] ...
# v_{n-1}[x]. Closure (the vectors are member tables) and preservation (the
# vectors are relation tuples, the points are the relation's coordinates)
# both compose this way, through one of two kernels picked by the universe
# size. Either fixes the first n-1 vectors, in itertools.product order,
# sharing each prefix of choices, and then composes with every last vector.
#
# On two elements a vector is a bitmask, bit x its value at point x, and
# the kernel is a multiplexer fold (mask_folds). An a-ary table starts as
# 2**a masks, all points where its entry is 1 and none where it is 0.
# Choosing a vector t halves them: the two entries that differ only in that
# argument merge into x ^ ((x ^ y) & t), which is y where t is 1 and x
# where it is 0. After a-1 choices two masks q0 and q1 remain, and the
# composite with a last vector b is q0 ^ ((q0 ^ q1) & b).
#
# On three or more elements the digits of the first n-1 vectors fold into
# one base-m offset per point (prefix_folds); offset_lookup turns the
# offsets into one flat table, which the last vector indexes through its
# tagged points.
#
# A commutative binary table composes each unordered pair once: the pair
# (i, j) with j < i repeats the composite of (j, i), which came earlier in
# product order, so both kernels' callers start the last vector at i.

def commutes(op: Operation) -> bool:
    """True iff op is binary and op(a, b) = op(b, a) for all a, b."""
    if op.arity != 2:
        return False
    m = op.universe.size
    return m == 1 or op.table == _transpose(m)(op.table)


@functools.cache
def _transpose(m: int):
    """Reads a binary table on m >= 2 elements as its transpose's table."""
    return operator.itemgetter(*(b * m + a for a in range(m) for b in range(m)))


def mask_folds(table, masks, full: int):
    """Yield (indices, q0, q1) for every (a-1)-tuple of indices into masks,
    a the arity of the two-element table, in itertools.product order.

    q0 and q1 are the masks where the table gives 1 once the chosen masks
    fill its first a-1 arguments and the last one is 0 or 1; full is the
    mask of all points. Each distinct prefix of choices is folded once.
    """
    start = [full if v else 0 for v in table]
    if len(start) == 2:
        return iter([((), start[0], start[1])])
    return _mux_walk(masks, (), start)


def _mux_walk(masks, indices, table):
    half = len(table) // 2
    pairs = [(x, x ^ y) for x, y in zip(table[:half], table[half:])]
    if half == 2:
        (x0, d0), (x1, d1) = pairs
        for i, t in enumerate(masks):
            yield indices + (i,), x0 ^ (d0 & t), x1 ^ (d1 & t)
        return
    for i, t in enumerate(masks):
        yield from _mux_walk(masks, indices + (i,), [x ^ (d & t) for x, d in pairs])


def tag_points(vector, m: int) -> tuple[int, ...]:
    """x*m + vector[x] for each point x: where vector's entries sit in an
    offset_lookup table."""
    return tuple(x * m + v for x, v in enumerate(vector))


def offset_lookup(outer_table, offsets, m: int) -> list[int]:
    """Entry x*m + v is outer_table[offsets[x]*m + v]: outer's value at
    point x once the earlier arguments, folded into offsets, are fixed and
    the last argument is v. Composing with a last vector w is then
    tuple(map(lookup.__getitem__, tag_points(w, m)))."""
    return [outer_table[o * m + v] for o in offsets for v in range(m)]


def prefix_folds(vectors, depth: int, m: int, start):
    """Yield (indices, offsets) for every depth-tuple of indices into
    vectors, in itertools.product order.

    offsets is the pointwise base-m number the chosen vectors spell, the
    first choice most significant, or start when depth is 0. Each distinct
    prefix of choices is folded once.
    """
    if depth == 0:
        yield (), start
        return
    yield from _fold_walk(vectors, depth, m, (), None)


def _fold_walk(vectors, depth, m, indices, partial):
    for i, vector in enumerate(vectors):
        fold = vector if partial is None else tuple(p * m + v for p, v in zip(partial, vector))
        if depth == 1:
            yield indices + (i,), fold
        else:
            yield from _fold_walk(vectors, depth - 1, m, indices + (i,), fold)


def point_mask(point) -> int:
    """The bitmask of a two-element vector: bit x is point[x]."""
    return sum(v << x for x, v in enumerate(point))


@functools.lru_cache(maxsize=16)
def _relation_rows(rel: Relation):
    """The sorted tuples of rel; the same tuples as the preservation scan
    composes them, bitmasks on two elements and tagged points otherwise;
    and the set of the relation's tuples in that form."""
    tuples = tuple(rel.sorted_tuples())
    if rel.universe.size == 2:
        rows = tuple(map(point_mask, tuples))
        return tuples, rows, frozenset(rows)
    return tuples, tuple(tag_points(t, rel.universe.size) for t in tuples), rel.tuples


def _capped(prefixes, arity: int, nrows: int):
    """The prefixes of the matrix scan cut to its first MATRIX_CAP
    matrices, and the ResourceCapExceeded to raise if none of those fails,
    or None when nothing was cut."""
    cap, count = MATRIX_CAP, nrows ** arity
    if count <= cap:
        return prefixes, None
    # Each prefix covers nrows matrices, one per last row.
    return itertools.islice(prefixes, cap // nrows), ResourceCapExceeded(
        f"matrix cap {cap} reached: scanned {cap // nrows * nrows} of the "
        f"{count} matrices of {arity} rows from a relation of {nrows} tuples, "
        f"none failing"
    )


def mask_matrix_failure(op: Operation, width: int, masks, members):
    """The preservation scan on two elements, for a relation of the given
    arity whose sorted tuples are masks (see point_mask) and whose tuple
    set is members: the row indices and the image mask of the first
    failing matrix in itertools.product order, or None."""
    skip = commutes(op)
    folds = mask_folds(op.table, masks, (1 << width) - 1)
    folds, capped = _capped(folds, op.arity, len(masks))
    for indices, q0, q1 in folds:
        d = q0 ^ q1
        for i in range(indices[0] if skip else 0, len(masks)):
            image = q0 ^ (d & masks[i])
            if image not in members:
                return indices + (i,), image
    if capped:
        raise capped
    return None


def _tuple_matrix_failure(op: Operation, width: int, tuples, tagged, members):
    """mask_matrix_failure on universes of any other size, the rows given
    both as tuples and as tagged points."""
    m, skip = op.universe.size, commutes(op)
    folds = prefix_folds(tuples, op.arity - 1, m, (0,) * width)
    folds, capped = _capped(folds, op.arity, len(tuples))
    for indices, offsets in folds:
        lookup = offset_lookup(op.table, offsets, m).__getitem__
        for i in range(indices[0] if skip else 0, len(tagged)):
            image = tuple(map(lookup, tagged[i]))
            if image not in members:
                return indices + (i,), image
    if capped:
        raise capped
    return None


def _find_preservation_violation(op: Operation, rel: Relation) -> PreservationWitness | None:
    if op.universe != rel.universe:
        raise ValueError("operation and relation live on different universes")
    tuples, rows, members = _relation_rows(rel)
    # Rows are visited in itertools.product order, so the first witness
    # found is the lexicographically least failing matrix.
    if op.universe.size == 2:
        found = mask_matrix_failure(op, rel.arity, rows, members)
    else:
        found = _tuple_matrix_failure(op, rel.arity, tuples, rows, members)
    if found is None:
        return None
    indices, image = found
    if op.universe.size == 2:
        image = tuple(image >> x & 1 for x in range(rel.arity))
    return PreservationWitness(rows=tuple(tuples[k] for k in indices), image=image)


def preserves(op: Operation, rel: Relation) -> bool:
    """True iff every row-wise application of op to relation tuples lands
    back in the relation. Past MATRIX_CAP matrices with none failing, the
    scan stops with ResourceCapExceeded."""
    return _find_preservation_violation(op, rel) is None


def preservation_witness(op: Operation, rel: Relation) -> PreservationWitness | None:
    """The first violating tuple matrix in deterministic order, or None."""
    return _find_preservation_violation(op, rel)


def rho3(universe: Universe) -> Relation:
    """Ternary relation {(a,b,c) : a=b or b=c}; preserving it is equivalent
    to depending on at most one variable."""
    tuples = frozenset(
        (a, b, c)
        for a, b, c in universe.tuples(3)
        if a == b or b == c
    )
    return Relation(universe, 3, tuples)


def pi4(universe: Universe) -> Relation:
    """4-ary relation {(a,b,c,d) : a=b or c=d}."""
    tuples = frozenset(
        (a, b, c, d)
        for a, b, c, d in universe.tuples(4)
        if a == b or c == d
    )
    return Relation(universe, 4, tuples)


def neq(universe: Universe) -> Relation:
    """Binary inequality relation."""
    tuples = frozenset((a, b) for a, b in universe.tuples(2) if a != b)
    return Relation(universe, 2, tuples)


def graph(op: Operation) -> Relation:
    """Graph of a unary or binary operation as an (arity+1)-ary relation."""
    if op.arity > 2:
        raise ValueError("graph builder supports arity <= 2 only")
    tuples = frozenset(
        args + (op.table[op.index_of(args)],)
        for args in op.universe.tuples(op.arity)
    )
    return Relation(op.universe, op.arity + 1, tuples)


def is_near_unanimity(op: Operation) -> bool:
    """Check the near-unanimity identities h(a,..,b,..,a) = a over all
    positions for b and all pairs a, b."""
    if op.arity < 3:
        raise ValueError("near-unanimity requires arity >= 3")
    m = op.universe.size
    for i in range(op.arity):
        for a in range(m):
            for b in range(m):
                args = [a] * op.arity
                args[i] = b
                if op.table[op.index_of(tuple(args))] != a:
                    return False
    return True


def is_conservative(op: Operation) -> bool:
    """Every output value occurs among the inputs."""
    for args in op.universe.tuples(op.arity):
        if op.table[op.index_of(args)] not in args:
            return False
    return True


def depends_on(op: Operation, i: int) -> bool:
    """True iff some pair of inputs differing only at coordinate i gives
    different outputs."""
    if not 0 <= i < op.arity:
        raise ValueError(f"coordinate {i} out of range")
    m = op.universe.size
    for args in op.universe.tuples(op.arity):
        base = op.table[op.index_of(args)]
        for v in range(m):
            if v == args[i]:
                continue
            changed = args[:i] + (v,) + args[i + 1:]
            if op.table[op.index_of(changed)] != base:
                return True
    return False


def is_essentially_unary_direct(op: Operation) -> bool:
    """At most one coordinate is essential, decided by direct table scan."""
    essential = sum(1 for i in range(op.arity) if depends_on(op, i))
    return essential <= 1


def all_operations(universe: Universe, arity: int):
    """Yield every operation of the given arity, in table-lexicographic
    order. Raises ResourceCapExceeded when there are more than
    OPERATION_CAP."""
    m = universe.size
    count = m ** (m ** arity)
    if count > OPERATION_CAP:
        raise ResourceCapExceeded(
            f"{count} operations of arity {arity} on {m} elements exceeds cap {OPERATION_CAP}"
        )
    for table in itertools.product(range(m), repeat=m ** arity):
        yield Operation(universe, arity, table)


def relation_points(universe: Universe, arity: int) -> list[tuple[int, ...]]:
    """The arity-tuples over the universe in lexicographic order: relation
    number bits holds point i iff bit i of bits is set. Raises
    ResourceCapExceeded when there are more than RELATION_CAP relations."""
    points = list(universe.tuples(arity))
    if 1 << len(points) > RELATION_CAP:
        raise ResourceCapExceeded(
            f"2^{len(points)} relations of arity {arity} exceeds cap {RELATION_CAP}"
        )
    return points


def all_relations(universe: Universe, arity: int):
    """Yield every relation of the given arity (including the empty one),
    in deterministic order, up to RELATION_CAP of them."""
    points = relation_points(universe, arity)
    for bits in range(1 << len(points)):
        tuples = frozenset(p for i, p in enumerate(points) if bits >> i & 1)
        yield Relation(universe, arity, tuples)


# --- JSON interchange -----------------------------------------------------
#
# universe  {"size": m, "labels": [...]?}
# operation {"arity": n, "table": [int]}         (universe inferable)
# relation  {"arity": r, "tuples": [[int]], "universe": {...}}

def universe_to_json(universe: Universe) -> dict:
    out: dict = {"size": universe.size}
    if universe.labels is not None:
        out["labels"] = list(universe.labels)
    return out


def universe_from_json(data) -> Universe:
    data = object_from_json(data, "universe")
    labels = data.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("universe labels must be a list of strings")
    labels = tuple(labels) if "labels" in data else None
    return Universe(int_from_json(data["size"], "universe size"), labels)


def operation_to_json(op: Operation) -> dict:
    return {"arity": op.arity, "table": list(op.table)}


def _infer_size(table_len: int, arity: int) -> int:
    if arity < 1:
        raise ValueError(f"operation arity must be >= 1, got {arity}")
    m = round(table_len ** (1.0 / arity))
    for candidate in (m - 1, m, m + 1):
        if candidate >= 1 and candidate ** arity == table_len:
            return candidate
    raise ValueError(f"table length {table_len} is not a perfect {arity}-th power")


def int_from_json(value, what: str) -> int:
    """A JSON integer. Floats, booleans and strings are rejected rather
    than coerced, since int() would truncate 2.7 and read true as 1."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def int_from_json_key(key: str, what: str) -> int:
    """A nonnegative integer spelled as a JSON object key: plain ASCII
    digits only, since int() also accepts " 1", "+1" and "1_0"."""
    if not (key.isascii() and key.isdigit()):
        raise ValueError(f"{what} {key!r} is not a decimal index")
    return int(key)


def table_from_json(entries, what: str = "table") -> tuple[int, ...]:
    """A JSON list of integers, such as an operation table, checked as
    int_from_json checks one value."""
    if not isinstance(entries, list):
        raise ValueError(f"{what} must be a list of integers, got {type(entries).__name__}")
    for x in entries:
        if type(x) is not int:
            raise ValueError(f"{what} entry {x!r} is not an integer")
    return tuple(entries)


def object_from_json(value, what: str) -> dict:
    """value if it is a JSON object, else a ValueError naming what."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def operation_from_json(data: dict, universe: Universe | None = None) -> Operation:
    arity = int_from_json(data["arity"], "arity")
    table = table_from_json(data["table"])
    if universe is None:
        if "universe" in data:
            universe = universe_from_json(data["universe"])
        else:
            universe = Universe(_infer_size(len(table), arity))
    return Operation(universe, arity, table)


def relation_to_json(rel: Relation) -> dict:
    return {"arity": rel.arity, "tuples": [list(t) for t in rel.sorted_tuples()]}


def relation_from_json(data: dict, universe: Universe | None = None) -> Relation:
    arity = int_from_json(data["arity"], "arity")
    tuples = frozenset(table_from_json(t, "relation tuple") for t in data["tuples"])
    if universe is None:
        universe = universe_from_json(data["universe"])
    return Relation(universe, arity, tuples)


def witness_to_json(witness: PreservationWitness) -> dict:
    return {"rows": [list(r) for r in witness.rows], "image": list(witness.image)}


def preservation_witness_to_json(
    op: Operation, rel: Relation, witness: PreservationWitness
) -> dict:
    return {
        "operation": operation_to_json(op),
        "relation": relation_to_json(rel),
        **witness_to_json(witness),
    }


def preservation_witness_from_json(data: dict, op: Operation):
    """(operation, relation, rows, image) of a payload, read over op's universe."""
    rel = relation_from_json(object_from_json(data["relation"], "relation"), op.universe)
    rows = tuple(table_from_json(r, "witness row") for r in data["rows"])
    image = table_from_json(data["image"], "witness image")
    cert_op = operation_from_json(object_from_json(data["operation"], "operation"), op.universe)
    return cert_op, rel, rows, image


def recheck_preservation_witness(decoded, op: Operation) -> str | None:
    """Why the payload does not show op failing to preserve its relation."""
    cert_op, rel, rows, image = decoded
    if cert_op.table != op.table or len(rows) != op.arity:
        return "payload operation does not match the input"
    if any(r not in rel.tuples for r in rows):
        return "witness rows are not relation tuples"
    computed = tuple(
        op.table[op.index_of(tuple(row[j] for row in rows))] for j in range(rel.arity)
    )
    if computed != image:
        return "witness image is not the row-wise application"
    if image in rel.tuples:
        return "witness image lies in the relation"
    return None


# --- subfamilies of cover blocks ----------------------------------------------

def subfamilies(nblocks: int, max_size: int):
    """Every set of at most max_size of the blocks range(nblocks), as a
    frozenset, by size and then lexicographically."""
    for size in range(min(max_size, nblocks) + 1):
        yield from map(frozenset, itertools.combinations(range(nblocks), size))


def subfamily_count(nblocks: int, max_size: int, limit: int) -> int:
    """The number of subfamilies(nblocks, max_size), counted without
    listing them. The running total of binomials stops once it passes
    limit, so a large max_size costs a few terms."""
    count = 0
    for size in range(min(max_size, nblocks) + 1):
        count += math.comb(nblocks, size)
        if count > limit:
            break
    return count


def is_subfamily_key_set(keys, nblocks: int, max_size: int) -> bool:
    """True iff the distinct keys (a dict's, say) are exactly the
    subfamilies(nblocks, max_size), decided without listing them.

    Distinct keys that are each a subfamily are all of them iff there are
    as many.
    """
    if subfamily_count(nblocks, max_size, len(keys)) != len(keys):
        return False
    return all(
        isinstance(key, frozenset)
        and len(key) <= max_size
        and all(isinstance(b, int) and 0 <= b < nblocks for b in key)
        for key in keys
    )


# Certificates key a subfamily by its comma-joined sorted indices.

def subset_key(indices) -> str:
    return ",".join(str(i) for i in sorted(indices))


def parse_subset_key(key: str) -> frozenset[int]:
    if not key:
        return frozenset()
    return frozenset(int_from_json_key(part, "subfamily index") for part in key.split(","))
