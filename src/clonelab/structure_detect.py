"""Structural decision procedures: product-operation detection, module
compatibility, and principal-ideal clone membership.

All detectors are pure functions over immutable inputs.
"""

from __future__ import annotations

from collections import namedtuple

from .finite_core import (
    Operation,
    Relation,
    Universe,
    graph,
    int_from_json,
    operation_from_callable,
    operation_from_json,
    preservation_witness,
    preserves,
    table_from_json,
    universe_from_json,
)


# --- product universes ------------------------------------------------------

class ProductUniverse(namedtuple("ProductUniverse", "left right")):
    """A universe presented as a product, with the row-major pairing
    a*|right| + b fixed once and referenced by every product certificate."""

    __slots__ = ()

    @property
    def paired(self) -> Universe:
        return Universe(self.left.size * self.right.size)

    def pair(self, a: int, b: int) -> int:
        return a * self.right.size + b

    def unpair(self, u: int) -> tuple[int, int]:
        return divmod(u, self.right.size)


def star_operation(pu: ProductUniverse) -> Operation:
    """The rectangular band operation: (a1,b1) * (a2,b2) = (a1,b2)."""
    def star(u, v):
        a, _ = pu.unpair(u)
        _, b = pu.unpair(v)
        return pu.pair(a, b)

    return operation_from_callable(pu.paired, 2, star)


def gamma_star(pu: ProductUniverse) -> Relation:
    return graph(star_operation(pu))


def product_operation(pu: ProductUniverse, g: Operation, h: Operation) -> Operation:
    """Coordinatewise action of g on the left factor and h on the right."""
    if g.universe != pu.left or h.universe != pu.right:
        raise ValueError("factor operations must live on the product's factors")
    if g.arity != h.arity:
        raise ValueError("factor operations must share one arity")

    def combined(*args):
        pairs = [pu.unpair(u) for u in args]
        a = g.table[g.index_of(tuple(p[0] for p in pairs))]
        b = h.table[h.index_of(tuple(p[1] for p in pairs))]
        return pu.pair(a, b)

    return operation_from_callable(pu.paired, g.arity, combined)


class DecompositionResult(namedtuple("DecompositionResult", "factor_left factor_right witness")):
    """The two factor operations, or None, None and the PreservationWitness
    that f fails to preserve the band operation's graph."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.factor_left is not None


def decompose_product(pu: ProductUniverse, f: Operation) -> DecompositionResult:
    """Try to split f into factor operations.

    The left factor is read off by freezing the right coordinates to the
    first element of the right factor (and symmetrically); the candidate
    product is then compared against f on the whole table rather than
    trusting well-definedness. On failure the witness is the first
    violation of the rectangular band operation's graph.
    """
    if f.universe != pu.paired:
        raise ValueError("operation does not live on the paired universe")
    n = f.arity

    def left_part(*avec):
        u = tuple(pu.pair(a, 0) for a in avec)
        return pu.unpair(f.table[f.index_of(u)])[0]

    def right_part(*bvec):
        u = tuple(pu.pair(0, b) for b in bvec)
        return pu.unpair(f.table[f.index_of(u)])[1]

    f_a = operation_from_callable(pu.left, n, left_part)
    f_b = operation_from_callable(pu.right, n, right_part)
    if product_operation(pu, f_a, f_b).table == f.table:
        return DecompositionResult(f_a, f_b, None)
    return DecompositionResult(None, None, preservation_witness(f, gamma_star(pu)))


def product_decomp_to_json(pu: ProductUniverse, split: DecompositionResult) -> dict:
    return {
        "left_size": pu.left.size,
        "right_size": pu.right.size,
        "arity": split.factor_left.arity,
        "factor_left": list(split.factor_left.table),
        "factor_right": list(split.factor_right.table),
    }


def product_decomp_from_json(data: dict) -> tuple[ProductUniverse, Operation, Operation]:
    pu = ProductUniverse(
        Universe(int_from_json(data["left_size"], "left_size")),
        Universe(int_from_json(data["right_size"], "right_size")),
    )
    arity = int_from_json(data["arity"], "arity")
    f_a = Operation(pu.left, arity, table_from_json(data["factor_left"]))
    return pu, f_a, Operation(pu.right, arity, table_from_json(data["factor_right"]))


def recheck_product_decomp(decoded, op: Operation) -> str | None:
    """Why the factors do not recompose to op, or None if they do."""
    pu, f_a, f_b = decoded
    if op.arity != f_a.arity or op.universe.size != pu.paired.size:
        return "payload shapes do not match the operation"
    if product_operation(pu, f_a, f_b).table != op.table:
        return "factors do not recompose to the operation"
    return None


# --- module compatibility ----------------------------------------------------

class AbelianGroup(namedtuple("AbelianGroup", "universe add neg zero")):
    """An abelian group presented by tables; validated on construction."""

    __slots__ = ()

    def __new__(cls, universe: Universe, add: Operation, neg: Operation, zero: int):
        m = universe.size
        if add.universe != universe or add.arity != 2:
            raise ValueError("addition must be a binary operation on the universe")
        if neg.universe != universe or neg.arity != 1:
            raise ValueError("negation must be unary on the universe")
        if not 0 <= zero < m:
            raise ValueError("zero element outside universe")
        plus = lambda a, b: add.table[add.index_of((a, b))]
        for a in range(m):
            if plus(a, zero) != a:
                raise ValueError("zero is not a neutral element")
            if plus(a, neg.table[a]) != zero:
                raise ValueError("negation is not an inverse")
            for b in range(m):
                if plus(a, b) != plus(b, a):
                    raise ValueError("addition is not commutative")
                for c in range(m):
                    if plus(plus(a, b), c) != plus(a, plus(b, c)):
                        raise ValueError("addition is not associative")
        return tuple.__new__(cls, (universe, add, neg, zero))


def group_from_json(data: dict) -> AbelianGroup:
    """A group file: {"universe": {...}, "add": op, "neg": op, "zero": int}."""
    universe = universe_from_json(data["universe"])
    return AbelianGroup(
        universe,
        operation_from_json(data["add"], universe),
        operation_from_json(data["neg"], universe),
        int_from_json(data["zero"], "zero"),
    )


def gamma_plus(group: AbelianGroup) -> Relation:
    """Graph of the group addition, {(a, b, a+b)}."""
    return graph(group.add)


def module_compatible(f: Operation, group: AbelianGroup) -> bool:
    """Whether f is a term operation candidate of a module over the given
    abelian group: preservation of the addition graph."""
    if f.universe != group.universe:
        raise ValueError("operation and group universes differ")
    return preserves(f, gamma_plus(group))


# --- principal-ideal clones ---------------------------------------------------

def goldstern_shelah_member(f: Operation, a: int) -> bool:
    """Membership in the clone attached to the principal maximal ideal of
    sets avoiding the point a: every diagonal image f(S,...,S) of a set S
    avoiding a must again avoid a. The sets S^n together make up
    (A - {a})^n, so this is preservation of the unary relation A - {a}."""
    universe = f.universe
    if not 0 <= a < universe.size:
        raise ValueError("ideal point outside universe")
    others = frozenset((x,) for x in universe.elements() if x != a)
    return preserves(f, Relation(universe, 1, others))
