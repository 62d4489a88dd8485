"""Constructive interpolation along a cover through a near-unanimity term.

Given base interpolants for every subfamily of at most d-1 cover blocks,
induction over subfamily size builds interpolants for arbitrarily large
subfamilies: for a subfamily B of size m >= d, drop one block at a time to
get m child subfamilies, and feed the first d child interpolants into the
near-unanimity operation. At any point of the union of B at most one child
interpolant disagrees with the target, so the near-unanimity identities
force agreement. The full-cover interpolant therefore equals the target
everywhere.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .clone_engine import CloneFragment
from .finite_core import (
    Operation, ResourceCapExceeded, is_near_unanimity, object_from_json, operation_from_json,
    parse_subset_key, subfamilies, superpose, table_from_json, universe_from_json,
)
from .ultralocal import Cover, cover_from_json, first_disagreement, ultra_closure_fragment

TREE_CAP = 1 << 18


class InterpolantNode(namedtuple("InterpolantNode", "blocks base children", defaults=((),))):
    """Node of the interpolant construction tree: either a supplied base
    interpolant or a near-unanimity composition of child nodes."""

    __slots__ = ()

    def to_json(self) -> dict:
        if self.base:
            return {"blocks": list(self.blocks), "base": True}
        return {
            "blocks": list(self.blocks),
            "op": "h",
            "children": [c.to_json() for c in self.children],
        }

    @classmethod
    def from_json(cls, data) -> "InterpolantNode":
        """Types only; recheck_bp_tree checks the structure."""
        data = object_from_json(data, "tree node")
        blocks = table_from_json(data.get("blocks", []), "tree node blocks")
        if data.get("base"):
            return cls(blocks, True)
        return cls(blocks, False, tuple(map(cls.from_json, data.get("children", []))))


class BPInstance(namedtuple("BPInstance", "f h cover base_interpolants")):
    """A target f, a near-unanimity operation h, a cover of f's domain and
    base_interpolants: a dict from each subfamily of at most h.arity - 1
    block indices (a frozenset) to an operation agreeing with f on it."""

    __slots__ = ()

    def __new__(cls, f: Operation, h: Operation, cover: Cover, base_interpolants):
        if h.universe != f.universe:
            raise ValueError("target and near-unanimity operation universes differ")
        if not is_near_unanimity(h):
            raise ValueError("h does not satisfy the near-unanimity identities")
        if cover.universe != f.universe or cover.domain_arity != f.arity:
            raise ValueError("cover does not match the target's domain")
        for key in subfamilies(len(cover.blocks), h.arity - 1):
            if key not in base_interpolants:
                raise ValueError(f"missing base interpolant for blocks {sorted(key)}")
        for key in base_interpolants:
            if any(not 0 <= b < len(cover.blocks) for b in key):
                raise ValueError(
                    f"base interpolant for blocks {sorted(key)} names a block outside the cover"
                )
        if any(t.universe != f.universe or t.arity != f.arity for t in base_interpolants.values()):
            raise ValueError("base interpolant shape mismatch")
        wrong = first_disagreement(f, cover, base_interpolants)
        if wrong is not None:
            key, index = wrong
            point = next(itertools.islice(f.universe.tuples(f.arity), index, None))
            raise ValueError(f"base interpolant for blocks {sorted(key)} disagrees at {point}")
        return tuple.__new__(cls, (f, h, cover, base_interpolants))


BPResult = namedtuple("BPResult", "operation tree")


def bp_interpolate(inst: BPInstance) -> BPResult:
    """Build the full-cover interpolant top-down from the full block set,
    memoizing one interpolant per subfamily the tree reaches.

    The tree has T(n) nodes for n blocks, where T(k) = 1 for k < d and
    1 + d*T(k-1) otherwise, and past TREE_CAP nodes nothing is built.
    Only the subfamilies the tree reaches are built, each once: for d = 3
    that is 35 of the 99 subfamilies of at least 3 of 7 blocks, and 220 of
    the 4,017 for 12 blocks.
    """
    d = inst.h.arity
    nblocks = len(inst.cover.blocks)
    nodes = 1
    for _ in range(d, nblocks + 1):
        nodes = 1 + d * nodes
        if nodes > TREE_CAP:
            raise ResourceCapExceeded(
                f"interpolant tree for {nblocks} blocks under a {d}-ary near-unanimity "
                f"operation exceeds cap {TREE_CAP} nodes"
            )
    memo: dict[frozenset[int], tuple[Operation, InterpolantNode]] = {}

    def build(key: frozenset[int]) -> tuple[Operation, InterpolantNode]:
        if key not in memo:
            ordered = tuple(sorted(key))
            if len(key) < d:
                # With fewer than d blocks the base interpolant covers them all.
                memo[key] = (inst.base_interpolants[key], InterpolantNode(ordered, base=True))
            else:
                # Drop one block at a time; the first d children feed h.
                ops, children = zip(*(build(key - {ordered[i]}) for i in range(d)))
                memo[key] = (superpose(inst.h, list(ops)),
                             InterpolantNode(ordered, base=False, children=children))
        return memo[key]

    return BPResult(*build(frozenset(range(nblocks))))


class NUClosureReport(namedtuple("NUClosureReport", "holds nu_op extras checked")):
    """extras are the closure members missing from the fragment."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.holds


def find_near_unanimity(fragment: CloneFragment) -> Operation | None:
    """First near-unanimity operation among generators then members, in
    order; generators are scanned because they may exceed the fragment's
    arity bound."""
    candidates = list(fragment.generators)
    for j in sorted(fragment.members):
        candidates.extend(fragment.members[j])
    for op in candidates:
        if op.arity >= 3 and is_near_unanimity(op):
            return op
    return None


def nu_ultraclosure_check(
    fragment: CloneFragment, arity_bound: int | None = None
) -> NUClosureReport:
    """Verify that the cover-condition closure at level d (the arity of a
    near-unanimity member) adds nothing to the fragment."""
    h = find_near_unanimity(fragment)
    if h is None:
        raise ValueError("no near-unanimity member found in the fragment")
    bound = fragment.arity_bound if arity_bound is None else arity_bound
    closure = ultra_closure_fragment(fragment, h.arity, bound)
    tables = {j: fragment.tables(j) for j in range(1, bound + 1)}
    extras = tuple(
        op
        for j in range(1, bound + 1)
        for op in closure.members[j]
        if op.table not in tables[j]
    )
    checked = closure.member_count()
    return NUClosureReport(not extras, h, extras, checked)


# --- JSON interchange (bp_tree payload {"table": [int], "tree": node}) -------

def instance_from_json(data: dict) -> BPInstance:
    universe = universe_from_json(data["universe"])
    f = operation_from_json(data["f"], universe)
    h = operation_from_json(data["h"], universe)
    cover = cover_from_json(universe, f.arity, data["cover"])
    base = {
        parse_subset_key(key): Operation(universe, f.arity, table_from_json(table))
        for key, table in object_from_json(
            data["base_interpolants"], "base_interpolants"
        ).items()
    }
    return BPInstance(f, h, cover, base)


def bp_tree_to_json(result: BPResult) -> dict:
    return {"table": list(result.operation.table), "tree": result.tree.to_json()}


def bp_tree_from_json(data) -> tuple[tuple[int, ...], InterpolantNode]:
    data = object_from_json(data, "bp_tree payload")
    table = table_from_json(data.get("table"), "certified table")
    return table, InterpolantNode.from_json(data.get("tree", {}))


def recheck_bp_tree(decoded, inst: BPInstance) -> str | None:
    """Why the tree does not rebuild the target from the instance, or None."""
    table, tree = decoded
    d = inst.h.arity
    nblocks = len(inst.cover.blocks)

    def rebuild(node: InterpolantNode) -> Operation | None:
        blocks = node.blocks
        if sorted(blocks) != list(blocks) or any(not 0 <= b < nblocks for b in blocks):
            return None
        key = frozenset(blocks)
        if node.base:
            return inst.base_interpolants.get(key)
        if len(node.children) != d:
            return None
        ordered = sorted(key)
        child_ops = []
        for i, child in enumerate(node.children):
            if frozenset(child.blocks) != key - {ordered[i]}:
                return None
            op = rebuild(child)
            if op is None:
                return None
            child_ops.append(op)
        return superpose(inst.h, child_ops)

    if frozenset(tree.blocks) != frozenset(range(nblocks)):
        return "tree root does not cover all blocks"
    op = rebuild(tree)
    if op is None:
        return "tree structure is inconsistent with the instance"
    if op.table != table:
        return "recomputed table differs from the certified table"
    if op.table != inst.f.table:
        return "certified table does not equal the target"
    return None
