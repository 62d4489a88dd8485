"""Arity-bounded clone generation, membership, and the Pol-Inv connection.

Full clones are infinite objects; this module materializes only the part
of arity <= k. For each arity j the fixpoint "seed with the j-ary
projections, close under applying one generator to a tuple of current
j-ary members" is complete for the j-ary fragment of the generated clone:
any term of arity j normalizes, by structural induction, to an iterated
single-generator application over j-ary terms.

Operations are canonical by their tables; deduplication ignores how a
member was produced.

Closure is semi-naive (Bancilhon & Ramakrishnan 1986): a round composes
only the argument tuples that pick at least one member found in the
previous round. Member order is part of the output (fragment JSON, first
agreeing members in certificates) and is that of the naive loop: projections
first, then round by round, generator by generator, argument tuples in
itertools.product order over the members at the start of the round, each
new table appended when first met. A layer stops as soon as it holds all
m**(m**j) tables, since no later round could add one. One driver (_close)
keeps that round, order and cap logic for both table representations, and
tables become Operation objects once the layer is closed.

The representation is chosen from the universe size. On two elements a
j-ary table is an int whose bit x is table[x], over 2**j points. The
leading arguments of a generator split the points into parts by the
values they spell, and with q0 and q1 the points where the generator
gives 1 for last argument 0 and 1, the candidate for last argument b is
q0 ^ ((q0 ^ q1) & b): one AND and two XORs per candidate, against about
one microsecond for a tuple composition. For m >= 3 tables stay tuples,
composed by index arithmetic (see finite_core.offset_lookup): a
bit-sliced form of the same idea for general m measured slower than the
tuple path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .finite_core import (
    Operation,
    Relation,
    ResourceCapExceeded,
    Universe,
    all_operations,
    all_relations,
    int_from_json,
    int_from_json_key,
    object_from_json,
    offset_lookup,
    prefix_folds,
    preserves,
    projection,
    table_from_json,
    tag_points,
    universe_from_json,
)

DEFAULT_MEMBER_CAP = 200_000


@dataclass(frozen=True)
class CloneFragment:
    """The arity-<=k part of a generated clone.

    members maps each arity 1..arity_bound to the tuple of that arity's
    members in insertion order (projections first, then closure rounds).
    """

    universe: Universe
    arity_bound: int
    generators: tuple[Operation, ...]
    members: dict[int, tuple[Operation, ...]]
    _tables: dict[int, frozenset[tuple[int, ...]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self._tables is None:
            tables = {
                j: frozenset(op.table for op in ops) for j, ops in self.members.items()
            }
            object.__setattr__(self, "_tables", tables)

    def tables(self, arity: int) -> frozenset[tuple[int, ...]]:
        return self._tables[arity]

    def member_count(self) -> int:
        return sum(len(ops) for ops in self.members.values())


def projections(universe: Universe, arity: int) -> list[Operation]:
    """The distinct j-ary projections: all j of them, or one on a
    one-element universe, where every projection has the same table."""
    count = arity if universe.size > 1 else 1
    return [projection(universe, arity, i) for i in range(count)]


def generate(
    generators,
    arity_bound: int,
    universe: Universe | None = None,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> CloneFragment:
    """Least fixpoint closure of the generators, one arity at a time.

    An empty generator set (with an explicit universe) yields the clone of
    projections. Raises ResourceCapExceeded if a fragment would exceed
    member_cap; a capped run never returns a truncated fragment.
    """
    generators = tuple(generators)
    if arity_bound < 1:
        raise ValueError("arity bound must be >= 1")
    if universe is None:
        if not generators:
            raise ValueError("generate() with no generators needs an explicit universe")
        universe = generators[0].universe
    for g in generators:
        if g.universe != universe:
            raise ValueError("generators live on different universes")

    members: dict[int, tuple[Operation, ...]] = {}
    for j in range(1, arity_bound + 1):
        members[j] = tuple(
            Operation(universe, j, t)
            for t in _close_arity(universe, generators, j, member_cap)
        )
    return CloneFragment(universe, arity_bound, generators, members)


def projection_fragment(universe: Universe, arity_bound: int) -> CloneFragment:
    """The fragment of the clone generated by the empty set: projections only."""
    members = {j: tuple(projections(universe, j)) for j in range(1, arity_bound + 1)}
    return CloneFragment(universe, arity_bound, (), members)


def _close_arity(universe, generators, j, member_cap):
    """The member tables of the j-ary layer, in insertion order."""
    m = universe.size
    seeds = [op.table for op in projections(universe, j)]
    if m == 2:
        points = range(2 ** j)
        masks = _close(
            [sum(v << x for x, v in zip(points, t)) for t in seeds],
            functools.partial(_mask_batches, generators, (1 << len(points)) - 1),
            2 ** 2 ** j, j, member_cap,
        )
        return [tuple(b >> x & 1 for x in points) for b in masks]
    batches = functools.partial(_tuple_batches, generators, m)
    return _close(seeds, batches, m ** m ** j, j, member_cap)


def _close(keys, batches, full, j, member_cap):
    """Semi-naive closure of the seed keys; returns them in insertion order.

    batches(members, old) yields, per generator and per prefix of the
    generator's leading arguments in itertools.product order, the keys
    composed with each last argument in members[lo:], where lo is 0 when
    the prefix picks a frontier member (index >= old) and old otherwise.
    """
    seen = set(keys)
    # Each round composes over keys[:n]; its frontier is keys[old:n],
    # the members the previous round found.
    old = 0
    while old < len(keys) and len(seen) < full:
        n = len(keys)
        for batch in batches(keys[:n], old):
            for key in batch:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
                    if len(seen) > member_cap:
                        raise ResourceCapExceeded(
                            f"arity-{j} fragment exceeded member cap {member_cap}"
                        )
                    if len(seen) == full:
                        return keys
        old = n
    return keys


def _tuple_batches(generators, m, members, old):
    """One round's batches over tuple tables, composed by index arithmetic."""
    tagged = [tag_points(t, m) for t in members]
    zero = (0,) * len(members[0])
    for g in generators:
        for indices, offsets in prefix_folds(members, g.arity - 1, m, zero):
            lookup = offset_lookup(g.table, offsets, m).__getitem__
            # An untouched prefix needs its last argument from the frontier.
            lo = 0 if any(i >= old for i in indices) else old
            yield [tuple(map(lookup, t)) for t in tagged[lo:]]


def _mask_batches(generators, all_points, members, old):
    """One round's batches over bitmask tables (bit x is table[x])."""
    for g in generators:
        # The prefix values u with g(u, 0) = 1 and with g(u, 1) = 1, u read
        # in base 2 over the leading arguments.
        half = range(len(g.table) // 2)
        zeros = [u for u in half if g.table[2 * u]]
        ones = [u for u in half if g.table[2 * u + 1]]
        for indices, parts in _split_walk(members, g.arity - 1, (), [all_points]):
            q0 = q1 = 0
            for u in zeros:
                q0 |= parts[u]
            for u in ones:
                q1 |= parts[u]
            d = q0 ^ q1
            lo = 0 if any(i >= old for i in indices) else old
            yield [q0 ^ (d & b) for b in members[lo:]]


def _split_walk(masks, depth, indices, parts):
    """Yield (indices, parts) for every depth-tuple of indices into masks,
    in itertools.product order: parts[u] is the set of points where the
    chosen masks spell u in base 2, the first choice most significant."""
    if depth == 0:
        yield indices, parts
        return
    for i, b in enumerate(masks):
        split = [q for p in parts for q in (p & ~b, p & b)]
        yield from _split_walk(masks, depth - 1, indices + (i,), split)


def contains(fragment: CloneFragment, op: Operation) -> bool:
    """Table-level membership in the fragment."""
    if op.universe != fragment.universe:
        raise ValueError("operation lives on a different universe")
    if op.arity > fragment.arity_bound:
        raise ValueError(
            f"arity {op.arity} above fragment bound {fragment.arity_bound}"
        )
    return op.table in fragment.tables(op.arity)


def pol(
    relations,
    arity_bound: int,
    universe: Universe | None = None,
    op_cap: int = 1 << 20,
) -> CloneFragment:
    """All operations of arity <= arity_bound preserving every relation.

    Returned as a fragment whose generator set is its full member list.
    """
    relations = tuple(relations)
    if universe is None:
        if not relations:
            raise ValueError("pol() with no relations needs an explicit universe")
        universe = relations[0].universe
    for rel in relations:
        if rel.universe != universe:
            raise ValueError("relations live on different universes")

    members: dict[int, tuple[Operation, ...]] = {}
    for j in range(1, arity_bound + 1):
        kept = tuple(
            op
            for op in all_operations(universe, j, cap=op_cap)
            if all(preserves(op, rel) for rel in relations)
        )
        members[j] = kept
    flat = tuple(op for ops in members.values() for op in ops)
    return CloneFragment(universe, arity_bound, flat, members)


def inv(
    fragment: CloneFragment,
    max_arity: int,
    rel_cap: int = 1 << 16,
) -> tuple[Relation, ...]:
    """All relations of arity <= max_arity preserved by every member.

    A relation is invariant under the whole generated clone exactly when
    the generators preserve it, so only generators are checked (for
    fragments whose generator list is the member list this is the full
    check).
    """
    if max_arity < 1:
        raise ValueError("max arity must be >= 1")
    checkers = fragment.generators
    if not checkers:
        # Projection clone: every relation is invariant.
        checkers = ()
    out = []
    for r in range(1, max_arity + 1):
        for rel in all_relations(fragment.universe, r, cap=rel_cap):
            if all(preserves(g, rel) for g in checkers):
                out.append(rel)
    return tuple(out)


def fragments_equal(a: CloneFragment, b: CloneFragment) -> bool:
    """Arity-wise table-set equality of two fragments."""
    if a.universe != b.universe or a.arity_bound != b.arity_bound:
        return False
    return all(
        a.tables(j) == b.tables(j) for j in range(1, a.arity_bound + 1)
    )


# --- JSON interchange -----------------------------------------------------
#
# fragment {"universe": {...}, "arity_bound": k,
#           "members": {"1": [[table ints]], ...},
#           "generators": [{"arity": n, "table": [...]}, ...]}

def fragment_to_json(fragment: CloneFragment) -> dict:
    return {
        "universe": {"size": fragment.universe.size},
        "arity_bound": fragment.arity_bound,
        "members": {
            str(j): [list(op.table) for op in ops]
            for j, ops in sorted(fragment.members.items())
        },
        "generators": [
            {"arity": g.arity, "table": list(g.table)} for g in fragment.generators
        ],
    }


def fragment_from_json(data: dict) -> CloneFragment:
    universe = universe_from_json(data["universe"])
    bound = int_from_json(data["arity_bound"], "arity_bound")
    members = {}
    for key, tables in object_from_json(data["members"], "members").items():
        j = int_from_json_key(key, "members arity")
        members[j] = tuple(Operation(universe, j, table_from_json(t)) for t in tables)
    for j in range(1, bound + 1):
        if j not in members:
            raise ValueError(f"fragment JSON missing members of arity {j}")
    generators = tuple(
        Operation(universe, int_from_json(g["arity"], "arity"), table_from_json(g["table"]))
        for g in data.get("generators", [])
    )
    if not generators:
        generators = tuple(op for j in sorted(members) for op in members[j])
    return CloneFragment(universe, bound, generators, members)
