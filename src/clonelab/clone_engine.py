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
j-ary table is an int whose bit x is table[x], over 2**j points, and a
generator composes through the multiplexer fold of finite_core.mask_folds:
each leading argument halves the generator's table of masks, and the last
two masks q0 and q1 give the candidate q0 ^ ((q0 ^ q1) & b) for last
argument b, one AND and two XORs against about one microsecond for a tuple
composition. For m >= 3 tables stay tuples, composed by index arithmetic
(see finite_core.offset_lookup): a bit-sliced form of the same idea for
general m measured slower than the tuple path.

A commutative binary generator composes each unordered pair of members
once, in either representation: the pair (i, j) with j < i would repeat the
table of (j, i), which the same round composed earlier, so member order and
the member-cap test stay those of the naive loop.

inv on two elements walks the candidate relations as point masks, in
all_relations order, and runs the same fold through the preservation scan
on masks (finite_core.mask_matrix_failure); it builds a Relation only for
the candidates every generator preserves.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .finite_core import (
    Operation,
    Relation,
    ResourceCapExceeded,
    Universe,
    all_operations,
    all_relations,
    commutes,
    int_from_json,
    int_from_json_key,
    mask_folds,
    mask_matrix_failure,
    object_from_json,
    offset_lookup,
    operation_to_json,
    point_mask,
    prefix_folds,
    preserves,
    projection,
    relation_points,
    table_from_json,
    tag_points,
    universe_from_json,
    universe_to_json,
)

DEFAULT_MEMBER_CAP = 200_000
POINT_CAP = 1 << 16


class CloneFragment(namedtuple("CloneFragment", "universe arity_bound generators members")):
    """The arity-<=k part of a generated clone.

    members maps each arity 1..arity_bound to the tuple of that arity's
    members in insertion order (projections first, then closure rounds).
    The members dict makes a fragment unhashable.
    """

    __slots__ = ()

    @classmethod
    def from_members(cls, universe: Universe, arity_bound: int, members) -> "CloneFragment":
        """A fragment whose generators are its members, in arity order."""
        generators = tuple(op for j in sorted(members) for op in members[j])
        return cls(universe, arity_bound, generators, members)

    def tables(self, arity: int) -> frozenset[tuple[int, ...]]:
        """The set of the arity's member tables, built on each call."""
        return frozenset(op.table for op in self.members[arity])

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
    projections. Raises ResourceCapExceeded, before anything is built,
    if the tables of arities 1..arity_bound hold more than POINT_CAP
    points in all, or once an arity layer would exceed member_cap; a
    capped run never returns a truncated fragment.
    """
    generators = tuple(generators)
    if arity_bound < 1:
        raise ValueError("arity bound must be >= 1")
    if member_cap < 1:
        raise ValueError("member cap must be >= 1")
    if universe is None:
        if not generators:
            raise ValueError("generate() with no generators needs an explicit universe")
        universe = generators[0].universe
    for g in generators:
        if g.universe != universe:
            raise ValueError("generators live on different universes")
    m = universe.size
    points = 0
    for j in range(1, arity_bound + 1):
        points += m ** j
        if points > POINT_CAP:
            raise ResourceCapExceeded(
                f"tables of arity 1 to {arity_bound} on a {m}-element universe "
                f"exceed cap {POINT_CAP} points"
            )

    members: dict[int, tuple[Operation, ...]] = {}
    for j in range(1, arity_bound + 1):
        members[j] = tuple(
            Operation(universe, j, t)
            for t in _close_arity(universe, generators, j, member_cap)
        )
    return CloneFragment(universe, arity_bound, generators, members)


def _close_arity(universe, generators, j, member_cap):
    """The member tables of the j-ary layer, in insertion order."""
    m = universe.size
    seeds = [op.table for op in projections(universe, j)]
    if m == 2:
        points = range(2 ** j)
        masks = _close(
            [point_mask(t) for t in seeds],
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
    capped = ResourceCapExceeded(f"arity-{j} fragment exceeded member cap {member_cap}")
    if len(seen) > member_cap:
        raise capped
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
                        raise capped
                    if len(seen) == full:
                        return keys
        old = n
    return keys


def _tuple_batches(generators, m, members, old):
    """One round's batches over tuple tables, composed by index arithmetic."""
    tagged = [tag_points(t, m) for t in members]
    zero = (0,) * len(members[0])
    for g in generators:
        skip = commutes(g)
        for indices, offsets in prefix_folds(members, g.arity - 1, m, zero):
            lookup = offset_lookup(g.table, offsets, m).__getitem__
            yield [tuple(map(lookup, t)) for t in tagged[_first_last(indices, old, skip):]]


def _mask_batches(generators, full, members, old):
    """One round's batches over bitmask tables (bit x is table[x])."""
    for g in generators:
        skip = commutes(g)
        for indices, q0, q1 in mask_folds(g.table, members, full):
            d = q0 ^ q1
            yield [q0 ^ (d & b) for b in members[_first_last(indices, old, skip):]]


def _first_last(indices, old, skip):
    """The index of the first last argument a prefix is composed with.

    An untouched prefix needs its last argument from the frontier. A
    commutative binary generator composes each unordered pair once: the
    last argument j < i only repeats the table of (j, i), which this round
    composed earlier.
    """
    lo = 0 if any(i >= old for i in indices) else old
    return max(lo, indices[0]) if skip else lo


def contains(fragment: CloneFragment, op: Operation) -> bool:
    """Table-level membership in the fragment."""
    if op.universe != fragment.universe:
        raise ValueError("operation lives on a different universe")
    if op.arity > fragment.arity_bound:
        raise ValueError(
            f"arity {op.arity} above fragment bound {fragment.arity_bound}"
        )
    return op.table in fragment.tables(op.arity)


def filter_fragment(universe: Universe, arity_bound: int, keep) -> CloneFragment:
    """The operations of arity <= arity_bound that keep accepts, each
    arity's in all_operations order, packaged as a fragment whose
    generator set is its member list."""
    members = {
        j: tuple(filter(keep, all_operations(universe, j)))
        for j in range(1, arity_bound + 1)
    }
    return CloneFragment.from_members(universe, arity_bound, members)


def pol(relations, arity_bound: int, universe: Universe | None = None) -> CloneFragment:
    """All operations of arity <= arity_bound preserving every relation."""
    relations = tuple(relations)
    if universe is None:
        if not relations:
            raise ValueError("pol() with no relations needs an explicit universe")
        universe = relations[0].universe
    for rel in relations:
        if rel.universe != universe:
            raise ValueError("relations live on different universes")
    return filter_fragment(
        universe, arity_bound, lambda op: all(preserves(op, rel) for rel in relations)
    )


def inv(fragment: CloneFragment, max_arity: int) -> tuple[Relation, ...]:
    """All relations of arity <= max_arity preserved by every member.

    A relation is invariant under the whole generated clone exactly when
    the generators preserve it, so only generators are checked (for
    fragments whose generator list is the member list this is the full
    check).
    """
    if max_arity < 1:
        raise ValueError("max arity must be >= 1")
    universe, generators = fragment.universe, fragment.generators
    out = []
    for r in range(1, max_arity + 1):
        if universe.size == 2:
            out.extend(_mask_inv(universe, r, generators))
            continue
        for rel in all_relations(universe, r):
            # With no generators (the projection clone) every relation is kept.
            if all(preserves(g, rel) for g in generators):
                out.append(rel)
    return tuple(out)


def _mask_inv(universe, r, generators):
    """inv's r-ary relations on two elements, in all_relations order.

    Each candidate is scanned as the point masks of its sorted tuples, and
    a Relation is built only for the candidates every generator preserves.
    """
    points = relation_points(universe, r)
    masks = [point_mask(p) for p in points]
    for bits in range(1 << len(points)):
        rows = [mask for i, mask in enumerate(masks) if bits >> i & 1]
        members = frozenset(rows)
        if all(mask_matrix_failure(g, r, rows, members) is None for g in generators):
            yield Relation(universe, r, frozenset(p for i, p in enumerate(points) if bits >> i & 1))


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
        "universe": universe_to_json(fragment.universe),
        "arity_bound": fragment.arity_bound,
        "members": {
            str(j): [list(op.table) for op in ops]
            for j, ops in sorted(fragment.members.items())
        },
        "generators": [operation_to_json(g) for g in fragment.generators],
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
        return CloneFragment.from_members(universe, bound, members)
    return CloneFragment(universe, bound, generators, members)
