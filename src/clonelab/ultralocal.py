"""Finite-cover interpolation certificates and the induced closure.

The central object is a certificate pairing a finite cover of an
operation's domain with one fragment member per small subfamily of the
cover: for every set B of at most lam blocks there is a member agreeing
with the target on the union of B. Existence of such a certificate is
decided exactly here, at finite scale, by searching set partitions of the
domain; partitions suffice because any witnessing cover can be refined to
the atoms of the Boolean algebra its blocks generate, and those atoms
form a partition.

The dual formulation tracks, for each member t, the set of lam-column
matrices over the domain on which t agrees with the target columnwise.
The certificate exists exactly when finitely many of those matrix sets
cover everything, i.e. when their complements fail the finite
intersection property. Both routes are implemented independently and
cross-checked in the test suite.

The closure the cover condition induces is the local closure of
`interpolation`, because on a finite domain the condition at level lam
holds exactly when f is lam-interpolable: the all-singletons cover turns
interpolability into a certificate, and conversely any lam points lie in
at most lam blocks of a witnessing cover, whose interpolant agrees with f
on all of them. `ultra_closure_fragment` therefore calls that kernel.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .clone_engine import CloneFragment
from .finite_core import (
    Operation,
    ResourceCapExceeded,
    Universe,
    int_from_json,
    object_from_json,
    parse_subset_key,
    subfamilies,
    subset_key,
    table_from_json,
)
from .interpolation import agreement_mask, local_closure_fragment

DEFAULT_MATRIX_CAP = 4096


class Cover(namedtuple("Cover", "universe domain_arity blocks")):
    """A finite cover of universe**domain_arity by nonempty point sets
    (blocks is a tuple of frozensets of domain points)."""

    __slots__ = ()

    def __new__(cls, universe: Universe, domain_arity: int, blocks):
        if not blocks:
            raise ValueError("cover needs at least one block")
        union = set()
        for block in blocks:
            if not block:
                raise ValueError("empty cover blocks are rejected")
            for point in block:
                if len(point) != domain_arity:
                    raise ValueError(f"point {point} has wrong arity")
                if any(not 0 <= x < universe.size for x in point):
                    raise ValueError(f"point {point} outside universe")
            union |= block
        if len(union) != universe.size ** domain_arity:
            raise ValueError("blocks do not cover the whole domain")
        return tuple.__new__(cls, (universe, domain_arity, blocks))

    def is_partition(self) -> bool:
        total = sum(len(b) for b in self.blocks)
        return total == self.universe.size ** self.domain_arity


class DaggerCertificate(namedtuple("DaggerCertificate", "cover lam interpolants")):
    """Proof object for the cover condition at level lam.

    interpolants maps each subfamily B (a frozenset of block indices,
    |B| <= min(lam, #blocks)) to a fragment member agreeing with the
    target on the union of B's blocks.
    """

    __slots__ = ()


class DaggerFailure(namedtuple("DaggerFailure", "cover lam failing_blocks")):
    """A subfamily of cover blocks (a frozenset of indices) admitting no
    single interpolant."""

    __slots__ = ()


class DaggerSearchOutcome(namedtuple("DaggerSearchOutcome", "certificate disproof strategy")):
    """The certificate found (or None), whether the search disproves the
    cover condition, and the strategy name."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.certificate is not None


def _members_and_masks(f: Operation, fragment: CloneFragment):
    if f.universe != fragment.universe:
        raise ValueError("target and fragment universes differ")
    if f.arity > fragment.arity_bound:
        raise ValueError("target arity above fragment arity bound")
    members = fragment.members[f.arity]
    return members, [agreement_mask(f, t) for t in members]


def check_dagger(
    f: Operation,
    fragment: CloneFragment,
    lam: int,
    cover: Cover,
) -> DaggerCertificate | DaggerFailure:
    """Check one candidate cover. Every subfamily of at most lam blocks
    must admit a member agreeing with f on its union; the first member in
    fragment order is recorded."""
    if cover.universe != f.universe or cover.domain_arity != f.arity:
        raise ValueError("cover does not match the target's domain")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    members, masks = _members_and_masks(f, fragment)
    block_masks = [sum(1 << f.index_of(p) for p in block) for block in cover.blocks]
    found = _assign_interpolants(members, masks, block_masks, lam)
    if isinstance(found, frozenset):
        return DaggerFailure(cover, lam, found)
    return DaggerCertificate(cover, lam, found)


def _assign_interpolants(members, masks, block_masks, lam):
    """Map every block subfamily of size <= lam to an agreeing member;
    returns the first failing subfamily (as a frozenset) on failure."""
    interpolants: dict[frozenset[int], Operation] = {}
    nblocks = len(block_masks)
    # The search's hot loop: most candidate covers fail within a few
    # subfamilies, and an iterator from subfamilies() made it 18% slower.
    for size in range(min(lam, nblocks) + 1):
        for combo in itertools.combinations(range(nblocks), size):
            union = 0
            for b in combo:
                union |= block_masks[b]
            chosen = None
            for t, mask in zip(members, masks):
                if union & ~mask == 0:
                    chosen = t
                    break
            if chosen is None:
                return frozenset(combo)
            interpolants[frozenset(combo)] = chosen
    return interpolants


def restricted_growth_strings(n: int, max_blocks: int):
    """All partitions of range(n) encoded as restricted growth strings,
    in lexicographic order, using at most max_blocks blocks."""
    if n == 0:
        return
    rgs = [0] * n

    def rec(i: int, current_max: int):
        if i == n:
            yield tuple(rgs)
            return
        top = min(current_max + 1, max_blocks - 1)
        for v in range(top + 1):
            rgs[i] = v
            yield from rec(i + 1, max(current_max, v))

    yield from rec(1, 0)


def _partition_masks(rgs: tuple[int, ...]):
    nblocks = max(rgs) + 1
    masks = [0] * nblocks
    for idx, b in enumerate(rgs):
        masks[b] |= 1 << idx
    return masks


def search_dagger(
    f: Operation,
    fragment: CloneFragment,
    lam: int,
    strategy: str = "exhaustive_partitions",
    max_blocks: int | None = None,
) -> DaggerSearchOutcome:
    """Search for a certificate under the chosen strategy.

    singletons            the all-singletons cover only.
    equalizer_atoms       the partition grouping domain points by which
                          members agree with f there (the atoms of the
                          Boolean algebra the agreement sets generate).
    exhaustive_partitions all set partitions with at most max_blocks
                          blocks, in restricted-growth-string order,
                          returning the first passing one.

    Exhaustion is a disproof only for exhaustive_partitions with
    max_blocks = |domain| (complete for partition covers, which suffice);
    other strategies report "no certificate found" without deciding.
    """
    members, masks = _members_and_masks(f, fragment)
    npoints = len(f.table)
    if lam < 0:
        raise ValueError("lam must be >= 0")

    if strategy == "singletons":
        candidates = [[1 << i for i in range(npoints)]]
    elif strategy == "equalizer_atoms":
        # one block per agreement signature, in order of its lowest point
        atoms: dict[tuple[bool, ...], int] = {}
        for i in range(npoints):
            sig = tuple(bool(mask >> i & 1) for mask in masks)
            atoms[sig] = atoms.get(sig, 0) | 1 << i
        candidates = [list(atoms.values())]
    elif strategy == "exhaustive_partitions":
        if max_blocks is None:
            max_blocks = npoints
        if max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        candidates = map(_partition_masks, restricted_growth_strings(npoints, max_blocks))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    for block_masks in candidates:
        found = _assign_interpolants(members, masks, block_masks, lam)
        if not isinstance(found, frozenset):
            blocks = [[i for i in range(npoints) if mask >> i & 1] for mask in block_masks]
            cover = cover_from_json(f.universe, f.arity, blocks)
            return DaggerSearchOutcome(DaggerCertificate(cover, lam, found), False, strategy)
    disproof = strategy == "exhaustive_partitions" and max_blocks >= npoints
    return DaggerSearchOutcome(None, disproof, strategy)


def verify_dagger_certificate(
    cert: DaggerCertificate, f: Operation, fragment: CloneFragment
) -> bool:
    """Recheck a certificate from scratch: cover validity, exact subfamily
    key set, membership of every interpolant, and pointwise agreement."""
    try:
        cover = Cover(cert.cover.universe, cert.cover.domain_arity, cert.cover.blocks)
    except ValueError:
        return False
    if cert.lam < 0:
        return False
    if cover.universe != f.universe or cover.domain_arity != f.arity:
        return False
    if f.arity > fragment.arity_bound:
        return False
    if set(cert.interpolants) != set(subfamilies(len(cover.blocks), cert.lam)):
        return False
    member_tables = fragment.tables(f.arity)
    for key, t in cert.interpolants.items():
        if t.universe != f.universe or t.arity != f.arity:
            return False
        if t.table not in member_tables:
            return False
        for b in key:
            for point in cover.blocks[b]:
                if f.table[f.index_of(point)] != t.table[t.index_of(point)]:
                    return False
    return True


# --- equalizer formulation -------------------------------------------------

class EqualizerFamily(namedtuple("EqualizerFamily", "lam domain_size entries")):
    """For each member t, the lam-column matrices (tuples of domain
    points) on which t agrees with the target in every column: entries
    maps each member to a frozenset of matrices."""

    __slots__ = ()

    def matrix_space_size(self) -> int:
        return self.domain_size ** self.lam


def equalizer_family(
    f: Operation,
    fragment: CloneFragment,
    lam: int,
    cap: int = DEFAULT_MATRIX_CAP,
) -> EqualizerFamily:
    """Materialize the agreement-matrix sets. Each set is the lam-th
    power of the pointwise agreement set, so it is built directly from
    that product."""
    if lam < 1:
        raise ValueError("equalizer family needs lam >= 1")
    members, masks = _members_and_masks(f, fragment)
    domain = list(f.universe.tuples(f.arity))
    total = len(domain) ** lam
    if total > cap:
        raise ResourceCapExceeded(
            f"{total} matrices exceed the materialization cap {cap}"
        )
    entries = {}
    for t, mask in zip(members, masks):
        agree = [p for i, p in enumerate(domain) if mask >> i & 1]
        entries[t] = frozenset(itertools.product(agree, repeat=lam))
    return EqualizerFamily(lam, len(domain), entries)


def fip_holds(family: EqualizerFamily) -> bool:
    """Whether the complements of the agreement-matrix sets have the
    finite intersection property.

    The family is finite, so this reduces to: the union of all agreement
    sets does not exhaust the matrix space.
    """
    covered = set()
    for matrices in family.entries.values():
        covered |= matrices
    return len(covered) != family.matrix_space_size()


def fip_holds_lazy(f: Operation, fragment: CloneFragment, lam: int) -> bool:
    """Streaming variant for matrix spaces above the materialization cap:
    scan matrices one by one for a witness avoiding every agreement set."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    members, masks = _members_and_masks(f, fragment)
    for matrix_indices in itertools.product(range(len(f.table)), repeat=lam):
        matrix_mask = 0
        for i in matrix_indices:
            matrix_mask |= 1 << i
        if not any(matrix_mask & ~mask == 0 for mask in masks):
            return True
    return False


def ultra_closure_fragment(
    fragment: CloneFragment,
    kappa,
    arity_bound: int,
    op_cap: int = 1 << 20,
) -> CloneFragment:
    """All operations of arity <= arity_bound passing the cover condition
    for every lam < kappa, packaged as a fragment.

    This is the local closure. The all-singletons cover makes every
    lam-interpolable f pass; any lam points lie in at most lam blocks of
    a witnessing cover, so every passing f is lam-interpolable.
    """
    return local_closure_fragment(fragment, kappa, arity_bound, op_cap)


# --- JSON interchange -------------------------------------------------------
#
# dagger payload {"lambda": l, "arity": n, "universe_size": m,
#                 "cover": [[point index]],
#                 "interpolants": {"0,2": [table ints], "": [...]}}
# Point indices are lexicographic domain positions; subfamily keys are
# finite_core.subset_key strings.

def cover_from_json(universe: Universe, arity: int, blocks) -> Cover:
    """A cover given as lists of lexicographic domain positions."""
    domain = list(universe.tuples(arity))

    def point(i) -> tuple[int, ...]:
        if not 0 <= int_from_json(i, "cover point index") < len(domain):
            raise ValueError(f"cover point index {i} outside the domain")
        return domain[i]

    return Cover(universe, arity, tuple(frozenset(map(point, block)) for block in blocks))


def dagger_to_json(cert: DaggerCertificate) -> dict:
    universe = cert.cover.universe
    index = {p: i for i, p in enumerate(universe.tuples(cert.cover.domain_arity))}
    return {
        "lambda": cert.lam,
        "arity": cert.cover.domain_arity,
        "universe_size": universe.size,
        "cover": [sorted(index[p] for p in block) for block in cert.cover.blocks],
        "interpolants": {
            subset_key(key): list(op.table) for key, op in cert.interpolants.items()
        },
    }


def dagger_from_json(data: dict, target: Operation) -> DaggerCertificate:
    """The certificate in data, checked against target. The payload's
    universe size and arity must be the target's; they are compared before
    the cover lists the size**arity domain points."""
    m = int_from_json(data["universe_size"], "universe_size")
    n = int_from_json(data["arity"], "arity")
    if (m, n) != (target.universe.size, target.arity):
        raise ValueError(
            f"payload arity {n} on {m} elements does not match the target's "
            f"arity {target.arity} on {target.universe.size} elements"
        )
    # Only the size is stored: the target's universe supplies any labels.
    universe = target.universe
    cover = cover_from_json(universe, n, data["cover"])
    interpolants = {
        parse_subset_key(key): Operation(universe, n, table_from_json(table))
        for key, table in object_from_json(data["interpolants"], "interpolants").items()
    }
    return DaggerCertificate(cover, int_from_json(data["lambda"], "lambda"), interpolants)


def recheck_dagger(cert: DaggerCertificate, f: Operation, fragment: CloneFragment) -> str | None:
    return None if verify_dagger_certificate(cert, f, fragment) else "certificate fails recheck"
