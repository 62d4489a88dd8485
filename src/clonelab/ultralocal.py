"""Finite-cover interpolation certificates and the induced closure.

The central object is a certificate pairing a finite cover of an
operation's domain with one fragment member per small subfamily of the
cover: for every set B of at most lam blocks there is a member agreeing
with the target on the union of B. Existence of such a certificate is
decided exactly here, at finite scale, by searching set partitions of the
domain; partitions suffice because any witnessing cover can be refined to
the atoms of the Boolean algebra its blocks generate, and those atoms
form a partition.

A Cover's blocks are sets of domain indices (table positions, as the
dagger payload stores them), and first_disagreement is the one agreement
check for dagger certificates and near-unanimity base interpolants.
Every cover that check_dagger and the three strategies of search_dagger
test goes through interpolation.first_failing_subfamily, the scan that
also decides interpolability, which reads only the subfamilies of exactly
min(lam, #blocks) blocks. Only a passing cover lists all its subfamilies
of at most lam blocks, for its certificate, and it counts them first.
The partitions walked (PARTITION_CAP), the subfamilies one cover test
scans (interpolation.SUBSET_CAP) and those a certificate lists
(SUBFAMILY_CAP) are capped; verify_dagger_certificate counts a
certificate's keys instead of listing the subfamilies they must be.

The dual formulation tracks, for each member t, the set of lam-column
matrices over the domain on which t agrees with the target columnwise.
The certificate exists exactly when finitely many of those matrix sets
cover everything, i.e. when their complements fail the finite
intersection property. That route is not part of the library: it is a
test oracle (tests/fip_oracle.py), written independently, that the test
suite cross-checks against the search.

The closure the cover condition induces is the local closure of
`interpolation`, because on a finite domain the condition at level lam
holds exactly when f is lam-interpolable: the all-singletons cover turns
interpolability into a certificate, and conversely any lam points lie in
at most lam blocks of a witnessing cover, whose interpolant agrees with f
on all of them. `ultra_closure_fragment` therefore calls
`interpolation.local_closure_fragment`.
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
    is_subfamily_key_set,
    object_from_json,
    parse_subset_key,
    subfamilies,
    subfamily_count,
    subset_key,
    table_from_json,
)
from .interpolation import (
    InterpolationQuery, agreement_mask, first_failing_subfamily, local_closure_fragment,
    member_masks, top_subfamilies,
)

PARTITION_CAP = 1 << 20
SUBFAMILY_CAP = 1 << 18


class Cover(namedtuple("Cover", "universe domain_arity blocks")):
    """A finite cover of universe**domain_arity by nonempty blocks of
    domain indices (table positions), given as iterables and stored as a
    tuple of frozensets; the first index outside the domain is reported."""

    __slots__ = ()

    def __new__(cls, universe: Universe, domain_arity: int, blocks):
        npoints = universe.size ** domain_arity
        frozen = []
        for block in blocks:
            for i in block:
                if not 0 <= i < npoints:
                    raise ValueError(f"cover point index {i} outside the domain")
            frozen.append(frozenset(block))
        if not frozen:
            raise ValueError("cover needs at least one block")
        if not all(frozen):
            raise ValueError("empty cover blocks are rejected")
        if len(frozenset().union(*frozen)) != npoints:
            raise ValueError("blocks do not cover the whole domain")
        return tuple.__new__(cls, (universe, domain_arity, tuple(frozen)))

    def block_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << i for i in block) for block in self.blocks)


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


def check_dagger(
    f: Operation, fragment: CloneFragment, lam: int, cover: Cover
) -> DaggerCertificate | DaggerFailure:
    """Check one candidate cover. Every subfamily of at most lam blocks
    must admit a member agreeing with f on its union, which holds when
    every subfamily of exactly min(lam, #blocks) blocks does. On failure
    the first failing one of that size, in itertools.combinations order,
    is reported; a passing cover's certificate records the first member
    in fragment order for every subfamily of at most lam blocks."""
    if cover.universe != f.universe or cover.domain_arity != f.arity:
        raise ValueError("cover does not match the target's domain")
    members, masks = member_masks(InterpolationQuery(f, fragment, lam))
    block_masks = cover.block_masks()
    failing = first_failing_subfamily(block_masks, masks, lam)
    if failing is not None:
        return DaggerFailure(cover, lam, frozenset(failing))
    return DaggerCertificate(cover, lam, _interpolants(block_masks, masks, members, lam))


def _interpolants(block_masks, masks, members, lam: int) -> dict[frozenset[int], Operation]:
    """The first agreeing member of every subfamily of at most lam blocks
    of a cover that passed, in subfamilies order. They are counted against
    SUBFAMILY_CAP before any is listed."""
    nblocks = len(block_masks)
    if subfamily_count(nblocks, lam, SUBFAMILY_CAP) > SUBFAMILY_CAP:
        raise ResourceCapExceeded(
            f"subfamily cap {SUBFAMILY_CAP} reached: a certificate on {nblocks} cover blocks "
            f"at level {lam} needs more than {SUBFAMILY_CAP} subfamilies, counted before "
            f"listing any"
        )
    found = {}
    for key in subfamilies(nblocks, lam):
        union = 0
        for b in key:
            union |= block_masks[b]
        found[key] = members[next(i for i, mask in enumerate(masks) if union & ~mask == 0)]
    return found


def _partitions(npoints: int, max_blocks: int):
    """Every partition of range(npoints) into at most max_blocks blocks,
    in restricted-growth-string order, as a list of block bitmasks with
    blocks in order of their lowest point. One list is updated in place
    and yielded for each partition."""
    rgs = [0] * npoints  # block index of each point
    top = [0] * npoints  # top[i] = max(rgs[:i + 1])
    blocks = [(1 << npoints) - 1]
    yield blocks
    last = max_blocks - 1
    while True:
        # the last point whose block index can grow
        i = npoints - 1
        while i > 0 and (rgs[i] > top[i - 1] or rgs[i] >= last):
            i -= 1
        if i == 0:
            return
        bit = 1 << i
        v = rgs[i]
        blocks[v] ^= bit
        v += 1
        rgs[i] = v
        if v == len(blocks):
            blocks.append(bit)
        else:
            blocks[v] |= bit
        t = top[i] = v if v > top[i - 1] else top[i - 1]
        # every later point returns to block 0
        for j in range(i + 1, npoints):
            b = rgs[j]
            if b:
                bit = 1 << j
                blocks[b] ^= bit
                blocks[0] |= bit
                rgs[j] = 0
            top[j] = t
        del blocks[t + 1:]
        yield blocks


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

    Every candidate goes through interpolation.first_failing_subfamily.
    The exhaustive walk updates one block list in place, lists each block
    count's subfamilies once and keeps the unions known to fail; the
    single-cover strategies stream the subfamilies. Past PARTITION_CAP
    partitions, or any cap of the cover test, ResourceCapExceeded says
    how far the search got.
    """
    members, masks = member_masks(InterpolationQuery(f, fragment, lam))
    npoints = len(f.table)

    if strategy == "singletons":
        candidates = iter([[1 << i for i in range(npoints)]])
    elif strategy == "equalizer_atoms":
        # one block per agreement signature, in order of its lowest point
        atoms: dict[tuple[bool, ...], int] = {}
        for i in range(npoints):
            sig = tuple(bool(mask >> i & 1) for mask in masks)
            atoms[sig] = atoms.get(sig, 0) | 1 << i
        candidates = iter([list(atoms.values())])
    elif strategy == "exhaustive_partitions":
        if max_blocks is None:
            max_blocks = npoints
        if max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        candidates = _partitions(npoints, max_blocks)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    listings = {} if strategy == "exhaustive_partitions" else None
    failing: set[int] = set()
    for block_masks in itertools.islice(candidates, PARTITION_CAP):
        combos = None
        if listings is not None:
            combos = listings.get(len(block_masks))
            if combos is None:
                combos = listings[len(block_masks)] = tuple(top_subfamilies(len(block_masks), lam))
        if first_failing_subfamily(block_masks, masks, lam, combos, failing) is None:
            blocks = [[i for i in range(npoints) if mask >> i & 1] for mask in block_masks]
            cover = Cover(f.universe, f.arity, blocks)
            interpolants = _interpolants(block_masks, masks, members, lam)
            return DaggerSearchOutcome(DaggerCertificate(cover, lam, interpolants), False, strategy)
    if next(candidates, None) is not None:
        raise ResourceCapExceeded(
            f"partition cap {PARTITION_CAP} reached: visited {PARTITION_CAP} partitions "
            f"of {npoints} domain points into at most {max_blocks} blocks, "
            f"none passing at level {lam}"
        )
    disproof = strategy == "exhaustive_partitions" and max_blocks >= npoints
    return DaggerSearchOutcome(None, disproof, strategy)


def first_disagreement(f: Operation, cover: Cover, interpolants):
    """The first subfamily, in interpolants' order, whose interpolant
    disagrees with f somewhere on the union of its blocks, and the lowest
    domain index where it does; None when every interpolant agrees."""
    block_masks = cover.block_masks()
    for key, t in interpolants.items():
        union = 0
        for b in key:
            union |= block_masks[b]
        wrong = union & ~agreement_mask(f, t)
        if wrong:
            return key, (wrong & -wrong).bit_length() - 1
    return None


def verify_dagger_certificate(
    cert: DaggerCertificate, f: Operation, fragment: CloneFragment
) -> bool:
    """Recheck a certificate: the cover's domain, exact subfamily key set,
    membership of every interpolant, and agreement on every subfamily's
    union. The Cover validated its blocks when it was built."""
    cover = cert.cover
    if (cert.lam < 0 or f.arity > fragment.arity_bound
            or (cover.universe, cover.domain_arity) != (f.universe, f.arity)):
        return False
    if not is_subfamily_key_set(cert.interpolants, len(cover.blocks), cert.lam):
        return False
    member_tables = fragment.tables(f.arity)
    for t in cert.interpolants.values():
        if t.universe != f.universe or t.arity != f.arity or t.table not in member_tables:
            return False
    return first_disagreement(f, cover, cert.interpolants) is None


def ultra_closure_fragment(fragment: CloneFragment, kappa, arity_bound: int) -> CloneFragment:
    """All operations of arity <= arity_bound passing the cover condition
    for every lam < kappa, packaged as a fragment.

    This is the local closure. The all-singletons cover makes every
    lam-interpolable f pass; any lam points lie in at most lam blocks of
    a witnessing cover, so every passing f is lam-interpolable.
    """
    return local_closure_fragment(fragment, kappa, arity_bound)


# --- JSON interchange -------------------------------------------------------
#
# dagger payload {"lambda": l, "arity": n, "universe_size": m,
#                 "cover": [[point index]],
#                 "interpolants": {"0,2": [table ints], "": [...]}}
# Point indices are lexicographic domain positions; subfamily keys are
# finite_core.subset_key strings.

def cover_from_json(universe: Universe, arity: int, blocks) -> Cover:
    """A cover given as lists of lexicographic domain indices."""
    return Cover(universe, arity, [
        [int_from_json(i, "cover point index") for i in block] for block in blocks
    ])


def dagger_to_json(cert: DaggerCertificate) -> dict:
    return {
        "lambda": cert.lam,
        "arity": cert.cover.domain_arity,
        "universe_size": cert.cover.universe.size,
        "cover": [sorted(block) for block in cert.cover.blocks],
        "interpolants": {
            subset_key(key): list(op.table) for key, op in cert.interpolants.items()
        },
    }


def dagger_from_json(data: dict, target: Operation) -> DaggerCertificate:
    """The certificate in data, checked against target. The payload's
    universe size and arity must be the target's; they are compared before
    the cover is read."""
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
