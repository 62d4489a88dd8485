"""Pointwise interpolation and the induced closure at finite scale.

An operation f is s-interpolable by a fragment when every subset S of its
domain with |S| <= s admits a member agreeing with f on S; over a cover,
the same test asks it of every union of at most s blocks. One scan,
first_failing_subfamily, decides both: interp is its all-singletons
cover, and `ultralocal` calls it for every cover it tests. It reads only
the subfamilies of exactly min(s, #blocks) blocks, in
itertools.combinations order: every smaller subfamily lies inside one of
them, and agreement on a union restricts to its parts. The first failing
one is the lexicographically least failing set of that size, interp's
witness.

Closure membership for a bound kappa quantifies over all s < kappa. Since
interpolability is antitone in s, checking the single largest s decides
the whole range; "omega" on a finite universe saturates at s = |domain|,
where interpolation degenerates to table equality.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .clone_engine import CloneFragment, filter_fragment
from .finite_core import Operation, ResourceCapExceeded

OMEGA = "omega"
SUBSET_CAP = 1 << 20


class InterpolationQuery(namedtuple("InterpolationQuery", "target fragment lam")):
    __slots__ = ()

    def __new__(cls, target: Operation, fragment: CloneFragment, lam: int):
        if target.universe != fragment.universe:
            raise ValueError("target and fragment universes differ")
        if target.arity > fragment.arity_bound:
            raise ValueError("target arity above fragment arity bound")
        if lam < 0:
            raise ValueError("subset size must be >= 0")
        return tuple.__new__(cls, (target, fragment, lam))


class InterpolationVerdict(namedtuple("InterpolationVerdict", "holds witness")):
    """holds, and the failing point set (a tuple of domain points) when
    it does not."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.holds


def agreement_mask(f: Operation, t: Operation) -> int:
    """Bitmask over domain indices where the two tables agree."""
    mask = 0
    for idx, (a, b) in enumerate(zip(f.table, t.table)):
        if a == b:
            mask |= 1 << idx
    return mask


def member_masks(query: InterpolationQuery):
    """The members of the target's arity layer and their agreement masks."""
    members = query.fragment.members[query.target.arity]
    return members, [agreement_mask(query.target, t) for t in members]


def top_subfamilies(nblocks: int, lam: int):
    """The first SUBSET_CAP sets of exactly min(lam, nblocks) of the
    blocks range(nblocks), as index tuples in itertools.combinations order."""
    return itertools.islice(itertools.combinations(range(nblocks), min(lam, nblocks)), SUBSET_CAP)


def first_failing_subfamily(block_masks, masks, lam: int, combos=None, failing=None,
                            blocks: str = "cover blocks"):
    """The first of top_subfamilies(#blocks, lam) whose union of
    block_masks lies inside no agreement mask, or None.

    A caller testing many covers passes combos, its listing of those for
    this block count, and failing, the set of unions known to fail, which
    the scan reads first and adds to. When there are more than SUBSET_CAP
    and none of those scanned failed, ResourceCapExceeded says how many,
    naming the blocks.
    """
    if combos is None:
        combos = top_subfamilies(len(block_masks), lam)
    if failing is None:
        failing = set()
    for combo in combos:
        union = 0
        for b in combo:
            union |= block_masks[b]
        if union in failing or not any(union & ~mask == 0 for mask in masks):
            failing.add(union)
            return combo
    nblocks = len(block_masks)
    size = min(lam, nblocks)
    total = math.comb(nblocks, size)
    if total > SUBSET_CAP:
        raise ResourceCapExceeded(
            f"subset cap {SUBSET_CAP} reached: scanned {SUBSET_CAP} of the {total} "
            f"subsets of {size} of the {nblocks} {blocks}, none failing"
        )
    return None


def is_lambda_interpolable(query: InterpolationQuery) -> InterpolationVerdict:
    """The scan on the all-singletons cover of the target's domain.

    The witness, when present, is the lexicographically least failing
    subset of min(lam, |domain|) domain points. At size 0 the one subset
    is the empty set, which fails exactly when the target's arity layer
    has no members.
    """
    target = query.target
    _, masks = member_masks(query)
    singletons = [1 << i for i in range(len(target.table))]
    combo = first_failing_subfamily(singletons, masks, query.lam, blocks="domain points")
    if combo is None:
        return InterpolationVerdict(True, None)
    domain = list(target.universe.tuples(target.arity))
    return InterpolationVerdict(False, tuple(domain[i] for i in combo))


def _max_lambda(kappa, domain_size: int) -> int:
    if kappa == OMEGA:
        return domain_size
    if not isinstance(kappa, int) or kappa < 1:
        raise ValueError(f"closure bound must be a positive integer or 'omega', got {kappa!r}")
    return min(kappa - 1, domain_size)


def local_closure_membership(f: Operation, fragment: CloneFragment, kappa) -> bool:
    """True iff f is s-interpolable for every s < kappa.

    Antitone in s, so only the largest s is checked.
    """
    lam = _max_lambda(kappa, fragment.universe.size ** f.arity)
    return is_lambda_interpolable(InterpolationQuery(f, fragment, lam)).holds


def local_closure_fragment(fragment: CloneFragment, kappa, arity_bound: int) -> CloneFragment:
    """All operations of arity <= arity_bound in the kappa-closure,
    packaged as a fragment (its generator set is its member list)."""
    if arity_bound > fragment.arity_bound:
        raise ValueError(
            "closure fragment bound exceeds the input fragment's arity bound"
        )
    return filter_fragment(
        fragment.universe, arity_bound,
        lambda op: local_closure_membership(op, fragment, kappa),
    )
