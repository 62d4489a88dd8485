"""Pointwise interpolation and the induced closure at finite scale.

An operation f is s-interpolable by a fragment when every subset S of its
domain with |S| <= s admits a member agreeing with f on S. Enumerating
only subsets of maximal size min(s, |domain|) is sound: agreement on a
set restricts to agreement on its subsets.

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


def is_lambda_interpolable(query: InterpolationQuery) -> InterpolationVerdict:
    """Decide interpolability on all subsets of size min(lam, |domain|).

    The witness, when present, is the lexicographically least failing
    subset of domain points. At size 0 the one subset is the empty set,
    which fails exactly when the target's arity layer has no members.
    At most SUBSET_CAP subsets are scanned; past that, the scan stops
    with ResourceCapExceeded.
    """
    target = query.target
    n = target.arity
    domain = list(target.universe.tuples(n))
    size = min(query.lam, len(domain))
    masks = [
        agreement_mask(target, t) for t in query.fragment.members[n]
    ]
    combos = itertools.combinations(range(len(domain)), size)
    for combo in itertools.islice(combos, SUBSET_CAP):
        s_mask = 0
        for idx in combo:
            s_mask |= 1 << idx
        if not any(s_mask & ~m == 0 for m in masks):
            return InterpolationVerdict(
                False, tuple(domain[idx] for idx in combo)
            )
    if next(combos, None) is not None:
        raise ResourceCapExceeded(
            f"subset cap {SUBSET_CAP} reached: scanned {SUBSET_CAP} of the "
            f"{math.comb(len(domain), size)} subsets of {size} of the {len(domain)} "
            f"domain points, none failing"
        )
    return InterpolationVerdict(True, None)


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
