"""The finite-intersection-property (FIP) view of the cover condition,
kept as a test oracle that shares no code with `clonelab.ultralocal`.

For each member t of the target's arity layer, take the set of
lam-column matrices (tuples of lam domain points) on which t agrees with
the target in every column. A cover certificate at level lam exists
exactly when finitely many of these sets cover all |D|**lam matrices,
that is, when their complements fail the finite intersection property.
"""

import itertools
from collections import namedtuple

from clonelab.finite_core import ResourceCapExceeded

DEFAULT_MATRIX_CAP = 4096


class EqualizerFamily(namedtuple("EqualizerFamily", "lam domain_size entries")):
    """entries maps each member to the frozenset of lam-column matrices
    on which it agrees with the target."""

    __slots__ = ()

    def matrix_space_size(self) -> int:
        return self.domain_size ** self.lam


def _agreement_points(f, t, domain):
    return [p for p, a, b in zip(domain, f.table, t.table) if a == b]


def equalizer_family(f, fragment, lam, cap=DEFAULT_MATRIX_CAP):
    """Materialize the agreement-matrix sets: each is the lam-th power of
    the member's pointwise agreement set."""
    if lam < 1:
        raise ValueError("equalizer family needs lam >= 1")
    domain = list(f.universe.tuples(f.arity))
    total = len(domain) ** lam
    if total > cap:
        raise ResourceCapExceeded(f"{total} matrices exceed the materialization cap {cap}")
    entries = {
        t: frozenset(itertools.product(_agreement_points(f, t, domain), repeat=lam))
        for t in fragment.members[f.arity]
    }
    return EqualizerFamily(lam, len(domain), entries)


def fip_holds(family):
    """The family is finite, so the complements have the FIP iff the
    agreement sets leave some matrix uncovered."""
    covered = set()
    for matrices in family.entries.values():
        covered |= matrices
    return len(covered) != family.matrix_space_size()


def fip_holds_lazy(f, fragment, lam):
    """Scan the matrices one by one for one that no member agrees on in
    every column; nothing is materialized."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    domain = list(f.universe.tuples(f.arity))
    agree = [set(_agreement_points(f, t, domain)) for t in fragment.members[f.arity]]
    for matrix in itertools.product(domain, repeat=lam):
        if not any(all(p in points for p in matrix) for points in agree):
            return True
    return False
