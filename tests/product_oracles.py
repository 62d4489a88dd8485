"""Oracles for product universes, shared by the structure and acceptance
tests.

commutes_with_band restates the band-commutation identity point by point,
independently of structure_detect's decomposition; product_clone builds
the product of two fragments member by member.
"""

from clonelab.clone_engine import CloneFragment
from clonelab.structure_detect import ProductUniverse, product_operation, star_operation


def commutes_with_band(pu, f):
    """Check the commutation identity over all pairs of argument tuples,
    with the band operation applied entrywise."""
    star = star_operation(pu)
    paired = pu.paired
    n = f.arity
    for us in paired.tuples(n):
        fu = f.table[f.index_of(us)]
        for vs in paired.tuples(n):
            mixed = tuple(star.table[star.index_of((u, v))] for u, v in zip(us, vs))
            lhs = f.table[f.index_of(mixed)]
            rhs = star.table[star.index_of((fu, f.table[f.index_of(vs)]))]
            if lhs != rhs:
                return False
    return True


def product_clone(P, Q, bound):
    """Arity-j members: the products of an arity-j member of P with one of Q."""
    pu = ProductUniverse(P.universe, Q.universe)
    members = {j: tuple(product_operation(pu, g, h) for g in P.members[j] for h in Q.members[j])
               for j in range(1, bound + 1)}
    return CloneFragment.from_members(pu.paired, bound, members)
