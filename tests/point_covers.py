"""Covers written as blocks of domain points.

clonelab.ultralocal.Cover holds lexicographic domain indices, the
positions of an operation table. Tests that think in argument tuples build
their covers through point_cover, which numbers the points independently of
the library.
"""

import itertools

from clonelab.ultralocal import Cover


def point_cover(universe, arity, blocks) -> Cover:
    """The cover whose blocks are the given sets of argument tuples."""
    index = {p: i for i, p in enumerate(itertools.product(range(universe.size), repeat=arity))}
    return Cover(universe, arity, [[index[p] for p in block] for block in blocks])
