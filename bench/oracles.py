"""Reference answers computed without the program's code.

The checker and the input generator use these to judge outputs. Each one
is written from the definition, by direct enumeration, and shares no code
with ``src/clonelab``. Tables use the program's layout: lexicographic
argument order, last argument fastest.
"""

from __future__ import annotations

import itertools


def points(m: int, arity: int) -> list:
    return list(itertools.product(range(m), repeat=arity))


def index_of(m: int, args) -> int:
    idx = 0
    for a in args:
        idx = idx * m + a
    return idx


def projection_tables(m: int, arity: int) -> list:
    pts = points(m, arity)
    return [tuple(p[i] for p in pts) for i in range(arity)]


def compose(m: int, outer: tuple, rows) -> tuple:
    """outer(rows[0](x), ..., rows[n-1](x)) as a table."""
    out = []
    for values in zip(*rows):
        out.append(outer[index_of(m, values)])
    return tuple(out)


def close_layer(m: int, generators, arity: int, cap: int):
    """The set of arity-``arity`` tables generated from the projections by
    the generators (``(arity, table)`` pairs), or None as soon as it would
    hold more than ``cap`` tables.

    Semi-naive closure: a tuple of argument tables is composed only when it
    contains a table found in the previous round.
    """
    members = projection_tables(m, arity)
    seen = set(members)
    if len(seen) > cap:
        return None
    frontier = list(members)
    while frontier:
        old = members[: len(members) - len(frontier)]
        new = []
        for g_arity, g_table in generators:
            for first in range(g_arity):
                pools = [old] * first + [frontier] + [members] * (g_arity - first - 1)
                for rows in itertools.product(*pools):
                    table = compose(m, g_table, rows)
                    if table not in seen:
                        seen.add(table)
                        new.append(table)
                        if len(seen) > cap:
                            return None
        members.extend(new)
        frontier = new
    return seen


def post_complete(generators) -> bool:
    """Post's criterion on {0, 1}: a set is complete iff it lies outside
    each of the five maximal clones."""

    def t0(n, t):
        return t[0] == 0

    def t1(n, t):
        return t[-1] == 1

    def self_dual(n, t):
        top = len(t) - 1
        return all(t[top - i] == 1 - t[i] for i in range(len(t)))

    def monotone(n, t):
        pts = points(2, n)
        return all(
            t[i] <= t[j]
            for i, p in enumerate(pts)
            for j, q in enumerate(pts)
            if all(a <= b for a, b in zip(p, q))
        )

    def affine(n, t):
        pts = points(2, n)
        c = t[0]
        coeffs = [t[index_of(2, tuple(int(k == i) for k in range(n)))] ^ c for i in range(n)]
        return all(
            t[idx] == c ^ (sum(a * x for a, x in zip(coeffs, p)) % 2)
            for idx, p in enumerate(pts)
        )

    classes = (t0, t1, self_dual, monotone, affine)
    return all(any(not cls(n, t) for n, t in generators) for cls in classes)


def preserves(m: int, arity: int, table, tuples) -> bool:
    """Every row-wise application of the operation to relation tuples lies
    in the relation."""
    rel = set(tuples)
    width = len(next(iter(rel))) if rel else 0
    for rows in itertools.product(sorted(rel), repeat=arity):
        image = tuple(table[index_of(m, [row[j] for row in rows])] for j in range(width))
        if image not in rel:
            return False
    return True


def all_tables(m: int, arity: int):
    return itertools.product(range(m), repeat=m ** arity)


def essential_count(m: int, arity: int, table) -> int:
    count = 0
    for i in range(arity):
        for p in points(m, arity):
            base = table[index_of(m, p)]
            if any(
                table[index_of(m, p[:i] + (v,) + p[i + 1:])] != base for v in range(m)
            ):
                count += 1
                break
    return count


def interpolable(m: int, arity: int, target, members, lam: int):
    """(holds, failing point set): some member agrees with the target on
    every set of min(lam, |domain|) points."""
    pts = points(m, arity)
    size = min(lam, len(pts))
    agree = [
        {i for i, (a, b) in enumerate(zip(target, t)) if a == b} for t in members
    ]
    for combo in itertools.combinations(range(len(pts)), size):
        if not any(all(i in s for i in combo) for s in agree):
            return False, [list(pts[i]) for i in combo]
    return True, None


def rho3_tuples(m: int) -> list:
    return [p for p in points(m, 3) if p[0] == p[1] or p[1] == p[2]]


def pi4_tuples(m: int) -> list:
    return [p for p in points(m, 4) if p[0] == p[1] or p[2] == p[3]]


def neq_tuples(m: int) -> list:
    return [p for p in points(m, 2) if p[0] != p[1]]


def graph_tuples(m: int, arity: int, table) -> list:
    return [p + (table[index_of(m, p)],) for p in points(m, arity)]


def product_table(left: int, right: int, arity: int, g, h) -> tuple:
    """The operation acting as g on the left and h on the right factor of
    the paired universe a*right + b."""
    size = left * right
    out = []
    for args in points(size, arity):
        a = g[index_of(left, [u // right for u in args])]
        b = h[index_of(right, [u % right for u in args])]
        out.append(a * right + b)
    return tuple(out)


def splits_as_product(left: int, right: int, arity: int, table) -> bool:
    """Whether the table is the product of its own left and right parts."""
    m = left * right
    g = tuple(table[index_of(m, [a * right for a in p])] // right for p in points(left, arity))
    h = tuple(table[index_of(m, list(p))] % right for p in points(right, arity))
    return product_table(left, right, arity, g, h) == tuple(table)


def gs_member(m: int, arity: int, table, a: int) -> bool:
    """No argument tuple avoiding a is sent to a."""
    others = [x for x in range(m) if x != a]
    return all(table[index_of(m, args)] != a for args in itertools.product(others, repeat=arity))
