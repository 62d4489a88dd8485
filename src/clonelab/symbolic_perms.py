"""Finite-support permutations of the natural numbers.

The base set is all of the naturals; a permutation stores only its moved
points, so membership checks (evenness, support bounds) are finite even
though the ambient set is not. Only cover witnesses are window-relative:
one is built inside an explicit finite window [0, N), and every claim it
backs holds on that window. Membership in Alt_B for a finite B needs no
window: Alt_B is a finite group, hence its own local closure, so in_alt_B
decides it from the moved points alone.
"""

from __future__ import annotations

from collections import namedtuple

from .finite_core import (
    ResourceCapExceeded, int_from_json, int_from_json_key, is_subfamily_key_set,
    object_from_json, parse_subset_key, subfamilies, subset_key, table_from_json,
)

INTERPOLANT_CAP = 1 << 18
WINDOW_CAP = 1 << 16


class FinSuppPermutation:
    """A bijection of the naturals moving finitely many points.

    Only non-fixed points are stored; the stored map must be a bijection
    of its key set onto itself.
    """

    __slots__ = ("moved",)

    def __init__(self, moved: dict[int, int]):
        cleaned = {}
        for k, v in moved.items():
            if k < 0 or v < 0:
                raise ValueError("permutations act on the naturals")
            if k != v:
                cleaned[k] = v
        if len(set(cleaned.values())) != len(cleaned):
            raise ValueError("moved map is not injective")
        if set(cleaned.keys()) != set(cleaned.values()):
            raise ValueError("moved map does not close up: domain != range")
        self.moved = cleaned

    def __call__(self, x: int) -> int:
        return self.moved.get(x, x)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSuppPermutation) and self.moved == other.moved

    def __hash__(self) -> int:
        return hash(frozenset(self.moved.items()))

    def __repr__(self) -> str:
        if not self.moved:
            return "FinSuppPermutation(identity)"
        cyc = "".join(
            "(" + " ".join(map(str, c)) + ")" for c in self.cycles()
        )
        return f"FinSuppPermutation({cyc})"

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.moved)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point,
        sorted by that point."""
        seen = set()
        out = []
        for start in sorted(self.moved):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self.moved[start]
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self.moved[nxt]
            out.append(tuple(cycle))
        return out

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0


def identity() -> FinSuppPermutation:
    return FinSuppPermutation({})


def transposition(a: int, b: int) -> FinSuppPermutation:
    if a == b:
        raise ValueError("a transposition needs two distinct points")
    return FinSuppPermutation({a: b, b: a})


def from_cycles(cycles) -> FinSuppPermutation:
    moved: dict[int, int] = {}
    for cycle in cycles:
        cycle = tuple(cycle)
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"cycle {cycle} repeats a point")
        for point in cycle:
            if point in moved:
                raise ValueError("cycles are not disjoint")
        for i, point in enumerate(cycle):
            moved[point] = cycle[(i + 1) % len(cycle)]
    return FinSuppPermutation(moved)


def compose(p: FinSuppPermutation, q: FinSuppPermutation) -> FinSuppPermutation:
    """(p after q): x maps to p(q(x))."""
    points = set(p.moved) | set(q.moved)
    return FinSuppPermutation({x: p(q(x)) for x in points})


def inverse(p: FinSuppPermutation) -> FinSuppPermutation:
    return FinSuppPermutation({v: k for k, v in p.moved.items()})


def parity(p: FinSuppPermutation) -> str:
    """Transposition-count parity from the cycle decomposition."""
    return "even" if p.is_even() else "odd"


def in_alt(p: FinSuppPermutation) -> bool:
    return p.is_even()


def in_alt_B(p: FinSuppPermutation, support_bound) -> bool:
    return p.is_even() and p.support <= frozenset(support_bound)


# --- cover witnesses inside a window ----------------------------------------

class SymbolicCover(namedtuple("SymbolicCover", "window blocks")):
    """A partition of the window [0, N) into a tuple of frozensets; queries
    outside the window are rejected by the operations using it."""

    __slots__ = ()

    def __new__(cls, window: int, blocks: tuple[frozenset[int], ...]):
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("empty blocks are rejected")
            if block & seen:
                raise ValueError("blocks must be disjoint")
            seen |= block
        # window distinct points, all in [0, window), are the whole window.
        if len(seen) != window or any(not 0 <= x < window for x in seen):
            raise ValueError("blocks must partition the window")
        return tuple.__new__(cls, (window, blocks))


class AltCoverWitness(namedtuple("AltCoverWitness", "k a b cover interpolants")):
    """A window cover for the transposition (a b) at level k; interpolants
    maps each subfamily of at most k block indices (a frozenset) to an even
    FinSuppPermutation."""

    __slots__ = ()


def block_index(cover: SymbolicCover) -> dict[int, int]:
    """The index of the block holding each window point."""
    return {point: i for i, block in enumerate(cover.blocks) for point in block}


def agrees_on_blocks(p: FinSuppPermutation, q: FinSuppPermutation, block_of, key) -> bool:
    """Whether p and q agree on the union of the blocks in key. Both fix
    every point outside their supports, so only those points are read."""
    return all(
        p(x) == q(x) for x in p.support | q.support if block_of.get(x) in key
    )


def alt_cover_witness(k: int, a: int, b: int, window: int) -> AltCoverWitness:
    """Window partition witnessing that the transposition (a b) agrees
    with an even permutation on every union of at most k blocks. There
    is one interpolant per subfamily, 2**(k+1) - 1 of them, and past
    INTERPOLANT_CAP none is built; nor is a window past WINDOW_CAP listed.

    The partition puts a and b into the first block and uses consecutive
    runs of equal size (the last block absorbs the remainder), so every
    block has at least two points. For a subfamily containing the first
    block the witnessing permutation is (a b)(c d) with c, d drawn from
    the lowest-index block outside the subfamily; otherwise the identity
    already agrees.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if a == b:
        raise ValueError("need two distinct moved points")
    if a >= window or b >= window or a < 0 or b < 0:
        raise ValueError("moved points must lie inside the window")
    nblocks = k + 1
    size = window // nblocks
    if size < 2:
        raise ValueError(
            f"window {window} too small for {nblocks} blocks of size >= 2"
        )
    # Every subfamily of at most k of the k + 1 blocks, all but the full one.
    count = (1 << nblocks) - 1
    if count > INTERPOLANT_CAP:
        raise ResourceCapExceeded(
            f"{count} interpolants at k = {k} exceed cap {INTERPOLANT_CAP}"
        )
    if window > WINDOW_CAP:
        raise ResourceCapExceeded(f"window {window} exceeds cap {WINDOW_CAP}")
    order = [a, b] + sorted(set(range(window)) - {a, b})
    blocks = []
    for i in range(nblocks):
        if i < nblocks - 1:
            blocks.append(frozenset(order[i * size:(i + 1) * size]))
        else:
            blocks.append(frozenset(order[i * size:]))
    cover = SymbolicCover(window, tuple(blocks))

    target = transposition(a, b)
    block_of = block_index(cover)
    lowest_pairs = [sorted(block)[:2] for block in blocks]
    interpolants: dict[frozenset[int], FinSuppPermutation] = {}
    for key in subfamilies(nblocks, k):
        if 0 not in key:
            interpolant = identity()
        else:
            outside = min(i for i in range(nblocks) if i not in key)
            interpolant = compose(target, transposition(*lowest_pairs[outside]))
        if not agrees_on_blocks(interpolant, target, block_of, key):
            raise AssertionError(f"constructed interpolant for blocks {sorted(key)} disagrees")
        interpolants[key] = interpolant
    return AltCoverWitness(k, a, b, cover, interpolants)


def verify_alt_cover(witness: AltCoverWitness) -> bool:
    """Recheck a cover witness: the SymbolicCover validated its partition
    when it was built, so this checks the moved points, the block sizes,
    the subfamily keys and every interpolant."""
    cover = witness.cover
    nblocks = len(cover.blocks)
    if witness.a == witness.b:
        return False
    first = cover.blocks[0] if nblocks else frozenset()
    if witness.a not in first or witness.b not in first:
        return False
    if any(len(block) < 2 for block in cover.blocks):
        return False
    if not is_subfamily_key_set(witness.interpolants, nblocks, witness.k):
        return False
    target = transposition(witness.a, witness.b)
    block_of = block_index(cover)
    return all(
        interpolant.is_even() and agrees_on_blocks(interpolant, target, block_of, key)
        for key, interpolant in witness.interpolants.items()
    )


# --- JSON interchange ---------------------------------------------------------

def permutation_to_json(p: FinSuppPermutation) -> dict:
    return {"moved": {str(k): v for k, v in sorted(p.moved.items())}}


def moved_map_from_json(moved) -> dict[int, int]:
    """A JSON object from decimal point keys to integer images."""
    return {
        int_from_json_key(k, "moved point"): int_from_json(v, "moved point image")
        for k, v in object_from_json(moved, "moved map").items()
    }


def alt_cover_to_json(witness: AltCoverWitness) -> dict:
    return {
        "k": witness.k,
        "a": witness.a,
        "b": witness.b,
        "window": witness.cover.window,
        "blocks": [sorted(block) for block in witness.cover.blocks],
        "interpolants": {
            subset_key(key): permutation_to_json(p)["moved"]
            for key, p in witness.interpolants.items()
        },
    }


def alt_cover_from_json(data: dict) -> AltCoverWitness:
    cover = SymbolicCover(
        int_from_json(data["window"], "window"),
        tuple(frozenset(table_from_json(block, "block")) for block in data["blocks"]),
    )
    interpolants = {
        parse_subset_key(key): FinSuppPermutation(moved_map_from_json(moved))
        for key, moved in object_from_json(data["interpolants"], "interpolants").items()
    }
    return AltCoverWitness(
        int_from_json(data["k"], "k"),
        int_from_json(data["a"], "a"),
        int_from_json(data["b"], "b"),
        cover,
        interpolants,
    )


def recheck_alt_cover(witness: AltCoverWitness) -> str | None:
    return None if verify_alt_cover(witness) else "cover witness fails recheck"
