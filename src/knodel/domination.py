"""Dominating-set machinery: immutable vertex sets, the verifier, and bounds.

A set D dominates W(delta, n) when every vertex is in D or adjacent to a
member of D.  Vertex sets are bitmasks over graph slots, and the verifier is
one chain of delta - 1 shift-ORs per half (KnodelGraph.closed_cover), linear
in n; it is the single source of truth for every construction and certificate.
Greedy, like the solver, reads new cover from KnodelGraph.cover_counts.
Masks convert to and from index and slot lists (_positions, _slots_mask)
through bin(), bytes.translate and itertools, linear in n with no Python
loop per bit or index.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from typing import Iterable, Iterator

from .graphs import KnodelGraph, Vertex, _check_int, _Record

__all__ = [
    "VertexSet",
    "closed_neighborhood",
    "is_dominating",
    "undominated",
    "gamma_bounds",
    "greedy_upper_bound",
]


# bin() digits <-> one byte per slot, 0 or 1.
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _positions(mask: int, base: int = 0) -> list[int]:
    """Ascending positions of the set bits of mask, numbered from base."""
    flags = bin(mask)[:1:-1].encode().translate(_TO_FLAGS)
    return list(compress(range(base, base + len(flags)), flags))


def _slots_mask(n: int, slots: Iterable[int], base: int = 0) -> int:
    """Bitmask over n slots, one store per s in slots: bit s - base, s in [base, base + n)."""
    flags = bytearray(base + n)
    deque(map(flags.__setitem__, slots, repeat(1)), maxlen=0)
    del flags[:base]
    return int(flags[::-1].translate(_TO_DIGITS), 2)


class VertexSet(_Record):
    """An immutable subset of a graph's vertices, backed by a slot bitmask."""

    __slots__ = __match_args__ = ("graph", "mask")

    def __init__(self, graph: KnodelGraph, mask: int = 0) -> None:
        _check_int("mask", mask)
        if mask < 0 or mask >> graph.n:
            raise ValueError("mask has bits outside the graph's slot range")
        self._set(graph, mask)

    @classmethod
    def from_indices(
        cls, graph: KnodelGraph, u_indices: Iterable[int] = (), v_indices: Iterable[int] = ()
    ) -> "VertexSet":
        """Set {u_i : i in u_indices} | {v_j : j in v_indices}.

        Each side, any iterable, is read into a list, checked by one scan of
        its types (an int, not a bool) and one min/max, then set per index.
        """
        half = graph.half
        us, vs = sides = list(u_indices), list(v_indices)
        for side in filter(None, sides):
            if not {int}.issuperset(map(type, side)):
                for i in side:
                    _check_int("vertex index", i)
            if not 1 <= min(side) <= max(side) <= half:
                bad = next(i for i in side if not 1 <= i <= half)
                raise ValueError(f"vertex index {bad} out of range [1, {half}]")
        mask = _slots_mask(half, us, base=1) | _slots_mask(half, vs, base=1) << half
        return cls(graph, mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: Vertex) -> bool:
        return bool(self.mask >> self.graph.slot(x) & 1)

    def __iter__(self) -> Iterator[Vertex]:
        """Members in slot order: u-side ascending, then v-side ascending."""
        return map(self.graph.vertex_at, _positions(self.mask))

    @property
    def u_indices(self) -> tuple[int, ...]:
        """Sorted u-side indices of the members."""
        return tuple(_positions(self.mask & self.graph.u_mask, 1))

    @property
    def v_indices(self) -> tuple[int, ...]:
        """Sorted v-side indices of the members."""
        return tuple(_positions(self.mask >> self.graph.half, 1))


def _check_bound(g: KnodelGraph, s: VertexSet) -> None:
    if s.graph != g:
        raise ValueError(f"vertex set is bound to {s.graph}, not {g}")


def closed_neighborhood(g: KnodelGraph, s: VertexSet) -> VertexSet:
    """Union of s with every neighbourhood of a member of s."""
    _check_bound(g, s)
    return VertexSet(g, g.closed_cover(s.mask))


def is_dominating(g: KnodelGraph, s: VertexSet) -> bool:
    """Whether every vertex of g is in s or adjacent to a member of s."""
    return closed_neighborhood(g, s).mask == g.full_mask


def undominated(g: KnodelGraph, s: VertexSet) -> VertexSet:
    """All vertices left uncovered by s; empty exactly when s dominates."""
    return VertexSet(g, g.full_mask ^ closed_neighborhood(g, s).mask)


def gamma_bounds(g: KnodelGraph) -> tuple[int, int]:
    """General bounds ceil(n / (delta + 1)) <= gamma <= n - delta."""
    lower = -(-g.n // (g.delta + 1))
    return lower, g.n - g.delta


def greedy_upper_bound(g: KnodelGraph) -> VertexSet:
    """Dominating set built by repeatedly taking a vertex of maximum new cover.

    Ties go to the lowest slot (side U first, then ascending index), so the
    result is deterministic.  New covers are KnodelGraph.cover_counts of the
    undominated set, the bit planes the solver counts candidates with.
    """
    # top holds the slots of the highest count.  Counts only fall, and a pick
    # lowers those of the slots meeting what it covers, so rebuild when top empties.
    und, top, chosen = g.full_mask, 0, 0
    while und:
        if not top:
            top = g.full_mask
            for plane in reversed(g.cover_counts(und)):
                if top & plane:
                    top &= plane
        pick = top & -top
        chosen |= pick
        lost = und & g.closed_cover(pick)
        und ^= lost
        top ^= top & g.closed_cover(lost)
    return VertexSet(g, chosen)
