"""Dominating-set machinery: immutable vertex sets, the verifier, and bounds.

A set D dominates W(delta, n) when every vertex is in D or adjacent to a
member of D.  Vertex sets are bitmasks over graph slots, and the verifier is
2 * delta cyclic shifts of their two halves (KnodelGraph.closed_cover), linear
in n; it is the single source of truth for every construction and certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import KnodelGraph, Vertex

__all__ = [
    "VertexSet",
    "closed_neighborhood",
    "is_dominating",
    "undominated",
    "gamma_bounds",
    "greedy_upper_bound",
]


def _positions(mask: int) -> list[int]:
    """Ascending 0-based positions of the set bits of mask, in O(bits)."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]


def _slots_mask(n: int, slots: Iterable[int]) -> int:
    """Bitmask over n slots with the given slots set, in O(n + len(slots))."""
    buf = bytearray((n + 7) // 8)
    for slot in slots:
        buf[slot >> 3] |= 1 << (slot & 7)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class VertexSet:
    """An immutable subset of a graph's vertices, backed by a slot bitmask."""

    graph: KnodelGraph
    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.graph.n:
            raise ValueError("mask has bits outside the graph's slot range")

    @classmethod
    def empty(cls, graph: KnodelGraph) -> "VertexSet":
        return cls(graph, 0)

    @classmethod
    def full(cls, graph: KnodelGraph) -> "VertexSet":
        return cls(graph, graph.full_mask)

    @classmethod
    def of(cls, graph: KnodelGraph, vertices: Iterable[Vertex]) -> "VertexSet":
        """Set containing the given vertices, each validated against graph."""
        return cls(graph, _slots_mask(graph.n, map(graph.slot, vertices)))

    @classmethod
    def from_indices(
        cls,
        graph: KnodelGraph,
        u_indices: Iterable[int] = (),
        v_indices: Iterable[int] = (),
    ) -> "VertexSet":
        """Set {u_i : i in u_indices} | {v_j : j in v_indices}."""
        half = graph.half
        us, vs = list(u_indices), list(v_indices)
        for i in us + vs:
            if not 1 <= i <= half:
                raise ValueError(f"vertex index {i} out of range [1, {half}]")
        slots = [i - 1 for i in us] + [half + j - 1 for j in vs]
        return cls(graph, _slots_mask(graph.n, slots))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: Vertex) -> bool:
        return bool(self.mask >> self.graph.slot(x) & 1)

    def __iter__(self) -> Iterator[Vertex]:
        """Members in slot order: u-side ascending, then v-side ascending."""
        return map(self.graph.vertex_at, _positions(self.mask))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_graph(other)
        return VertexSet(self.graph, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_graph(other)
        return VertexSet(self.graph, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_graph(other)
        return VertexSet(self.graph, self.mask & ~other.mask)

    def _check_same_graph(self, other: "VertexSet") -> None:
        if self.graph != other.graph:
            raise ValueError("vertex sets belong to different graphs")

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same_graph(other)
        return self.mask & ~other.mask == 0

    @property
    def u_indices(self) -> tuple[int, ...]:
        """Sorted u-side indices of the members."""
        return tuple(i + 1 for i in _positions(self.mask & self.graph.u_mask))

    @property
    def v_indices(self) -> tuple[int, ...]:
        """Sorted v-side indices of the members."""
        return tuple(j + 1 for j in _positions(self.mask >> self.graph.half))


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
    return VertexSet(g, g.full_mask & ~closed_neighborhood(g, s).mask)


def gamma_bounds(g: KnodelGraph) -> tuple[int, int]:
    """General bounds ceil(n / (delta + 1)) <= gamma <= n - delta."""
    lower = -(-g.n // (g.delta + 1))
    return lower, g.n - g.delta


def greedy_upper_bound(g: KnodelGraph) -> VertexSet:
    """Dominating set built by repeatedly taking a vertex of maximum new cover.

    Ties are broken by lowest slot, i.e. side U before side V and then by
    ascending index, which makes the result deterministic.  Each slot's gain,
    the number of uncovered vertices in its closed neighbourhood, is kept in
    a list and lowered as vertices become covered, so memory is linear in n.
    """
    half, offsets = g.half, g.offsets
    closed = [{i, *(half + (i + off) % half for off in offsets)} for i in range(half)]
    closed += [{half + j, *((j - off) % half for off in offsets)} for j in range(half)]
    gain = [len(c) for c in closed]
    covered = bytearray(g.n)
    uncovered = g.n
    chosen = []
    while uncovered:
        best = gain.index(max(gain))
        chosen.append(best)
        for x in closed[best]:
            if not covered[x]:
                covered[x] = 1
                uncovered -= 1
                for y in closed[x]:
                    gain[y] -= 1
    return VertexSet(g, _slots_mask(g.n, chosen))
