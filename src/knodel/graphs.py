"""Knödel graphs and the index calculus on their two vertex classes.

The Knödel graph W(delta, n), defined for even n with 2**delta <= n, is the
delta-regular bipartite graph on parts U = {u_1, ..., u_{n/2}} and
V = {v_1, ..., v_{n/2}} in which u_i is adjacent to v_j exactly when

    (j - i) mod (n/2)  is one of  2**k - 1  for  0 <= k < delta.

Labels are 1-based throughout; the paper's 0-based pairs map to them as
(1, j) = u_{j+1} and (2, j) = v_{j+1}.  Adjacency is always evaluated from
this rule; no edge container is ever materialised, so graphs of any order are
O(1) to build.  Internally each vertex also has a *slot*, a 0-based position
in the fixed order u_1..u_{n/2}, v_1..v_{n/2}, which the domination and
solver modules use to index bitmasks.

No other module reads the offsets.  KnodelGraph.neighbor_slots is the rule
for one slot, in offset order.  The rule depends only on j - i, so
W(delta, n) is bi-circulant: KnodelGraph.cover_terms, the only mask form of
the rule, yields a set and its delta cyclic shifts per half, in time linear
in n.  closed_cover ORs them for the verifier, which builds no per-vertex
table; the solver adds them up into neighbour counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator

__all__ = [
    "Side",
    "Vertex",
    "u",
    "v",
    "KnodelGraph",
    "build_graph",
    "neighbors",
    "m_delta",
    "index_distance",
    "CyclicSequence",
    "cyclic_sequence",
    "common_neighbor_predicate",
    "common_neighbors",
]


class Side(str, enum.Enum):
    """Bipartition class of a vertex: U for u-labelled, V for v-labelled."""

    U = "u"
    V = "v"


@dataclass(frozen=True, order=True)
class Vertex:
    """A labelled vertex of some Knödel graph; ordering is U-side first."""

    side: Side
    index: int

    def __str__(self) -> str:
        return f"{self.side.value}{self.index}"


def u(index: int) -> Vertex:
    """The vertex u_index."""
    return Vertex(Side.U, index)


def v(index: int) -> Vertex:
    """The vertex v_index."""
    return Vertex(Side.V, index)


@dataclass(frozen=True)
class KnodelGraph:
    """The Knödel graph W(delta, n), stored as its two parameters only."""

    delta: int
    n: int

    def __post_init__(self) -> None:
        for name, value in (("order", self.n), ("degree", self.delta)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"order must be a positive even integer, got {self.n}")
        if self.delta < 1:
            raise ValueError(f"degree must be at least 1, got {self.delta}")
        if self.n >> self.delta == 0:
            raise ValueError(
                f"degree {self.delta} requires order at least 2**{self.delta}, got {self.n}"
            )

    @property
    def half(self) -> int:
        """Size n/2 of each bipartition class."""
        return self.n // 2

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Adjacency offsets 2**k - 1 for 0 <= k < delta."""
        return tuple(2**k - 1 for k in range(self.delta))

    def check_vertex(self, x: Vertex) -> None:
        """Raise ValueError unless x is a vertex of this graph."""
        if not isinstance(x, Vertex):
            raise ValueError(f"not a vertex: {x!r}")
        if not 1 <= x.index <= self.half:
            raise ValueError(f"vertex {x} out of range: index must be in [1, {self.half}]")

    def slot(self, x: Vertex) -> int:
        """0-based position of x in the order u_1..u_h, v_1..v_h."""
        self.check_vertex(x)
        base = 0 if x.side is Side.U else self.half
        return base + x.index - 1

    def vertex_at(self, slot: int) -> Vertex:
        """Inverse of slot()."""
        if not 0 <= slot < self.n:
            raise ValueError(f"slot {slot} out of range [0, {self.n})")
        if slot < self.half:
            return Vertex(Side.U, slot + 1)
        return Vertex(Side.V, slot - self.half + 1)

    def neighbor_slots(self, slot: int) -> tuple[int, ...]:
        """Slots of the delta neighbours of a slot, in offset order."""
        if not 0 <= slot < self.n:
            raise ValueError(f"slot {slot} out of range [0, {self.n})")
        half = self.half
        if slot < half:
            return tuple(half + (slot + off) % half for off in self.offsets)
        return tuple((slot - off) % half for off in self.offsets)

    def vertices(self) -> Iterator[Vertex]:
        """All vertices in slot order."""
        for i in range(1, self.half + 1):
            yield Vertex(Side.U, i)
        for j in range(1, self.half + 1):
            yield Vertex(Side.V, j)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def u_mask(self) -> int:
        return (1 << self.half) - 1

    def closed_cover(self, mask: int) -> int:
        """Closed neighbourhood of a slot bitmask, as a slot bitmask."""
        return reduce(or_, self.cover_terms(mask))

    def cover_terms(self, mask: int) -> Iterator[int]:
        """mask, then mask rotated by each offset: delta + 1 slot bitmasks.

        A rotation maps S_V down by the offset onto the U half and S_U up onto
        the V half; each half is written out twice, so a rotation is one
        shift.  Offsets are distinct and below n/2, so vertex x lies in
        exactly |N[x] & mask| of the terms and their union is N[mask].
        """
        half = self.half
        u_mask = self.u_mask
        su = mask & u_mask
        sv = mask >> half
        su2 = su << half | su
        sv2 = sv << half | sv
        yield mask
        for off in self.offsets:
            yield sv2 >> off & u_mask | (su2 >> (half - off) & u_mask) << half

    @cached_property
    def cover_masks(self) -> tuple[int, ...]:
        """Closed-neighbourhood bitmask for every slot, in slot order."""
        return tuple(self.closed_cover(1 << s) for s in range(self.n))


def build_graph(delta: int, n: int) -> KnodelGraph:
    """Construct W(delta, n), validating the (delta, n) parameter pair."""
    return KnodelGraph(delta, n)


def neighbors(g: KnodelGraph, x: Vertex) -> frozenset[Vertex]:
    """Open neighbourhood of x in g, evaluated from the offset rule."""
    return frozenset(map(g.vertex_at, g.neighbor_slots(g.slot(x))))


@lru_cache(maxsize=None)
def m_delta(delta: int) -> frozenset[int]:
    """The difference set {2**a - 2**b : 0 <= b < a < delta}.

    Membership of an index distance in this set (or of its complement to
    n/2) characterises same-side vertex pairs with a common neighbour.
    """
    if delta < 2:
        raise ValueError(f"degree must be at least 2, got {delta}")
    return frozenset(
        2**a - 2**b for a in range(1, delta) for b in range(a)
    )


def _check_same_side_pair(g: KnodelGraph, a: Vertex, b: Vertex) -> None:
    g.check_vertex(a)
    g.check_vertex(b)
    if a.side is not b.side:
        raise ValueError(f"{a} and {b} lie in different bipartition classes")
    if a == b:
        raise ValueError(f"vertices must be distinct, got {a} twice")


def index_distance(g: KnodelGraph, a: Vertex, b: Vertex) -> int:
    """Cyclic distance min(|i-j|, n/2 - |i-j|) between two same-side vertices."""
    _check_same_side_pair(g, a, b)
    d = abs(a.index - b.index)
    return min(d, g.half - d)


@dataclass(frozen=True)
class CyclicSequence:
    """Gap sequence of a set of same-side indices around the cycle Z_{n/2}.

    gaps[j] is the index step from the j-th chosen vertex to the next in
    ascending order, the final entry wrapping around; the entries are
    positive and sum to half = n/2.
    """

    gaps: tuple[int, ...]
    half: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gaps", tuple(self.gaps))
        if not self.gaps:
            raise ValueError("gap sequence must be non-empty")
        if any(not isinstance(q, int) or q <= 0 for q in self.gaps):
            raise ValueError(f"gaps must be positive integers, got {self.gaps}")
        if sum(self.gaps) != self.half:
            raise ValueError(
                f"gaps {self.gaps} sum to {sum(self.gaps)}, expected {self.half}"
            )

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[int]:
        return iter(self.gaps)


def cyclic_sequence(g: KnodelGraph, s: Iterable[Vertex]) -> CyclicSequence:
    """Gap sequence of a non-empty set of vertices from a single side of g."""
    vs = sorted(set(s))
    if not vs:
        raise ValueError("vertex set must be non-empty")
    side = vs[0].side
    for x in vs:
        g.check_vertex(x)
        if x.side is not side:
            raise ValueError("vertex set must lie in a single bipartition class")
    idx = [x.index for x in vs]
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    gaps.append(g.half + idx[0] - idx[-1])
    return CyclicSequence(tuple(gaps), g.half)


def common_neighbor_predicate(g: KnodelGraph, a: Vertex, b: Vertex) -> bool:
    """Whether two same-side vertices share a neighbour, via the difference set.

    True exactly when index_distance(g, a, b) or n/2 minus it lies in
    m_delta(g.delta); equivalent to common_neighbors(g, a, b) being
    non-empty, but computed in O(1) from the distance alone.
    """
    d = index_distance(g, a, b)
    m = m_delta(g.delta)
    return d in m or (g.half - d) in m


def common_neighbors(g: KnodelGraph, a: Vertex, b: Vertex) -> frozenset[Vertex]:
    """Common neighbourhood N(a) & N(b) of two same-side vertices."""
    _check_same_side_pair(g, a, b)
    return neighbors(g, a) & neighbors(g, b)
