"""Knödel graphs: vertex labels, slots and the offset rule.

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

_offsets states the rule and KnodelGraph checks (delta, n) for every module;
m_delta in sequences.py, with index distances and gap sequences, is the
differences of _offsets(delta).  neighbor_slots is the rule for one slot, in
offset order.  The rule depends only on j - i, so W(delta, n) is
bi-circulant: cover_counts, the mask form of the rule, sums a set and its
delta cyclic shifts per half into bit planes of neighbour counts for greedy
and the solver, in time linear in n.  closed_cover, the union of those
shifts, is the verifier's one call and the solver's forced-waste test, so it
ORs them in one Horner chain per half; twice_covered, the slots that two of
the terms reach, serves that test's graded tier.  cover_masks and near_masks,
the per-slot tables of radius one and two, are u_1's and v_1's rows rotated.
The shift kernels (closed_cover, twice_covered, cover_counts and
neighbor_slots) read the graph's constants from one cached tuple,
_constants, with one attribute load per call: once a cached_property has
written into a graph's __dict__, each attribute load on the graph is a
slower dictionary lookup (several times slower on CPython 3.11), and these
kernels run at every search node.
_Record, the base of every record class, behaves as a frozen dataclass.
"""

from __future__ import annotations

import enum
from functools import cached_property, total_ordering
from operator import attrgetter

__all__ = [
    "Side",
    "Vertex",
    "u",
    "v",
    "KnodelGraph",
    "build_graph",
    "neighbors",
]


def _offsets(delta: int) -> tuple[int, ...]:
    """The adjacency offsets of W(delta, n), ascending."""
    return tuple(2**k - 1 for k in range(delta))


def _check_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class _Record:
    """A frozen-dataclass-like record over the fields named in __match_args__.
    A subclass's __init__ checks its arguments and stores them with _set;
    pickle and copy rebuild a record through __init__ from its field values."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = property(attrgetter(*cls.__match_args__))

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values


class Side(str, enum.Enum):
    """Bipartition class of a vertex: U for u-labelled, V for v-labelled."""

    U = "u"
    V = "v"


@total_ordering
class Vertex(_Record):
    """A labelled vertex of some Knödel graph; ordering is U-side first.

    A side equal to Side.U or Side.V (such as "u") is stored as that member.
    """

    __slots__ = __match_args__ = ("side", "index")

    def __init__(self, side: Side, index: int) -> None:
        if side.__class__ is not Side:
            if side not in ("u", "v"):
                raise ValueError(f"vertex side must be Side.U or Side.V, got {side!r}")
            side = Side(side)
        self._set(side, index)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.side.value}{self.index}"


def u(index: int) -> Vertex:
    """The vertex u_index."""
    return Vertex(Side.U, index)


def v(index: int) -> Vertex:
    """The vertex v_index."""
    return Vertex(Side.V, index)


class KnodelGraph(_Record):
    """The Knödel graph W(delta, n), stored as its two parameters only."""

    __match_args__ = ("delta", "n")  # no __slots__: cached_property needs a __dict__

    def __init__(self, delta: int, n: int) -> None:
        _check_int("order", n)
        _check_int("degree", delta)
        if n < 2 or n % 2 != 0:
            raise ValueError(f"order must be a positive even integer, got {n}")
        if delta < 1:
            raise ValueError(f"degree must be at least 1, got {delta}")
        if n >> delta == 0:
            raise ValueError(f"degree {delta} requires order at least 2**{delta}, got {n}")
        self._set(delta, n)

    @cached_property
    def half(self) -> int:
        """Size n/2 of each bipartition class."""
        return self.n // 2

    def check_vertex(self, x: Vertex) -> None:
        """Raise ValueError unless x is a vertex of this graph."""
        if not isinstance(x, Vertex):
            raise ValueError(f"not a vertex: {x!r}")
        _check_int("vertex index", x.index)
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
        half, _, _, _, shifts = self._constants
        if not 0 <= slot < 2 * half:
            raise ValueError(f"slot {slot} out of range [0, {self.n})")
        # tuple() of a list is faster than of a generator, and export calls
        # this once per slot.
        if slot < half:
            return tuple([half + (slot + off) % half for off, _ in shifts])
        return tuple([(slot - off) % half for off, _ in shifts])

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def u_mask(self) -> int:
        return (1 << self.half) - 1

    @cached_property
    def _constants(self) -> tuple:
        """(half, u_mask, top, steps, shifts) for the shift kernels: top is
        the largest offset, steps closed_cover's (down, up) shift pairs and
        shifts the (off, half - off) pairs that place the doubled v-half on U
        and the doubled u-half on V."""
        half, delta = self.half, self.delta
        steps = tuple((1 << delta - 2 - k, 1 << k) for k in range(delta - 1))
        offsets = _offsets(delta)
        shifts = tuple((off, half - off) for off in offsets)
        return half, self.u_mask, offsets[-1], steps, shifts

    def closed_cover(self, mask: int) -> int:
        """Closed neighbourhood of a slot bitmask, as a slot bitmask.

        The union of the terms cover_counts sums.  As 2**k - 1 = 1 + 2 + ...
        + 2**(k-1), x | (x | (x | x >> 4) >> 2) >> 1 is x shifted by each
        offset 0, 1, 3, 7: delta - 1 shift-ORs per half, on n/2 + top bits
        (top the largest offset).  V's chain takes the steps in reverse, on
        the u-half rotated up by top, so its shifts are top - offset.
        """
        half, u_mask, top, steps, _ = self._constants
        su = mask & u_mask
        sv = mask >> half
        to_u = sv2 = (sv & (1 << top) - 1) << half | sv
        to_v = su2 = su << top | su >> (half - top)
        for down, up in steps:
            to_u = sv2 | to_u >> down
            to_v = su2 | to_v >> up
        return mask | to_u & u_mask | (to_v & u_mask) << half

    def twice_covered(self, mask: int) -> int:
        """Slots whose closed neighbourhood meets a slot bitmask at least twice.

        One pass over closed_cover's shifts, keeping per half the slots that
        the terms so far meet once and twice.
        """
        half, u_mask, _, _, shifts = self._constants
        once_u = mask & u_mask
        once_v = mask >> half
        su2 = once_u << half | once_u
        sv2 = once_v << half | once_v
        twice_u = twice_v = 0
        for off, back in shifts:
            term = sv2 >> off
            twice_u |= once_u & term
            once_u |= term
            term = su2 >> back
            twice_v |= once_v & term
            once_v |= term
        return twice_u & u_mask | (twice_v & u_mask) << half

    def cover_counts(self, mask: int) -> list[int]:
        """Bit x of planes[i] is bit i of |N[x] & mask|.

        The planes sum delta + 1 terms: mask, then mask rotated by each
        offset.  A rotation maps S_V down by the offset onto the U half and
        S_U up onto the V half; each half is written out twice, so a
        rotation is one shift.  Offsets are distinct and below n/2, so
        vertex x lies in exactly |N[x] & mask| of the terms.
        """
        half, u_mask, _, _, shifts = self._constants
        su = mask & u_mask
        sv = mask >> half
        su2 = su << half | su
        sv2 = sv << half | sv
        terms = [mask]
        for off, back in shifts:
            terms.append(sv2 >> off & u_mask | (su2 >> back & u_mask) << half)
        planes = [0] * len(terms).bit_length()
        for carry in terms:
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
        return planes

    def _rotations(self, *rows: int) -> tuple[int, ...]:
        """Each row rotated on both halves by 0..n/2 - 1, an automorphism."""
        half, u_mask = self.half, self.u_mask
        table = []
        for row in rows:
            ru, rv = row & u_mask, row >> half
            ru2, rv2 = ru << half | ru, rv << half | rv
            for back in range(half, 0, -1):
                table.append(ru2 >> back & u_mask | (rv2 >> back & u_mask) << half)
        return tuple(table)

    @cached_property
    def cover_masks(self) -> tuple[int, ...]:
        """Closed-neighbourhood bitmask for every slot, in slot order."""
        return self._rotations(self.closed_cover(1), self.closed_cover(1 << self.half))

    @cached_property
    def near_masks(self) -> tuple[int, ...]:
        """Slots within distance two of every slot: closed_cover of its cover mask."""
        return self._rotations(*map(self.closed_cover, self.cover_masks[:: self.half]))


def build_graph(delta: int, n: int) -> KnodelGraph:
    """Construct W(delta, n), validating the (delta, n) parameter pair."""
    return KnodelGraph(delta, n)


def neighbors(g: KnodelGraph, x: Vertex) -> frozenset[Vertex]:
    """Open neighbourhood of x in g, evaluated from the offset rule."""
    return frozenset(map(g.vertex_at, g.neighbor_slots(g.slot(x))))
