"""The gap-sequence calculus on one vertex class, and its census.

Two same-side vertices of W(delta, n) share a neighbour exactly when their
cyclic index distance, or n/2 minus it, lies in the difference set m_delta;
common_neighbor_predicate decides this in O(1) from the distance.

A set of k same-side vertices determines a cyclic sequence of k positive
gaps summing to n/2; rotating the sequence corresponds to relabelling which
chosen vertex is listed first, so classes are represented by their
lexicographically smallest rotation.  Reversal is a genuinely different
placement and is *not* factored out.  Two statistics drive the enumeration
filters:

* how many gaps lie in the difference set m_delta (each such gap is a pair
  of chosen vertices at a distance forcing a common neighbour);
* how many adjacent cyclic gap pairs have their sum in m_delta (a second,
  longer-range way to force a common neighbour).

A class's count of colliding pairs is colliding_pairs(build_graph(delta,
2 * total), reconstruct_positions(cls.canonical)); the census filters on the
two statistics alone and does not count them.

One private generator, _census, is the census: it yields each kept class's
gaps and adjacent sums in m_delta, and has two consumers, enumerate_sequences
(a list of SequenceClass) and the enum-seq command (one line per class, so
its memory stays flat).  It generates least rotations only, depth first in
lexicographic order, as a fixed-density prenecklace generator over the gaps
(Ruskey & Sawada, "An efficient algorithm for generating necklaces with fixed
density", SIAM J. Comput. 29, 1999; Cattell, Ruskey, Sawada, Serra & Miers,
"Fast algorithms to generate necklaces, unlabeled necklaces, and irreducible
polynomials over GF(2)", J. Algorithms 37, 2000).  The first gap g0 is a
minimum gap, so g0 <= total // k and every later gap is at least g0.  With p
the length of the prefix's longest Lyndon prefix, the next gap is at least
the one p places back, and a full sequence is its least rotation iff p
divides k.  A prefix is dropped once its gaps or adjacent sums in m_delta
pass their limits, or its gaps in m_delta can no longer reach the exact
count.  k <= 2 is a closed form; above it the stack holds prefixes of at
most k - 3 gaps.  The last gap is forced, so each child of k - 2 gaps that
a prefix of k - 3 accepts yields its classes at once, reading the candidates
for its second-to-last gap from a per-census table: those in range that
reach the exact count.  The table keeps lists only for ranges of at most 64
gaps, under at most 4,096 keys; a longer range is filtered as it is walked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Iterator

from .graphs import KnodelGraph, Vertex, _Record, _offsets, neighbors, u

_TABLE_RANGE, _TABLE_KEYS = 64, 4096  # the final-pair table's two bounds

__all__ = [
    "m_delta",
    "index_distance",
    "CyclicSequence",
    "cyclic_sequence",
    "common_neighbor_predicate",
    "common_neighbors",
    "SequenceClass",
    "reconstruct_positions",
    "colliding_pairs",
    "enumerate_sequences",
]


@lru_cache(maxsize=None)
def m_delta(delta: int) -> frozenset[int]:
    """The offsets' pairwise differences {2**a - 2**b : 0 <= b < a < delta}.

    Membership of an index distance in this set (or of its complement to
    n/2) characterises same-side vertex pairs with a common neighbour.
    """
    if delta < 2:
        raise ValueError(f"degree must be at least 2, got {delta}")
    return frozenset(b - a for a, b in combinations(_offsets(delta), 2))


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


class CyclicSequence(_Record):
    """Gap sequence of a set of same-side indices around the cycle Z_{n/2}.

    gaps[j] is the index step from the j-th chosen vertex to the next in
    ascending order, the final entry wrapping around; the entries are
    positive and sum to half = n/2.
    """

    __slots__ = __match_args__ = ("gaps", "half")

    def __init__(self, gaps: tuple[int, ...], half: int) -> None:
        gaps = tuple(gaps)
        if not gaps:
            raise ValueError("gap sequence must be non-empty")
        if not {int}.issuperset(map(type, gaps)) or min(gaps) <= 0:
            raise ValueError(f"gaps must be positive integers, got {gaps}")
        if sum(gaps) != half:
            raise ValueError(f"gaps {gaps} sum to {sum(gaps)}, expected {half}")
        self._set(gaps, half)

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


class SequenceClass(_Record):
    """A rotation class of gap sequences together with its filter statistics:
    its gaps in m_delta and its adjacent cyclic gap sums in m_delta."""

    __slots__ = __match_args__ = ("canonical", "parts_in_m", "adjacent_sums_in_m")

    def __init__(
        self, canonical: CyclicSequence, parts_in_m: int, adjacent_sums_in_m: int
    ) -> None:
        self._set(canonical, parts_in_m, adjacent_sums_in_m)


def reconstruct_positions(seq: CyclicSequence) -> frozenset[Vertex]:
    """U-side vertices with gap sequence seq, anchored at u_1.

    Returns {u_1, u_{1+g_1}, u_{1+g_1+g_2}, ...}; its cyclic_sequence in any
    graph with the matching half is a rotation of seq.
    """
    return frozenset(map(u, accumulate(seq.gaps[:-1], initial=1)))


def colliding_pairs(g: KnodelGraph, s: frozenset[Vertex]) -> int:
    """Number of unordered same-side pairs of s that share a neighbour."""
    pairs = combinations(sorted(s), 2)
    return sum(a.side is b.side and common_neighbor_predicate(g, a, b) for a, b in pairs)


def _census(
    k: int, total: int, parts_in_m_exact: int, adjacent_sums_in_m_max: int, delta: int = 4
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Check the arguments now; the iterator returned yields (gaps, adjacent sums
    in m_delta) per kept class, gaps its least rotation, in lexicographic order."""
    if k < 1:
        raise ValueError(f"sequence length must be at least 1, got {k}")
    if total < k:
        raise ValueError(f"total {total} cannot be split into {k} positive gaps")
    if parts_in_m_exact < 0 or adjacent_sums_in_m_max < 0:
        raise ValueError("filter counts must be non-negative")
    # Only members <= total are looked up, and 2**a - 2**b > total once
    # a > total.bit_length(), so a larger delta adds no member that matters.
    m = m_delta(min(delta, total.bit_length() + 1))
    return _least_rotations(k, total, m, parts_in_m_exact, adjacent_sums_in_m_max)


def _least_rotations(
    k: int, total: int, m: frozenset[int], exact: int, sums_max: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    if k == 1:
        if (total in m) == exact:
            yield (total,), 0
        return
    if k == 2:  # (g, total - g) is a least rotation for each g <= total // 2
        if (total in m) <= sums_max:
            for g in range(1, total // 2 + 1):
                if (g in m) + (total - g in m) == exact:
                    yield (g, total - g), int(total in m)
        return
    last = k - 1
    # (rest, lo, hi, need) -> the gaps g in [lo, hi] with exactly need of g, rest - g in m.
    table: dict[tuple[int, int, int, int], list[int]] = {}
    # Depth first over prenecklaces (prefix, remaining, gaps in m, adjacent sums in
    # m, p) of at most k - 3 gaps, p the length of the longest Lyndon prefix;
    # children are pushed in descending order, so come off in lexicographic order.
    stack: list[tuple[tuple[int, ...], int, int, int, int]] = [((), total, 0, 0, 1)]
    while stack:
        t, remaining, in_m, sums_in_m, p = stack.pop()
        depth = len(t)
        if depth:
            # Every gap is at least g0 = t[0], the least; a prenecklace's
            # next gap is at least the one p places back.
            lo, hi, prev = t[depth - p], remaining - (last - depth) * t[0], t[-1]
        else:
            # prev = -total: the first gap has no adjacent sum before it.
            lo, hi, prev = 1, total // k, -total
        short = exact - (last - depth)
        push = depth < k - 3
        for gap in range(hi, lo - 1, -1) if push else range(lo, hi + 1):
            count = in_m + (gap in m)
            if count > exact or count < short:
                continue
            sums = sums_in_m + (prev + gap in m)
            if sums > sums_max:
                continue
            q = p if gap == lo else depth + 1  # the child's Lyndon prefix
            if push:
                stack.append((t + (gap,), remaining - gap, count, sums, q))
                continue
            # A prefix of k - 3 gaps walks its children c in ascending order and
            # finishes each here: c picks its final pair (gap2, end).
            c, rest = t + (gap,), remaining - gap
            first = c[0]
            lo2, hi2 = c[depth + 1 - q], rest - first
            if hi2 < lo2:
                continue
            key = (rest, lo2, hi2, exact - count)
            gaps = table.get(key)
            if gaps is None:
                gaps = (g for g in range(lo2, hi2 + 1) if (g in m) + (rest - g in m) == key[3])
                if hi2 - lo2 < _TABLE_RANGE:
                    gaps = list(gaps)
                    if len(table) < _TABLE_KEYS:
                        table[key] = gaps
            # c + (gap2, end) is its least rotation iff end extends the prenecklace
            # c + (gap2,) and k is a multiple of the new p: at gap2 = lo2 p stays q;
            # above it p = k - 1, and end >= first with equality only at gap2 = hi2.
            back = c[last - q] if q > 1 else lo2
            sums += rest in m
            for gap2 in gaps:
                end = rest - gap2
                if end == first if gap2 > lo2 else end < back or (end == back and k % q):
                    continue
                sums2 = sums + (gap + gap2 in m) + (end + first in m)
                if sums2 <= sums_max:
                    yield c + (gap2, end), sums2


def enumerate_sequences(
    k: int,
    total: int,
    parts_in_m_exact: int,
    adjacent_sums_in_m_max: int,
    delta: int = 4,
) -> list[SequenceClass]:
    """Rotation classes of k positive gaps summing to total, filtered.

    Keeps the classes with exactly parts_in_m_exact gaps in m_delta(delta)
    and at most adjacent_sums_in_m_max adjacent cyclic pair sums in it.
    Classes are returned sorted by their canonical gap tuple.  An infeasible
    filter combination yields an empty list.
    """
    census = _census(k, total, parts_in_m_exact, adjacent_sums_in_m_max, delta)
    return [SequenceClass(CyclicSequence(g, total), parts_in_m_exact, s) for g, s in census]
