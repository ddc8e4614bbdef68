"""Enumeration of gap sequences of one-sided vertex sets up to rotation.

A set of k same-side vertices in W(delta, n) determines a cyclic sequence of
k positive gaps summing to n/2; rotating the sequence corresponds to
relabelling which chosen vertex is listed first, so classes are represented
by their lexicographically smallest rotation.  Reversal is a genuinely
different placement and is *not* factored out.  Two statistics drive the
enumeration filters:

* how many gaps lie in the difference set m_delta (each such gap is a pair
  of chosen vertices at a distance forcing a common neighbour);
* how many adjacent cyclic gap pairs have their sum in m_delta (a second,
  longer-range way to force a common neighbour).

enumerate_sequences generates least rotations only, depth first in
lexicographic order: the first gap g0 is a minimum gap, so g0 <= total // k
and every later gap is at least g0.  A prefix is dropped once its gaps or
adjacent sums in m_delta pass their limits, or its gaps in m_delta can no
longer reach the exact count; a rotation check on each full sequence settles
ties with g0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .graphs import (
    CyclicSequence,
    KnodelGraph,
    Side,
    Vertex,
    common_neighbor_predicate,
    m_delta,
)

__all__ = [
    "SequenceClass",
    "canonical_rotation",
    "reconstruct_positions",
    "colliding_pairs",
    "enumerate_sequences",
]


@dataclass(frozen=True)
class SequenceClass:
    """A rotation class of gap sequences together with its filter statistics.

    colliding_pairs counts chosen-vertex pairs sharing a neighbour in
    W(delta, 2 * total); it is None when that graph does not exist, i.e.
    when 2 * total < 2**delta.
    """

    canonical: CyclicSequence
    parts_in_m: int
    adjacent_sums_in_m: int
    colliding_pairs: int | None


def canonical_rotation(seq: CyclicSequence) -> CyclicSequence:
    """Lexicographically smallest rotation of seq; reversal is not applied."""
    gaps = seq.gaps
    k = len(gaps)
    best = min(gaps[i:] + gaps[:i] for i in range(k))
    return CyclicSequence(best, seq.half)


def reconstruct_positions(seq: CyclicSequence) -> frozenset[Vertex]:
    """U-side vertices with gap sequence seq, anchored at u_1.

    Returns {u_1, u_{1+g_1}, u_{1+g_1+g_2}, ...}; its cyclic_sequence in any
    graph with the matching half is a rotation of seq.
    """
    out = [1]
    for gap in seq.gaps[:-1]:
        out.append(out[-1] + gap)
    return frozenset(Vertex(Side.U, i) for i in out)


def colliding_pairs(g: KnodelGraph, s: frozenset[Vertex]) -> int:
    """Number of unordered same-side pairs of s that share a neighbour."""
    vs = sorted(s)
    count = 0
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            if a.side is b.side and common_neighbor_predicate(g, a, b):
                count += 1
    return count


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
    if k < 1:
        raise ValueError(f"sequence length must be at least 1, got {k}")
    if total < k:
        raise ValueError(f"total {total} cannot be split into {k} positive gaps")
    if parts_in_m_exact < 0 or adjacent_sums_in_m_max < 0:
        raise ValueError("filter counts must be non-negative")
    m = m_delta(delta)
    # collide[d]: vertices d apart share a neighbour (common_neighbor_predicate).
    exists = 2 * total >= 2**delta
    collide = [d in m or total - d in m for d in range(total)] if exists else None
    classes = []
    # Depth first over (prefix, remaining, gaps in m, adjacent sums in m);
    # children are pushed in descending order, so full sequences come off the
    # stack in lexicographic order.  A recursive nested function would be a
    # reference cycle that keeps each call's classes alive until a full gc.
    stack: list[tuple[tuple[int, ...], int, int, int]] = [((), total, 0, 0)]
    while stack:
        t, remaining, in_m, sums_in_m = stack.pop()
        left = k - len(t)
        if left:
            g0, prev = (t[0], t[-1]) if t else (1, 0)
            hi = remaining - (left - 1) * g0 if t else total // k
            for gap in range(hi, (remaining if left == 1 else g0) - 1, -1):
                count = in_m + (gap in m)
                if count > parts_in_m_exact or count + left - 1 < parts_in_m_exact:
                    continue
                sums = sums_in_m + (prev > 0 and prev + gap in m)
                if sums <= adjacent_sums_in_m_max:
                    stack.append((t + (gap,), remaining - gap, count, sums))
            continue
        sums_in_m += k > 2 and t[-1] + t[0] in m
        rotated = any(t[i] == t[0] and t[i:] + t[:i] < t for i in range(1, k))
        if rotated or sums_in_m > adjacent_sums_in_m_max:
            continue
        collisions = None
        if collide is not None:
            positions = list(accumulate(t[:-1], initial=0))
            collisions = sum(collide[b - a] for a, b in combinations(positions, 2))
        classes.append(SequenceClass(CyclicSequence(t, total), in_m, sums_in_m, collisions))
    return classes
