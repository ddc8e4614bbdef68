"""Independent oracles the tests check the package against, and the helpers
that build their inputs: hypothesis graphs and fresh search nodes."""

from __future__ import annotations

import itertools
import time

from hypothesis import strategies as st

from knodel import KnodelGraph, SolveResult, VertexSet, build_graph
from knodel.domination import _slots_mask
from knodel.solver import _Search, _without


def brute_force_min(g: KnodelGraph, max_size: int) -> SolveResult | None:
    """First dominating set in size order, subsets lexicographic by slot.

    Checks every subset of size 1, 2, ..., max_size and returns the first
    one that dominates, or None when no set of size <= max_size dominates.
    Intended as an independent oracle for small orders.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    start = time.perf_counter()
    cover = g.cover_masks
    full = g.full_mask
    checked = 0
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.n), k):
            checked += 1
            covered = 0
            for slot in combo:
                covered |= cover[slot]
            if covered == full:
                elapsed = time.perf_counter() - start
                certificate = VertexSet(g, _slots_mask(g.n, combo))
                return SolveResult(k, k, k, certificate, checked, elapsed)
    return None


def recount(search: _Search, covered: int, picked: int) -> tuple[int, int, int]:
    """The counts _Search.run carries, taken afresh from the masks: the picks
    so far, those on the u-side and the undominated vertices."""
    return (
        picked.bit_count(),
        (picked & search.u_mask).bit_count(),
        (search.full & ~covered).bit_count(),
    )


def fresh_node(g, search, covered, pool, picked, need=0):
    """A search node with every carried value taken afresh: the arguments of
    branch_slots in order, whose first six are those of run."""
    return (
        covered, g.closed_cover(covered), pool, g.cover_counts(pool), picked, need,
        *recount(search, covered, picked),
    )


def small_graphs():
    """Strategy drawing a valid W(delta, n) with delta in [2, 5], n <= 64."""
    return st.integers(2, 5).flatmap(
        lambda delta: st.integers(2 ** (delta - 1), 32).map(
            lambda half: build_graph(delta, 2 * half)
        )
    )


class RecursiveSearch(_Search):
    """The branch and bound as one recursive call per node, the form that
    _Search.run's explicit stack replaced; it returns True where that form
    raised on the first set of a stop_on_first search.

    It keeps no deadline, and its depth is the number of picks, so it serves
    only orders well inside the interpreter's recursion limit.
    """

    def run(self, covered, near, pool, planes, picked, need):
        if covered == self.full:
            if picked.bit_count() < self.bound:
                self.bound = picked.bit_count()
                self.best = picked
                if self.stop_on_first:
                    return True
            return False
        counts = recount(self, covered, picked)
        members = self.branch_slots(covered, near, pool, planes, picked, need, *counts)
        if members is None:
            return False
        m = counts[2]
        cover = self.cover
        for i, (c, neg) in enumerate(members):
            # Counting closes this child and all later ones (c == m is a leaf).
            if c < m and m - c > (self.bound - picked.bit_count() - 2) * self.dd:
                self.nodes += len(members) - i
                return False
            slot = -neg
            pool ^= 1 << slot
            planes = _without(planes, cover[slot])
            child_need = need
            if self.gap_rule and slot < self.half:
                child_need = self._need(picked & self.u_mask, need, slot)
            child = picked | 1 << slot
            if self.run(
                covered | cover[slot], near | self.near[slot], pool, planes, child, child_need
            ):
                return True
        return False
