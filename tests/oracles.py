"""Independent oracles the tests check the package against."""

from __future__ import annotations

import itertools
import time

from knodel import KnodelGraph, SolveResult, VertexSet
from knodel.domination import _slots_mask


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
