"""Exact minimum dominating sets by branch and bound, with a brute-force oracle.

The search works on slot bitmasks.  Each node picks an undominated vertex x
whose closed neighbourhood meets the fewest remaining candidates and branches
on every candidate that could cover x; candidates consumed by earlier
siblings are dropped from later ones, so each dominating set is enumerated
once.  Two prunes cut the tree:

* counting: a vertex covers at most delta + 1 vertices, so a partial set of
  size s with m undominated vertices needs at least ceil(m / (delta + 1))
  further picks;
* bipartite counting: a u-side pick covers at most delta undominated v-side
  vertices and one u-side vertex (and symmetrically), so the remaining
  budget r must admit a split a + b = r with delta*a + b covering the
  undominated v-side count and a + delta*b the u-side count.

Symmetry: the index rotation i -> i+1 on both sides and the swap
u_i <-> v_{-i} both keep (j - i) mod n/2 fixed for every pair u_i, v_j, so
they are automorphisms and W(delta, n) is vertex-transitive for every delta.
Any minimum dominating set can therefore be mapped onto one containing u_1,
and the search starts with u_1 (slot 0) already chosen.

Every solve runs through one root-task runner: the u_1 node is probed once
and each of its branches becomes a root task.  With one worker the tasks run
in process, in branch order, on a single search that carries the bound
forward, so a repeated single-threaded run returns the identical certificate
and node count.  Otherwise the tasks go to a process pool of at most
min(workers, tasks, CPUs) processes and their results are combined in branch
order under a strict improvement rule, which reproduces the single-threaded
value (the certificate may differ when a later branch wins under a looser
bound).
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .domination import VertexSet, _slots_mask, gamma_bounds, greedy_upper_bound
from .graphs import KnodelGraph

__all__ = ["SolveResult", "solve_exact", "brute_force_min", "canonical_certificate"]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    value is the domination number, or None when a time budget expired
    before optimality was proved; lower and upper always bracket the true
    value and certificate is a dominating set of size upper.
    """

    value: int | None
    lower: int
    upper: int
    certificate: VertexSet
    nodes_explored: int
    elapsed: float

    @property
    def is_exact(self) -> bool:
        return self.value is not None


class _Timeout(Exception):
    pass


class _FoundAny(Exception):
    pass


class _Search:
    """Branch-and-bound state over one graph's cover masks."""

    def __init__(
        self,
        g: KnodelGraph,
        bound: int,
        best_slots: tuple[int, ...] | None,
        deadline: float | None,
        stop_on_first: bool = False,
    ):
        self.cover = g.cover_masks
        self.full = g.full_mask
        self.u_mask = g.u_mask
        self.v_mask = g.v_mask
        self.delta = g.delta
        self.bound = bound
        self.best_slots = best_slots
        self.deadline = deadline
        self.stop_on_first = stop_on_first
        self.nodes = 0

    def branch_slots(self, covered: int, pool: int, size: int) -> list[int] | None:
        """Candidate slots for the next pick, or None if this node is closed.

        Closed means pruned or already dominated.  Candidates all cover the
        chosen pivot and are ordered by descending new cover, ties to the
        lower slot.
        """
        self.nodes += 1
        if self.deadline is not None and self.nodes & 1023 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        und = self.full & ~covered
        if und == 0:
            return None
        budget = self.bound - 1 - size
        if budget <= 0:
            return None
        dd = self.delta + 1
        m = und.bit_count()
        if size + (m + dd - 1) // dd >= self.bound:
            return None
        uu = (und & self.u_mask).bit_count()
        uv = (und & self.v_mask).bit_count()
        d1 = self.delta - 1
        if d1 > 0:
            lo = 0 if uv <= budget else -(-(uv - budget) // d1)
            hi_num = self.delta * budget - uu
            if hi_num < 0:
                return None
            hi = min(budget, hi_num // d1)
            if lo > hi:
                return None
        elif uu > budget or uv > budget:
            return None

        cover = self.cover
        pivot = -1
        best_count = 1 << 62
        t = und
        while t:
            low = t & -t
            slot = low.bit_length() - 1
            c = (cover[slot] & pool).bit_count()
            if c < best_count:
                best_count = c
                pivot = slot
                if c <= 1:
                    break
            t ^= low
        if best_count == 0:
            return None
        members = []
        pm = cover[pivot] & pool
        while pm:
            low = pm & -pm
            slot = low.bit_length() - 1
            members.append(((cover[slot] & und).bit_count(), -slot))
            pm ^= low
        members.sort(reverse=True)
        return [-neg for _, neg in members]

    def run(self, covered: int, pool: int, size: int, chosen: tuple[int, ...]) -> None:
        if covered == self.full:
            if size < self.bound:
                self.bound = size
                self.best_slots = chosen
                if self.stop_on_first:
                    raise _FoundAny
            return
        slots = self.branch_slots(covered, pool, size)
        if slots is None:
            return
        cover = self.cover
        for slot in slots:
            pool ^= 1 << slot
            self.run(covered | cover[slot], pool, size + 1, chosen + (slot,))


def _run_tasks(
    job: tuple[KnodelGraph, int, tuple[int, ...], float | None, list[tuple]],
) -> tuple[int, tuple[int, ...], int, bool]:
    """Run root tasks in order on one search, carrying the bound forward.

    Returns (bound, slots, nodes, timed_out).
    """
    g, bound, best_slots, deadline, tasks = job
    search = _Search(g, bound, best_slots, deadline)
    try:
        for task in tasks:
            search.run(*task)
    except _Timeout:
        return search.bound, search.best_slots, search.nodes, True
    return search.bound, search.best_slots, search.nodes, False


def solve_exact(
    g: KnodelGraph, time_budget: float | None = None, workers: int = 1
) -> SolveResult:
    """Minimum dominating set of g, seeded with the greedy incumbent.

    time_budget is a wall-clock limit in seconds; on expiry the result has
    value None and carries the best bounds proved so far.  workers > 1
    distributes the root branches over at most that many processes, never
    more than there are root branches or CPUs; the value is the same as a
    single-threaded run.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.perf_counter()
    deadline = None if time_budget is None else time.monotonic() + time_budget
    degree_lower, _ = gamma_bounds(g)
    greedy = greedy_upper_bound(g)
    best_slots = tuple(g.slot(x) for x in greedy)
    bound = len(greedy)

    # Vertex-transitivity lets u_1 (slot 0) start in the set; a lone u_1
    # dominates only W(1, 2), where greedy already found the optimum.
    cover = g.cover_masks
    probe = _Search(g, bound, best_slots, deadline)
    pool = g.full_mask ^ 1
    tasks = []
    for slot in probe.branch_slots(cover[0], pool, 1) or ():
        pool ^= 1 << slot
        tasks.append((cover[0] | cover[slot], pool, 2, (0, slot)))

    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_tasks((g, bound, best_slots, deadline, tasks))]
    else:
        jobs = [(g, bound, best_slots, deadline, [task]) for task in tasks]
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_run_tasks, jobs))
    # Results are combined in branch order with a strict improvement rule,
    # which reproduces the single-threaded value.
    nodes = probe.nodes
    timed_out = False
    for sub_bound, sub_slots, sub_nodes, sub_timed_out in results:
        nodes += sub_nodes
        timed_out = timed_out or sub_timed_out
        if sub_bound < bound:
            bound = sub_bound
            best_slots = sub_slots

    elapsed = time.perf_counter() - start
    certificate = VertexSet(g, _slots_mask(g.n, best_slots))
    if timed_out:
        return SolveResult(None, degree_lower, bound, certificate, nodes, elapsed)
    return SolveResult(bound, bound, bound, certificate, nodes, elapsed)


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
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.n), size):
            checked += 1
            covered = 0
            for slot in combo:
                covered |= cover[slot]
            if covered == full:
                elapsed = time.perf_counter() - start
                certificate = VertexSet(g, _slots_mask(g.n, combo))
                return SolveResult(size, size, size, certificate, checked, elapsed)
    return None


def canonical_certificate(g: KnodelGraph, size: int) -> VertexSet:
    """Lexicographically smallest dominating set of the given size.

    Smallest under comparison of ascending slot tuples, i.e. preferring low
    u-side indices, then low v-side indices.  size must be at least the
    domination number; the set is built by fixing one slot at a time and
    testing completability with a bounded search.
    """
    chosen: list[int] = []
    covered = 0
    cover = g.cover_masks
    for position in range(size):
        remaining = size - position - 1
        lowest = chosen[-1] + 1 if chosen else 0
        for slot in range(lowest, g.n - remaining):
            pool = g.full_mask >> (slot + 1) << (slot + 1)
            if _completable(g, covered | cover[slot], pool, remaining):
                chosen.append(slot)
                covered |= cover[slot]
                break
        else:
            raise ValueError(f"no dominating set of size {size} exists in {g}")
    return VertexSet(g, _slots_mask(g.n, chosen))


def _completable(g: KnodelGraph, covered: int, pool: int, budget: int) -> bool:
    """Whether some <= budget picks from pool extend covered to everything."""
    if covered == g.full_mask:
        return True
    search = _Search(g, budget + 1, None, None, stop_on_first=True)
    try:
        search.run(covered, pool, 0, ())
    except _FoundAny:
        return True
    return search.best_slots is not None
