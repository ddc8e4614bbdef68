"""Exact minimum dominating sets by branch and bound.

The search works on slot bitmasks.  Each node picks the lowest undominated
vertex x whose closed neighbourhood meets the fewest remaining candidates
and branches on every candidate that could cover x, closing when there is
none; candidates consumed by earlier siblings are dropped from later ones,
so each dominating set is enumerated once.  Each vertex's candidate count
|N[x] & pool| is kept as bit planes, read at a search root from
KnodelGraph.cover_counts and lowered by a borrow chain (_without) as slots
leave the pool, so the pivot is read without a scan.  Each node also carries
near = closed_cover(covered), grown by the pick's KnodelGraph.near_masks
entry.  Four prunes cut the tree:

* bipartite counting, at each node: a u-side pick covers at most delta
  undominated v-side vertices and one u-side vertex (and symmetrically), so
  the remaining budget r must admit a split a + b = r with delta*a + b
  covering the undominated v-side count and a + delta*b the u-side count;
  summed, (delta + 1) * r must reach the undominated count m, so this test
  closes every node that counting alone would;
* forced waste, at each node: r picks over-cover by at most the slack
  (delta + 1) * r - m.  A pool slot outside near is perfect, its closed
  neighbourhood all undominated; each undominated vertex outside the
  closed_cover of the perfect slots needs an imperfect pick, which covers at
  most delta of them and wastes at least one, so the node closes when they
  need more such picks than the slack allows;
* graded forced waste, at each node the first tier leaves open: a pool
  slot y wastes |N[y] & covered|, so the slots wasting exactly one are
  pool & near less KnodelGraph.twice_covered(covered).  A forced vertex
  outside their closed_cover needs a pick wasting two or more, which
  covers at most delta - 1 forced vertices; with f forced vertices and f2
  of these, b = ceil(f2 / (delta - 1)) such picks are needed and the rest
  need ceil((f - (delta - 1) b) / delta) picks wasting one, so the node
  closes when 2b plus that exceeds the slack.  More picks wasting two
  cost 2 each and save at most 1, so b at its least gives the least
  waste.  The bound is at most 2 * ceil(f / (delta - 1)), and f <= m, so
  the tier runs only when that passes the slack and the forced vertices
  are found only when 2 * ceil(m / (delta - 1)) does: neither gate skips a
  close.  The tier needs delta >= 2;
* counting, in the parent: children come in descending new cover, so the
  parent counts the first child that (delta + 1) * r cannot finish, and
  all later ones, without a call.

The search is one loop over an explicit stack with a frame per open node,
so its depth, about gamma picks, is bounded by memory and not by the
interpreter's recursion limit.  _Search.run reports an early stop by its
return value: True at the deadline, or at the first set found by a
stop_on_first search.  The frames carry the counts of picks, u-side picks
and undominated vertices, so no node recounts them, and each wide and-not
x & ~y is written x ^ (x & y), which builds no full-width ~y.

Symmetry: the index rotation i -> i+1 on both sides and the swap
u_i <-> v_{-i} both keep (j - i) mod n/2 fixed for every pair u_i, v_j, so
they are automorphisms.  Take a dominating set D with |D| = k < h = n/2.
Both sides meet D, since no vertex has a neighbour on its own side, so a set
inside one side must hold all of that side.  The swap puts D's smaller side
on U, so D has at most floor(k/2) u-members, and a rotation moves a u-member
that opens a largest cyclic u-gap to u_1, so u_2 .. u_G are outside D with
G = ceil(h / floor(k/2)).  solve_exact seeks sets with k <= bound - 1, so it
starts with u_1 (slot 0) chosen, drops u_2 .. u_G from the pool and caps the
u-side picks at floor((bound-1)/2), with bound the greedy incumbent's size;
it applies the cut only when that cap is at least 1 and bound - 1 < h.  The
bipartite test bounds its u-side share a by the cap less the u-picks so far,
and a node at the cap drops its u-side candidates.  The cap is
fixed at the root, not lowered with the bound, so whether a subtree reaches
a set below its bound does not depend on that bound.

Gap rule, on with the cut: u_1 opens a largest cyclic u-gap of the kept
image, so every u-gap is at most the first, f, and f <= c for the lowest
u-slot c chosen after slot 0.  So each stretch b - a between neighbouring
chosen u-slots, and from the highest one round to u_1, holds at least
(b - a - 1) // c u-members not yet chosen.  Their sum, need, is carried
down run beside picked and updated only on a u-side pick; the bipartite
test takes it as the least u-side share a, which closes a node whose
u-picks plus need pass the cap.  canonical_certificate's searches run
without the cut, so they carry need = 0.

Canonical certificates: canonical_certificate fixes one position at a time
to the lowest slot whose prefix a bounded search can complete.  Prefixes
are not preserved by a rotation, so its searches run without the cut, all
on one _Search whose bound each trial resets.  The scan builds the bit
planes once and lowers them with _without, the search's borrow chain, once
per slot; it ORs near masks onto the prefix's near.  The last completion
found, for slot t, is the witness: it lies above t, so the scan searches
only below its lowest slot w and takes w on reaching it.  It reaches w
unless a search succeeds first: a witness that fills every position left
ascends to below n, so w is below the scan's stop, and a shorter one
completes t + 1.  A witness that fills every position left is replaced by
the least image of prefix + witness under the rotations and swaps that
starts with the prefix.  Automorphisms map dominating sets onto dominating
sets of the same size, so that image is a witness too, and a lower one
leaves fewer slots to search.

A solve is one serial search from the u_1 node, so a repeated run returns
the identical certificate and node count.
"""

from __future__ import annotations

import time

from .domination import VertexSet, _positions, gamma_bounds, greedy_upper_bound
from .graphs import KnodelGraph, _Record, _check_int

__all__ = ["SolveResult", "solve_exact", "canonical_certificate"]


class SolveResult(_Record):
    """Outcome of an exact search.

    value, equal to lower, is the domination number and certificate a
    dominating set of that size, unless the time budget expires: on expiry
    value is None and lower <= gamma <= len(certificate).
    """

    __slots__ = __match_args__ = ("value", "lower", "certificate", "nodes_explored")

    def __init__(
        self, value: int | None, lower: int, certificate: VertexSet, nodes_explored: int
    ) -> None:
        self._set(value, lower, certificate, nodes_explored)

    @property
    def is_exact(self) -> bool:
        return self.value is not None


def _pivot(und: int, planes: list[int]) -> int:
    """Bit of the lowest undominated slot with the fewest candidates, 0 when
    und is: from the top plane down, keep the slots whose bit is clear, if
    any are.  The and-not low & ~plane is written low ^ (low & plane)."""
    low = und
    for plane in reversed(planes):
        clear = low ^ (low & plane)
        if clear:
            low = clear
    return low & -low


def _without(planes: list[int], mask: int) -> list[int]:
    """Bit planes of the counts less one for every slot in mask: a borrow
    chain, its and-not an XOR.  Every slot in mask must count at least one."""
    child = []
    for plane in planes:
        child.append(plane ^ mask)
        mask ^= mask & plane
    return child


class _Search:
    """Branch-and-bound state over one graph's cover masks."""

    def __init__(
        self, g: KnodelGraph, bound: int, best: int, deadline: float | None,
        stop_on_first: bool = False, u_cap: int | None = None,
    ):
        self.cover = g.cover_masks
        self.near = g.near_masks
        self.closed_cover = g.closed_cover
        self.twice_covered = g.twice_covered
        self.full = g.full_mask
        self.u_mask = g.u_mask
        self.half = g.half
        self.u_cap = g.half if u_cap is None else u_cap  # most u-side slots in a set
        self.gap_rule = self.u_cap < g.half
        self.delta = g.delta
        self.dd = g.delta + 1
        self.bound = bound
        self.best = best  # slot mask of the incumbent
        self.deadline = deadline
        self.stop_on_first = stop_on_first
        self.nodes = 0

    def branch_slots(
        self, covered: int, near: int, pool: int, planes: list[int], picked: int, need: int,
        k: int, ku: int, m: int,
    ):
        """(new cover, -slot) candidates covering the pivot, descending, ties
        to the lower slot; None if closed (pruned or already dominated).
        near is closed_cover(covered), need the u-picks the gap rule still
        asks, and k, ku and m the carried counts of picked (the chosen slots),
        its u-side slots and the undominated vertices.  And-nots are XORs."""
        self.nodes += 1
        u_mask, delta = self.u_mask, self.delta
        und = self.full ^ covered
        budget = self.bound - 1 - k
        uu = (und & u_mask).bit_count()
        uv = m - uu
        ucap = self.u_cap - ku
        d1 = delta - 1
        if d1 > 0:
            # The u-side share a lies in [max(need, lower), hi]; need >= 0.
            hi = (delta * budget - uu) // d1
            if budget < hi:
                hi = budget
            if ucap < hi:
                hi = ucap
            if hi < need or -(-(uv - budget) // d1) > hi:
                return None
        elif uu > budget or uv > budget or need > min(budget, ucap):
            return None
        # Forced waste, in two tiers.  Neither bound passes 2 * ceil(f / d1)
        # (f when delta = 1) for the f <= m forced vertices, so a node whose
        # m fits the slack skips the closed_cover.
        slack = self.dd * budget - m
        if (2 * -(-m // d1) if d1 else m) > slack:
            forced = und ^ (und & self.closed_cover(pool ^ (pool & near)))
            f = forced.bit_count()
            if f > delta * slack:
                return None
            if d1 and 2 * -(-f // d1) > slack:
                one = pool & (near ^ self.twice_covered(covered))  # twice lies in near
                b = -(-(f - (forced & self.closed_cover(one)).bit_count()) // d1)
                if 2 * b + max(0, -(-(f - d1 * b) // delta)) > slack:
                    return None

        low = _pivot(und, planes)
        if not low:  # already dominated
            return None
        cover = self.cover
        members = []
        pm = cover[low.bit_length() - 1] & pool
        if not ucap:
            pm ^= pm & u_mask
        while pm:
            low = pm & -pm
            slot = low.bit_length() - 1
            members.append(((cover[slot] & und).bit_count(), -slot))
            pm ^= low
        members.sort(reverse=True)
        return members or None

    def run(
        self, covered: int, near: int, pool: int, planes: list[int], picked: int, need: int
    ) -> bool:
        """Search below the node that has chosen the slots in the mask picked;
        need is the u-picks they still ask.  True when the search stopped
        early: at the deadline, or at the first set found under stop_on_first.

        Each open node keeps a frame [covered, near, pool, planes, picked,
        need, k, ku, m, members, next child index], k, ku and m being the
        counts of picked, its u-side slots and the undominated vertices, taken
        here and carried; its pool and planes lose each child's slot as the
        child is entered, so later siblings skip it."""
        cover, near_masks = self.cover, self.near
        k, ku = picked.bit_count(), (picked & self.u_mask).bit_count()
        m = (self.full ^ covered).bit_count()
        stack = []
        while True:
            if covered == self.full:
                if k < self.bound:
                    self.bound = k
                    self.best = picked
                    if self.stop_on_first:
                        return True
            else:
                members = self.branch_slots(covered, near, pool, planes, picked, need, k, ku, m)
                if members is not None:
                    stack.append([covered, near, pool, planes, picked, need, k, ku, m, members, 0])
            # Step to the next child of the innermost open node.  Counting
            # closes a child and all later ones (c == m is a leaf).
            while stack:
                frame = stack[-1]
                covered, near, pool, planes, picked, need, k, ku, m, members, i = frame
                if i < len(members):
                    c = members[i][0]
                    if c == m or m - c <= (self.bound - k - 2) * self.dd:
                        break
                    self.nodes += len(members) - i
                stack.pop()
            else:
                return False
            if self.deadline is not None and time.perf_counter() > self.deadline:
                return True
            slot = -members[i][1]
            frame[2] = pool = pool ^ 1 << slot
            frame[3] = planes = _without(planes, cover[slot])
            frame[10] = i + 1
            if self.gap_rule and slot < self.half:
                need = self._need(picked & self.u_mask, need, slot)
            covered |= cover[slot]
            near |= near_masks[slot]
            picked |= 1 << slot
            k, ku, m = k + 1, ku + (slot < self.half), m - c

    def _need(self, u_picked: int, need: int, slot: int) -> int:
        """The gap rule's need once u-side slot joins the u-side mask
        u_picked, whose need is need.

        u_picked holds slot 0.  With c its lowest other slot, each stretch
        b - a between neighbours in u_picked, and from the highest to half,
        asks (b - a - 1) // c more u-picks.  Only the stretch that slot
        splits changes, unless slot is the new lowest."""
        rest = u_picked & ~1
        c = (rest & -rest).bit_length() - 1
        if slot > c > 0:
            a = (u_picked & ((1 << slot) - 1)).bit_length() - 1
            above = u_picked >> slot
            b = (above & -above).bit_length() - 1 + slot if above else self.half
            return need + (slot - a - 1) // c + (b - slot - 1) // c - (b - a - 1) // c
        need, a = 0, slot
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            need += (b - a - 1) // slot
            a = b
            rest ^= low
        return need + (self.half - a - 1) // slot


def solve_exact(g: KnodelGraph, time_budget: float | None = None) -> SolveResult:
    """Minimum dominating set of g, seeded with the greedy incumbent.

    time_budget is a wall-clock limit in seconds, checked before each node
    the search enters, so a search that finishes within it returns its
    value; on expiry value is None and lower <= gamma <= len(certificate).
    A repeated run returns the same certificate and node count.
    """
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time_budget must be None or >= 0, got {time_budget}")
    deadline = None if time_budget is None else time.perf_counter() + time_budget
    degree_lower, _ = gamma_bounds(g)
    best = greedy_upper_bound(g).mask
    bound = best.bit_count()

    # The symmetry cut for sets of size <= bound - 1, when it applies; else
    # a cap of half is no cap and G = 1 leaves only u_1 out of the pool.  A
    # lone u_1 dominates only W(1, 2), where greedy already found the optimum.
    u_cap = (bound - 1) // 2
    if not 1 <= u_cap or bound - 1 >= g.half:
        u_cap = g.half
    gap = -(-g.half // u_cap)
    pool = g.full_mask >> gap << gap
    search = _Search(g, bound, best, deadline, u_cap=u_cap)
    if search.run(g.cover_masks[0], g.near_masks[0], pool, g.cover_counts(pool), 1, 0):
        value, lower = None, degree_lower
    else:
        value = lower = search.bound
    return SolveResult(value, lower, VertexSet(g, search.best), search.nodes)


def canonical_certificate(g: KnodelGraph, size: int) -> VertexSet:
    """Lexicographically smallest dominating set of the given size.

    Smallest under comparison of ascending slot tuples, i.e. preferring low
    u-side indices, then low v-side indices.  size must be at least the
    domination number.  Vertex-transitivity puts u_1 in some minimum
    dominating set, so slot 0 is taken without a search; every later
    position takes the lowest slot that a bounded search can complete.

    A slot is completable when at most r more picks from the slots above it
    complete the set, r being the positions left after it; slots stop r
    below n, so such a completion pads to exactly r.  The scan keeps one
    pool, the slots above the one it is at, and lowers it and its bit
    planes once per slot.  The last completion found, for slot t, is the
    witness W.  It uses only slots above t, so its lowest slot w is
    completable at the next position, with r left after it, by the rest of
    W: the scan searches the slots below w and takes w without a search on
    reaching it.  It reaches w unless a search succeeds first.  If W fills
    all r + 1 positions left after t, its ascending slots put w below n - r,
    the scan's stop.  If W is shorter (only above the domination number), W
    less t + 1 completes t + 1, below the stop as t < n - r - 1, so the
    scan succeeds there or t + 1 is w.  A W that fills every position is
    first replaced by the least image of prefix + W, under the rotations
    and the swap, that still starts with the prefix: an automorphism's
    image dominates and has as many slots, so the rest of it is a
    completion too, and its lowest slot is as low as the orbit allows.
    """
    _check_int("size", size)
    cover, near_masks = g.cover_masks, g.near_masks
    search = _Search(g, 0, 0, None, stop_on_first=True)
    picked = 1  # slot mask of the prefix
    covered, near = cover[0], near_masks[0]
    pool = g.full_mask ^ 1
    planes = g.cover_counts(pool)
    witness: list[int] = []
    for position in range(1, size):
        remaining = size - position - 1
        for slot in range(picked.bit_length(), g.n - remaining):
            pool ^= 1 << slot
            planes = _without(planes, cover[slot])
            if witness and slot == witness[0]:
                del witness[0]
                break
            search.bound = remaining + 1
            if search.run(covered | cover[slot], near | near_masks[slot], pool, planes, 0, 0):
                witness = _positions(search.best)
                if len(witness) == remaining:
                    witness = _least_image(g.half, _positions(picked | 1 << slot), witness)
                break
        else:
            break
        picked |= 1 << slot
        covered |= cover[slot]
        near |= near_masks[slot]
    if picked.bit_count() != size or covered != g.full_mask:
        raise ValueError(f"no dominating set of size {size} exists in {g}")
    return VertexSet(g, picked)


def _least_image(half: int, prefix: list[int], rest: list[int]) -> list[int]:
    """Slots after prefix of the least ascending image of prefix + rest,
    under the rotations and swaps, that starts with prefix.  rest ascends
    above prefix, which starts with slot 0 (u_1); an image holds u_1 only
    if its map takes some member there, so one map per member is tried."""
    k, members, best = len(prefix), prefix + rest, rest
    for s in members:
        if s < half:  # the rotation taking slot s to u_1
            image = sorted((x - s) % half + half * (x >= half) for x in members)
        else:  # the swap taking slot s to u_1
            image = sorted((s - x) % half + half * (x < half) for x in members)
        if image[:k] == prefix and image[k:] < best:
            best = image[k:]
    return best

