"""The exact solver and canonical_certificate, against the simple paths they replaced.

- The solver agrees with the brute-force oracle (tests/oracles.py) on
  W(4, 16..24) and a few graphs of degrees 2, 3 and 5.
- Its bit-plane node kernel is compared with the pivot scan it replaced, on
  random search states of every valid graph with n <= 64 and at every node
  of whole searches.  Serial node counts are pinned for one order per
  residue class and for 88, 128, 198 and 508.
- The single serial search is compared with the root-task path it replaced
  (the u_1 node probed, then each branch run as a task) on W(4, 16..200)
  and every valid graph with n <= 64.  Value, certificate and node count
  agree, except that W(1, 2) now closes at its root with 0 nodes instead
  of 1.
- Every node that the forced-waste bound closes on random states of
  degrees 1 to 6 is checked to have no completion by an exhaustive search;
  its graded tier closes some of them on its own at every degree from 2.
- The symmetry cut is checked twice.  Every dominating set of size at most
  gamma of W(2, 8..14), W(3, 16..20) and W(4, 16..22), listed by brute
  force, has an image under the rotations and the swap that the cut keeps
  and whose cyclic u-gaps are all at most its first.  And on every valid
  graph with n <= 64 the solver's value equals that of the same search run
  from the empty root without the cut.
- At every node of whole searches, the gap rule's need is checked against a
  recomputation from the carried mask of chosen slots, and its u-side picks
  against the cap.  The counts the search carries instead of recounting
  (picks, u-side picks, undominated vertices) are checked against their
  recounts from the masks at every node of whole solves and canonical scans.
- The search loop over an explicit stack is compared with the recursion it
  replaced, kept as RecursiveSearch in tests/oracles.py, on every valid
  graph with n <= 64, W(4, 16..312) and W(5, 32..72): value, certificate
  and node count agree.  Canonical certificates at gamma and gamma + 1 on
  W(4, 16..90), and the nodes of all their searches, agree too.
- canonical_certificate is compared with the per-slot scan it replaced (a
  fresh search for every candidate slot, no witness) at gamma, gamma + 1
  and gamma + 2 on every valid graph with n <= 64, at gamma and gamma + 1
  on W(4, 66..90), and at gamma on W(4, 92..200).  It is compared with a
  lexicographic brute force over all subsets of that size on W(2, 4..20),
  W(3, 8..22) and W(4, 16..20).  Its number of searches over W(4, 16..90)
  at gamma is pinned (1,607; 1,620 before witnesses came from the orbit),
  all of them run on one search per call, and every node of its searches
  checks the carried bit planes and near masks.
- The helper that picks a witness from the orbit is compared with all n
  label-level images of every minimum dominating set of the orbit test's
  eleven graphs, at every prefix length.  Every witness the scan adopts is
  checked to dominate with exactly size slots above the prefix.
"""

import functools
import itertools
import operator
import random

import pytest

from knodel import (
    build_graph,
    canonical_certificate,
    gamma_bounds,
    gamma_formula,
    greedy_upper_bound,
    is_dominating,
    solve_exact,
)
from knodel.domination import _positions
from knodel.graphs import Side, Vertex, neighbors
import knodel.solver
from knodel.solver import _least_image, _pivot, _Search
from oracles import RecursiveSearch, brute_force_min, fresh_node, recount

# All 135 valid (delta, n) pairs with n <= 64.
VALID_UP_TO_64 = [
    (delta, n) for delta in range(1, 7) for n in range(2**delta, 65, 2)
]
OTHER_SIDE = {Side.U: Side.V, Side.V: Side.U}
# Small graphs whose minimum dominating sets are listed by brute force.
ORBIT_GRAPHS = (
    [(2, n) for n in range(8, 15, 2)]
    + [(3, n) for n in range(16, 21, 2)]
    + [(4, n) for n in range(16, 23, 2)]
)


def rotate(half, x):
    """u_i -> u_{i+1} and v_j -> v_{j+1}."""
    return Vertex(x.side, x.index % half + 1)


def swap(half, x):
    """u_i <-> v_{-i}, indices mod half."""
    return Vertex(OTHER_SIDE[x.side], (-x.index - 1) % half + 1)


@pytest.mark.parametrize("n,value", [(16, 4), (26, 7), (36, 8), (48, 12)])
def test_solve_exact_known_values(n, value):
    g = build_graph(4, n)
    result = solve_exact(g)
    assert result.is_exact
    assert result.value == value
    assert result.lower == result.upper == value
    assert result.nodes_explored > 0
    assert result.elapsed >= 0


@pytest.mark.parametrize("n", range(16, 41, 2))
def test_certificate_dominates_and_matches_value(n):
    g = build_graph(4, n)
    result = solve_exact(g)
    assert is_dominating(g, result.certificate)
    assert len(result.certificate) == result.value
    lower, upper = gamma_bounds(g)
    assert lower <= result.value <= upper


@pytest.mark.parametrize("n", range(16, 25, 2))
def test_solver_agrees_with_brute_force(n):
    g = build_graph(4, n)
    oracle = brute_force_min(g, len(greedy_upper_bound(g)))
    assert oracle is not None
    assert oracle.value == solve_exact(g).value
    assert is_dominating(g, oracle.certificate)


def test_solver_on_other_degrees_matches_brute_force():
    for delta, n in ((2, 8), (2, 12), (3, 16), (3, 22), (5, 32)):
        g = build_graph(delta, n)
        oracle = brute_force_min(g, len(greedy_upper_bound(g)))
        assert oracle.value == solve_exact(g).value


def test_brute_force_returns_none_below_the_optimum():
    g = build_graph(4, 16)
    assert brute_force_min(g, 3) is None
    assert brute_force_min(g, 0) is None
    with pytest.raises(ValueError):
        brute_force_min(g, -1)


def test_single_threaded_runs_are_identical():
    g = build_graph(4, 38)
    first = solve_exact(g)
    second = solve_exact(g)
    assert first.value == second.value
    assert first.certificate == second.certificate
    assert first.nodes_explored == second.nodes_explored


def gap_need(half, chosen):
    """The u-picks that the gap rule asks beyond chosen, from its definition.

    chosen holds slot 0 (u_1).  With c the lowest other u-slot in chosen,
    every cyclic u-gap of a set in the cut's normal form is at most c, so
    each stretch between neighbouring u-slots of chosen, and from the
    highest back to u_1, splits into gaps of at most c.
    """
    u_slots = sorted(s for s in chosen if 0 < s < half)
    if not u_slots:
        return 0
    c = u_slots[0]
    ends = u_slots[1:] + [half]
    return sum(-(-(b - a) // c) - 1 for a, b in zip(u_slots, ends))


def root_task_solve(g):
    """The serial path before the single search: (value, slot mask, nodes).

    The u_1 node is probed once, and its branches then run in order as root
    tasks on one search that carries the bound forward, each task starting
    from fresh bit planes of its own pool.
    """
    greedy = greedy_upper_bound(g)
    bound = len(greedy)
    u_cap = (bound - 1) // 2
    if not 1 <= u_cap or bound - 1 >= g.half:
        u_cap = g.half
    gap = -(-g.half // u_cap)
    pool = g.full_mask >> gap << gap
    cover = g.cover_masks
    search = _Search(g, bound, greedy.mask, None, u_cap=u_cap)
    root = search.branch_slots(*fresh_node(g, search, cover[0], pool, 1))
    for _, neg in root or ():
        slot = -neg
        pool ^= 1 << slot
        need = gap_need(g.half, (0, slot)) if u_cap < g.half else 0
        search.run(*fresh_node(g, search, cover[0] | cover[slot], pool, 1 | 1 << slot, need)[:6])
    return search.bound, search.best, search.nodes


@pytest.mark.parametrize(
    "delta,n",
    [pytest.param(4, n, id=str(n)) for n in range(16, 201, 2)]
    + [(delta, n) for delta, n in VALID_UP_TO_64 if delta != 4],
)
def test_parallel_value_matches_single_threaded(delta, n):
    # The root tasks are the split the parallel path ran, one task per job;
    # the single-threaded search must return their value, certificate and
    # node count.
    g = build_graph(delta, n)
    value, best, nodes = root_task_solve(g)
    result = solve_exact(g)
    assert result.value == value
    assert result.certificate.mask == best
    assert is_dominating(g, result.certificate)
    assert len(result.certificate) == result.value
    if (delta, n) == (1, 2):
        # u_1 alone dominates W(1, 2), so the single search returns before
        # it counts a node, where the probe counted one.
        assert (nodes, result.nodes_explored) == (1, 0)
    else:
        assert result.nodes_explored == nodes


def recorded(search_class, searches):
    """search_class, with each instance appended to searches."""

    class Recorded(search_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    return Recorded


@pytest.mark.parametrize(
    "graphs",
    [
        pytest.param(VALID_UP_TO_64, id="n<=64"),
        pytest.param([(4, n) for n in range(66, 313, 2)], id="4-66..312"),
        pytest.param([(5, n) for n in range(66, 73, 2)], id="5-66..72"),
    ],
)
def test_search_loop_matches_the_recursive_reference(monkeypatch, graphs):
    # The explicit stack against the recursion it replaced, on every valid
    # graph with n <= 64, W(4, 16..312) and W(5, 32..72); canonical
    # certificates (stop_on_first searches) at gamma and gamma + 1 on
    # W(4, 16..90), with the nodes of all their searches.
    for delta, n in graphs:
        g = build_graph(delta, n)
        with monkeypatch.context() as m:
            m.setattr(knodel.solver, "_Search", RecursiveSearch)
            expected = solve_exact(g)
        got = solve_exact(g)
        assert (got.value, got.certificate.mask, got.nodes_explored) == (
            expected.value, expected.certificate.mask, expected.nodes_explored
        ), (delta, n)
        if delta != 4 or n > 90:
            continue
        for size in (got.value, got.value + 1):
            runs = []
            for search_class in (RecursiveSearch, _Search):
                searches = []
                with monkeypatch.context() as m:
                    m.setattr(knodel.solver, "_Search", recorded(search_class, searches))
                    certificate = canonical_certificate(g, size)
                runs.append((certificate.mask, sum(search.nodes for search in searches)))
            assert runs[0] == runs[1], (n, size)


def test_workers_is_no_longer_a_parameter():
    with pytest.raises(TypeError):
        solve_exact(build_graph(4, 16), workers=2)


@pytest.mark.parametrize("budget", [-1.0, float("nan")])
def test_time_budget_must_be_a_non_negative_number(budget):
    # NaN fails every comparison, so a NaN deadline would never expire.
    with pytest.raises(ValueError):
        solve_exact(build_graph(4, 48), time_budget=budget)


def test_exhausted_budget_reports_bounds_not_value():
    # Both searches outlast the first deadline check, which has to fire
    # although closed children are counted in batches.
    for n in (88, 108):
        g = build_graph(4, n)
        result = solve_exact(g, time_budget=1e-9)
        assert not result.is_exact
        assert result.value is None
        lower, _ = gamma_bounds(g)
        assert result.lower == lower
        assert result.lower <= gamma_formula(n).value <= result.upper
        assert is_dominating(g, result.certificate)
        assert len(result.certificate) == result.upper


def lex_first(g, size):
    """First dominating set of exactly size slots, subsets lexicographic by slot."""
    cover = g.cover_masks
    for combo in itertools.combinations(range(g.n), size):
        if functools.reduce(operator.or_, (cover[s] for s in combo)) == g.full_mask:
            return combo
    return None


def test_canonical_certificate_is_brute_force_first():
    # Brute force scans subsets in lexicographic slot order, so its first
    # hit at a size is exactly the canonical certificate.  brute_force_min
    # stops at the optimal size; one above it a completion may use fewer
    # picks than the positions left, and the scan still takes its witness.
    graphs = (
        [(2, n) for n in range(4, 21, 2)]
        + [(3, n) for n in range(8, 23, 2)]
        + [(4, n) for n in (16, 18, 20)]
    )
    for delta, n in graphs:
        g = build_graph(delta, n)
        value = solve_exact(g).value
        sizes = (value, value + 1)
        canonical = [canonical_certificate(g, size) for size in sizes]
        assert canonical[0] == brute_force_min(g, value).certificate
        for size, certificate in zip(sizes, canonical):
            assert is_dominating(g, certificate)
            assert tuple(g.slot(x) for x in certificate) == lex_first(g, size), (delta, n, size)


def scan_canonical(g, size):
    """Reference: the per-slot scan the witness replaced, with a fresh
    search, closed_cover and bit planes for every candidate slot; the
    ascending slots, or None when no set of that size dominates."""
    cover = g.cover_masks
    chosen, covered = [0], cover[0]
    for position in range(1, size):
        remaining = size - position - 1
        for slot in range(chosen[-1] + 1, g.n - remaining):
            trial, pool = covered | cover[slot], g.full_mask >> (slot + 1) << (slot + 1)
            search = _Search(g, remaining + 1, 0, None, stop_on_first=True)
            if search.run(*fresh_node(g, search, trial, pool, 0)[:6]):
                chosen.append(slot)
                covered = trial
                break
        else:
            return None
    return tuple(chosen) if len(chosen) == size and covered == g.full_mask else None


@pytest.mark.parametrize(
    "delta,n", VALID_UP_TO_64 + [pytest.param(4, n, id=f"4-{n}") for n in range(66, 201, 2)]
)
def test_canonical_certificate_matches_per_slot_scan(delta, n):
    # gamma + 2 (n <= 64) leaves room for completions shorter than the
    # positions left, whose witnesses the scan takes too; the reference takes
    # none.  Above gamma-exact's orders (n > 90) only gamma itself is checked.
    g = build_graph(delta, n)
    value = solve_exact(g).value
    sizes = range(value, value + (3 if n <= 64 else 2 if n <= 90 else 1))
    for size in sizes:
        expected = scan_canonical(g, size)
        if expected is None:  # a size above n
            with pytest.raises(ValueError):
                canonical_certificate(g, size)
            continue
        canonical = canonical_certificate(g, size)
        assert tuple(g.slot(x) for x in canonical) == expected, size


def test_canonical_search_count_is_pinned(monkeypatch):
    # Over gamma-exact's orders at gamma, the per-slot scan ran 1,965
    # completability searches (413 successful, 35,415 nodes).  The witness
    # vouches for the slot the scan would have found, so only the searches
    # below it run: 1,620 (68 successful, 33,573 nodes) with the last
    # completion as found.  Its least image that keeps the prefix starts
    # lower, so fewer searches run below it and fewer succeed.  They all run
    # on one _Search per call, where a fresh one each gave 1,607 instances.
    # The graded tier of forced waste took their nodes from 23,660 to 15,123
    # and left the searches as they were.
    found, searches = [], []

    class RecordedSearch(recorded(_Search, searches)):
        def run(self, *args):
            stopped = super().run(*args)
            found.append(stopped)
            return stopped

    monkeypatch.setattr(knodel.solver, "_Search", RecordedSearch)
    orders = range(16, 91, 2)
    for n in orders:
        canonical_certificate(build_graph(4, n), gamma_formula(n).value)
    assert len(searches) == len(orders)
    assert (len(found), sum(found)) == (1_607, 55)
    assert sum(search.nodes for search in searches) == 15_123


def test_canonical_certificate_not_above_default_certificate():
    g = build_graph(4, 26)
    result = solve_exact(g)
    canonical = canonical_certificate(g, result.value)
    assert is_dominating(g, canonical)
    assert len(canonical) == result.value
    key = lambda s: tuple(g.slot(x) for x in s)
    assert key(canonical) <= key(result.certificate)


def test_canonical_certificate_rejects_impossible_size():
    # Slot 0 is taken without a search, so the refusal comes from the
    # later positions (or, for sizes 0 and 1, from the final check).
    for n in (16, 26, 38, 48):
        g = build_graph(4, n)
        gamma = gamma_formula(n).value
        for size in (gamma - 1, 1, 0):
            with pytest.raises(ValueError):
                canonical_certificate(g, size)


@pytest.mark.parametrize("delta,n,size", [(1, 2, True), (4, 16, 4.0), (4, 16, "4")])
def test_canonical_certificate_checks_size_is_an_integer(delta, n, size):
    # Checked as VertexSet and KnodelGraph check theirs: a bool would count
    # as 1, so True gave {u_1} on W(1, 2), and a float or str failed in range.
    with pytest.raises(ValueError, match=f"size must be an integer, got {size!r}"):
        canonical_certificate(build_graph(delta, n), size)


@pytest.mark.parametrize("delta,n", VALID_UP_TO_64)
def test_rotation_and_side_swap_are_automorphisms(delta, n):
    g = build_graph(delta, n)
    for phi in (lambda x: rotate(g.half, x), lambda x: swap(g.half, x)):
        assert sorted(phi(x) for x in g.vertices()) == sorted(g.vertices())
        for x in g.vertices():
            assert {phi(y) for y in neighbors(g, x)} == neighbors(g, phi(x))


@pytest.mark.parametrize("delta,n", ORBIT_GRAPHS)
def test_some_image_of_each_small_dominating_set_meets_the_cut(delta, n):
    # The symmetry cut keeps, of a dominating set D with |D| = k < n/2, only
    # images that hold u_1, at most floor(k/2) u-vertices and none of
    # u_2 .. u_G, G = ceil(h / floor(k/2)), and the gap rule only those
    # whose cyclic u-gaps are all at most the first, from u_1 to the next
    # u-vertex; every D must keep one.
    g = build_graph(delta, n)
    h, cover = g.half, g.cover_masks
    gamma = brute_force_min(g, h).value
    assert 2 <= gamma < h
    dominating = 0
    for k in range(2, gamma + 1):  # no single vertex dominates, as gamma >= 2
        gap = -(-h // (k // 2))
        for combo in itertools.combinations(range(g.n), k):
            if functools.reduce(operator.or_, (cover[s] for s in combo)) != g.full_mask:
                continue
            dominating += 1
            image = [g.vertex_at(s) for s in combo]
            kept = False
            for _ in range(2):
                for _ in range(h):
                    image = [rotate(h, x) for x in image]
                    u_indices = sorted(x.index for x in image if x.side is Side.U)
                    gaps = [b - a for a, b in zip(u_indices, u_indices[1:] + [h + 1])]
                    kept = kept or (
                        u_indices[:1] == [1]
                        and len(u_indices) <= k // 2
                        and not set(u_indices) & set(range(2, gap + 1))
                        and max(gaps) == gaps[0]
                    )
                image = [swap(h, x) for x in image]
            assert kept, f"no image of slots {combo} meets the cut"
    assert dominating > 0


@pytest.mark.parametrize("delta,n", ORBIT_GRAPHS)
def test_least_image_is_the_least_of_the_orbit(delta, n):
    # Reference: all 2h images of each minimum dominating set holding u_1,
    # by the label-level rotate and swap.
    g = build_graph(delta, n)
    h, cover = g.half, g.cover_masks
    gamma = brute_force_min(g, h).value
    checked = 0
    for combo in itertools.combinations(range(g.n), gamma):
        if combo[0] != 0:
            break
        if functools.reduce(operator.or_, (cover[s] for s in combo)) != g.full_mask:
            continue
        images, image = [], [g.vertex_at(s) for s in combo]
        for _ in range(2):
            for _ in range(h):
                image = [rotate(h, x) for x in image]
                images.append(sorted(g.slot(x) for x in image))
            image = [swap(h, x) for x in image]
        for k in range(1, gamma + 1):
            prefix, rest = list(combo[:k]), list(combo[k:])
            expected = min(im[k:] for im in images if im[:k] == prefix)
            got = _least_image(h, prefix, rest)
            assert got == expected, (combo, k)
            assert functools.reduce(operator.or_, (cover[s] for s in prefix + got)) == g.full_mask
            checked += 1
    assert checked > 0


def test_fixing_u1_keeps_the_plain_search_value():
    # Reference: the same branch and bound started from the empty root, with
    # no vertex fixed and no symmetry cut, seeded with the same greedy
    # incumbent.
    failures = []
    for delta, n in VALID_UP_TO_64:
        g = build_graph(delta, n)
        greedy = greedy_upper_bound(g)
        plain = _Search(g, len(greedy), greedy.mask, None)
        plain.run(*fresh_node(g, plain, 0, g.full_mask, 0)[:6])
        value = solve_exact(g).value
        if value != plain.bound:
            failures.append(f"W({delta}, {n}): fixed {value}, plain {plain.bound}")
    assert not failures


@pytest.mark.parametrize(
    "n,nodes",
    [
        pytest.param(38, 451, id="38"),
        pytest.param(48, 416, id="48"),
        pytest.param(58, 720, id="58"),
        pytest.param(60, 1, id="60"),
        pytest.param(62, 90, id="62"),
        pytest.param(64, 1, id="64"),
        pytest.param(66, 189, id="66"),
        pytest.param(68, 959, id="68"),
        pytest.param(88, 1_323, id="88"),
        pytest.param(128, 1_876, id="128"),
        pytest.param(198, 2_786, id="198"),
        pytest.param(508, 6_816, id="508"),
    ],
)
def test_serial_node_counts_are_pinned(n, nodes):
    # Residue 8 grew about as n^4 without the forced-waste prune (88: 140,518;
    # 128: 567,315), and grows about linearly with it; the symmetry cut took
    # 88 from 20,794 and 128 from 31,882, and the gap rule took 88 from 4,472,
    # 128 from 9,721, 198 from 18,820 and 508 from 64,953.  The graded tier
    # of forced waste took 38 from 907, 88 from 1,751, 128 from 2,574, 198
    # from 3,890 and 508 from 9,718.
    assert solve_exact(build_graph(4, n)).nodes_explored == nodes


def scan_pivot(search, und, pool):
    """The pivot scan the bit planes replaced: the lowest undominated slot
    with the fewest candidates."""
    pivot, best_count = -1, 1 << 62
    t = und
    while t:
        low = t & -t
        slot = low.bit_length() - 1
        c = (search.cover[slot] & pool).bit_count()
        if c < best_count:
            best_count, pivot = c, slot
        t ^= low
    return pivot


def scan_branch_slots(search, covered, pool, picked, need=0, waste_tiers=2):
    """Reference node: the ordered candidate slots, or None if closed.

    The prunes as first written, the bipartite one as a search over splits
    with the symmetry cut's cap on u-side picks and the gap rule's floor
    need on the u-side share, the forced-waste one from its definition with
    its first waste_tiers tiers (0 for none, 1 without the graded rule, 2
    for all), then the pivot scan over every undominated vertex with an
    AND and a bit count each; u-side candidates go once the u-slots of the
    chosen slot mask picked reach the cap, and a pivot with no candidate
    left closes the node.
    """
    size = picked.bit_count()
    upicks = (picked & search.u_mask).bit_count()
    und = search.full & ~covered
    if und == 0:
        return None
    budget = search.bound - 1 - size
    if budget <= 0:
        return None
    dd = search.delta + 1
    m = und.bit_count()
    if size + (m + dd - 1) // dd >= search.bound:
        return None
    uu = (und & search.u_mask).bit_count()
    uv = (und & ~search.u_mask).bit_count()
    # a u-side picks cover at most delta*a v-side vertices and a u-side ones,
    # the set may hold at most u_cap u-side slots, and the gap rule asks at
    # least need more of them.
    delta = search.delta
    if not any(
        delta * a + (budget - a) >= uv and a + delta * (budget - a) >= uu
        for a in range(need, min(budget, search.u_cap - upicks) + 1)
    ):
        return None
    cover = search.cover
    slack = dd * budget - m
    # A pool slot y wastes dd - |N[y] & und|; spread[w] is what the pool
    # slots wasting exactly w cover.
    spread = [0, 0]
    for y in range(len(cover)):
        waste = dd - (cover[y] & und).bit_count()
        if pool >> y & 1 and waste <= 1:
            spread[waste] |= cover[y]
    forced = und & ~spread[0]
    f = forced.bit_count()
    if waste_tiers >= 1:
        # Each forced vertex needs a pick wasting at least one, which covers
        # at most delta of them.
        if -(-f // delta) > slack:
            return None
    if waste_tiers >= 2 and delta > 1:
        # A forced vertex that no pick wasting one covers needs a pick wasting
        # at least two, which covers at most delta - 1 forced vertices; b such
        # picks leave the rest to picks wasting one.
        f2 = (forced & ~spread[1]).bit_count()
        b = -(-f2 // (delta - 1))
        if 2 * b + max(0, -(-(f - (delta - 1) * b) // delta)) > slack:
            return None
    pivot = scan_pivot(search, und, pool)
    members = sorted(
        ((cover[s] & und).bit_count(), -s)
        for s in range(len(cover))
        if (cover[pivot] & pool) >> s & 1 and (s >= search.half or upicks < search.u_cap)
    )
    return [-neg for _, neg in reversed(members)] or None


def plane_counts(planes, n):
    return [sum((p >> x & 1) << i for i, p in enumerate(planes)) for x in range(n)]


@pytest.mark.parametrize("delta,n", VALID_UP_TO_64)
def test_bit_plane_kernel_matches_pivot_scan(delta, n):
    # Random (covered, pool, size, bound) states; pools from full to sparse
    # give every pivot count, and covers from none to one whole side make
    # each prune, the bipartite one included, close some of the states.
    # u-side caps range from none to already reached, and the gap rule's
    # need from none to more than the cap allows.
    g = build_graph(delta, n)
    rng = random.Random(n * 10 + delta)
    caps = random.Random(-(n * 10 + delta))  # the cap's draws leave rng's states as they were
    for _ in range(40):
        dense, sparse = rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)
        covered = rng.choice((0, dense, sparse, g.u_mask, g.full_mask ^ g.u_mask))
        pool = rng.choice((g.full_mask, rng.getrandbits(n)))
        for _ in range(rng.randint(0, 2)):
            pool &= rng.getrandbits(n)
        size = rng.randint(0, 3)
        upicks = caps.randint(0, size)
        u_cap = caps.choice((None, upicks, upicks + caps.randint(1, 3)))
        need = caps.choice((0, 0, caps.randint(1, 4)))
        # The kernel reads only how many slots picked holds, and how many of
        # them on the u-side; a side holds at most half.
        upicks = min(upicks, g.half)
        picked = (1 << upicks) - 1 | ((1 << min(size - upicks, g.half)) - 1) << g.half
        search = _Search(g, size + rng.randint(1, n), 0, None, u_cap=u_cap)
        node = fresh_node(g, search, covered, pool, picked, need)
        planes = node[3]
        counts = [(c & pool).bit_count() for c in g.cover_masks]
        assert plane_counts(planes, n) == counts

        und = g.full_mask & ~covered
        if und:
            assert _pivot(und, planes) == 1 << scan_pivot(search, und, pool)
        expected = scan_branch_slots(search, covered, pool, picked, need)
        got = search.branch_slots(*node)
        if expected is None:
            assert got is None
        else:
            assert [-neg for _, neg in got] == expected
            assert [c for c, _ in got] == [
                (g.cover_masks[s] & und).bit_count() for s in expected
            ]


def has_completion(g, covered, pool, budget):
    """Exhaustive search, no bound: whether <= budget pool slots dominate.

    Every completion holds a candidate of the lowest undominated vertex, so
    branching on those candidates reaches every completion.
    """
    und = g.full_mask & ~covered
    if not und:
        return True
    if budget == 0:
        return False
    candidates = g.cover_masks[(und & -und).bit_length() - 1] & pool
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        slot = low.bit_length() - 1
        if has_completion(g, covered | g.cover_masks[slot], pool, budget - 1):
            return True
    return False


@pytest.mark.parametrize(
    "delta,n",
    [(1, 6), (1, 10), (2, 8), (2, 12), (3, 12), (3, 16), (4, 20), (4, 24), (5, 32),
     (5, 36), (6, 64)],
)
def test_forced_waste_never_closes_a_completable_node(delta, n):
    # Random covers, from closed neighbourhoods of sparse sets to arbitrary
    # masks, with budgets at and just above the counting bound: there the
    # slack is small and the forced-waste rule is the one that closes.
    # States that only its graded tier closes are counted apart, and they
    # are checked like the rest.
    g = build_graph(delta, n)
    rng = random.Random(n * 10 + delta)
    closed_by_rule = closed_by_graded = 0
    for _ in range(200):
        sparse = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        covered = rng.choice(
            (g.closed_cover(sparse), g.closed_cover(sparse) | rng.getrandbits(n),
             rng.getrandbits(n))
        )
        pool = rng.choice(
            (g.full_mask, g.full_mask & ~covered, rng.getrandbits(n) | rng.getrandbits(n))
        )
        m = (g.full_mask & ~covered).bit_count()
        budget = -(-m // (delta + 1)) + rng.randint(0, 1)
        size = rng.randint(0, 2)
        picked = ((1 << size) - 1) << g.half  # v-side slots, so no u-picks
        search = _Search(g, size + 1 + budget, 0, None)
        got = search.branch_slots(*fresh_node(g, search, covered, pool, picked))
        assert (got and [-neg for _, neg in got]) == scan_branch_slots(
            search, covered, pool, picked
        )
        if got is None and scan_branch_slots(search, covered, pool, picked, 0, 0) is not None:
            closed_by_rule += 1
            assert not has_completion(g, covered, pool, budget)
            if scan_branch_slots(search, covered, pool, picked, 0, 1) is not None:
                closed_by_graded += 1
    assert closed_by_rule > 0
    # The graded tier is defined for delta >= 2 only.
    assert closed_by_graded > 0 if delta > 1 else closed_by_graded == 0


class CheckedSearch(_Search):
    """A search that checks every node's carried masks and counts, its
    u-side cap and gap-rule need, and its kernel against the reference."""

    def __init__(self, g, *args, **kwargs):
        super().__init__(g, *args, **kwargs)
        self.graph = g

    def branch_slots(self, covered, near, pool, planes, picked, need, k, ku, m):
        # Called once for every node the search enters.
        assert (k, ku, m) == recount(self, covered, picked)
        assert ku <= self.u_cap
        assert need == (gap_need(self.half, _positions(picked)) if self.u_cap < self.half else 0)
        assert planes == self.graph.cover_counts(pool)
        assert near == self.graph.closed_cover(covered)
        # Below solve_exact's root tasks (size 2), a child that the counting
        # bound closes is counted by its parent and never entered.
        assert k <= 2 or k + -(-m // self.dd) < self.bound
        expected = scan_branch_slots(self, covered, pool, picked, need)
        got = super().branch_slots(covered, near, pool, planes, picked, need, k, ku, m)
        assert (got and [-neg for _, neg in got]) == expected
        return got


@pytest.mark.parametrize(
    "delta,n", [(1, 10), (2, 22), (3, 30), (4, 38), (4, 48), (5, 32), (5, 40)]
)
def test_carried_planes_and_kernel_hold_at_every_node(monkeypatch, delta, n):
    g = build_graph(delta, n)
    plain = solve_exact(g)
    monkeypatch.setattr(knodel.solver, "_Search", CheckedSearch)
    checked = solve_exact(g)
    assert checked.nodes_explored == plain.nodes_explored
    assert checked.certificate == plain.certificate


@pytest.mark.parametrize("delta,n", [(1, 10), (2, 22), (3, 30), (4, 26), (4, 38), (5, 32)])
def test_canonical_scan_carries_planes_and_near_to_every_search(monkeypatch, delta, n):
    # The scan lowers one set of bit planes slot by slot and ORs near masks
    # onto the prefix's; every node of every search checks them.
    g = build_graph(delta, n)
    value = solve_exact(g).value
    sizes = (value, value + 1)
    plain = [canonical_certificate(g, size) for size in sizes]
    monkeypatch.setattr(knodel.solver, "_Search", CheckedSearch)
    assert [canonical_certificate(g, size) for size in sizes] == plain


@pytest.mark.parametrize(
    "delta,n", VALID_UP_TO_64 + [pytest.param(4, n, id=f"4-{n}") for n in range(66, 91, 2)]
)
def test_canonical_scan_adopts_only_valid_witnesses(monkeypatch, delta, n):
    # Every witness the scan takes from the orbit fills the set to exactly
    # size slots above the prefix and dominates.
    g = build_graph(delta, n)
    value = solve_exact(g).value
    least_image = knodel.solver._least_image
    calls = []

    def checked(half, prefix, rest):
        witness = least_image(half, prefix, rest)
        calls.append(witness)
        assert len(set(prefix + witness)) == size
        assert all(slot > prefix[-1] for slot in witness)
        covered = functools.reduce(operator.or_, (g.cover_masks[s] for s in prefix + witness))
        assert covered == g.full_mask
        return witness

    monkeypatch.setattr(knodel.solver, "_least_image", checked)
    for size in (value, value + 1):
        canonical_certificate(g, size)
    assert calls
