import os

import pytest

from knodel import (
    brute_force_min,
    build_graph,
    canonical_certificate,
    gamma_bounds,
    gamma_formula,
    greedy_upper_bound,
    is_dominating,
    solve_exact,
)
from knodel.graphs import Side, Vertex, neighbors
from knodel.solver import _Search

# All 135 valid (delta, n) pairs with n <= 64.
VALID_UP_TO_64 = [
    (delta, n) for delta in range(1, 7) for n in range(2**delta, 65, 2)
]


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


@pytest.mark.parametrize("n", [38, 46])
def test_parallel_value_matches_single_threaded(n):
    g = build_graph(4, n)
    serial = solve_exact(g)
    parallel = solve_exact(g, workers=2)
    assert parallel.value == serial.value
    assert is_dominating(g, parallel.certificate)
    assert len(parallel.certificate) == parallel.value


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        solve_exact(build_graph(4, 16), workers=0)


def test_exhausted_budget_reports_bounds_not_value():
    g = build_graph(4, 48)
    result = solve_exact(g, time_budget=1e-9)
    assert not result.is_exact
    assert result.value is None
    lower, _ = gamma_bounds(g)
    assert result.lower == lower
    assert result.lower <= 12 <= result.upper
    assert is_dominating(g, result.certificate)
    assert len(result.certificate) == result.upper


def test_canonical_certificate_is_brute_force_first():
    # Brute force scans subsets in lexicographic slot order, so its first
    # hit at the optimal size is exactly the canonical certificate.
    for n in (16, 18, 20):
        g = build_graph(4, n)
        value = solve_exact(g).value
        oracle = brute_force_min(g, value)
        canonical = canonical_certificate(g, value)
        assert canonical == oracle.certificate
        assert is_dominating(g, canonical)


def test_canonical_certificate_not_above_default_certificate():
    g = build_graph(4, 26)
    result = solve_exact(g)
    canonical = canonical_certificate(g, result.value)
    assert is_dominating(g, canonical)
    assert len(canonical) == result.value
    key = lambda s: tuple(g.slot(x) for x in s)
    assert key(canonical) <= key(result.certificate)


def test_canonical_certificate_rejects_impossible_size():
    with pytest.raises(ValueError):
        canonical_certificate(build_graph(4, 16), 3)


@pytest.mark.parametrize("delta,n", VALID_UP_TO_64)
def test_rotation_and_side_swap_are_automorphisms(delta, n):
    g = build_graph(delta, n)
    half = g.half
    other = {Side.U: Side.V, Side.V: Side.U}

    def rotate(x):
        return Vertex(x.side, x.index % half + 1)

    def swap(x):
        return Vertex(other[x.side], (-x.index - 1) % half + 1)

    for phi in (rotate, swap):
        assert sorted(phi(x) for x in g.vertices()) == sorted(g.vertices())
        for x in g.vertices():
            assert {phi(y) for y in neighbors(g, x)} == neighbors(g, phi(x))


def test_fixing_u1_keeps_the_plain_search_value():
    # Reference: the same branch and bound started from the empty root, with
    # no vertex fixed, seeded with the same greedy incumbent.
    failures = []
    for delta, n in VALID_UP_TO_64:
        g = build_graph(delta, n)
        greedy = greedy_upper_bound(g)
        plain = _Search(g, len(greedy), tuple(g.slot(x) for x in greedy), None)
        plain.run(0, g.full_mask, 0, ())
        value = solve_exact(g).value
        if value != plain.bound:
            failures.append(f"W({delta}, {n}): fixed {value}, plain {plain.bound}")
    assert not failures


@pytest.mark.parametrize("n,nodes", [(48, 13_969), (58, 29_296)])
def test_serial_node_counts_are_pinned(n, nodes):
    assert solve_exact(build_graph(4, n)).nodes_explored == nodes


@pytest.mark.parametrize("cpus,expected", [(1, []), (4, [4]), (64, [5])])
def test_worker_count_is_clamped(pool_sizes, monkeypatch, cpus, expected):
    # W(4, 38) has five root tasks below the u_1 node.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    g = build_graph(4, 38)
    result = solve_exact(g, workers=10**6)
    assert pool_sizes == expected
    assert result.value == solve_exact(g).value == 10


@pytest.mark.parametrize("n", [40, 44])
def test_root_closing_orders_start_no_pool(pool_sizes, n):
    result = solve_exact(build_graph(4, n), workers=10**6)
    assert result.value == gamma_formula(n).value
    assert pool_sizes == []
