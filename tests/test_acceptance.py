"""Acceptance gate: the headline guarantees, one test and one report line each.

The criteria, end to end: the closed-form reference values; solver/formula
agreement on all even orders in [16, 312]; brute-force agreement on
[16, 24]; verified optimal constructions on [16, 200] and at one order per
residue in [10^6, 10^6 + 8]; the common-neighbour predicate against explicit
neighbourhood intersections for all valid graphs with n <= 64; the
gap-sequence census; the degree-based bounds; and byte-level
reproducibility of the sweep, also with KNODEL_THREADS set.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import knodel
from knodel import (
    build_graph,
    common_neighbor_predicate,
    common_neighbors,
    construct_dominating_set,
    enumerate_sequences,
    gamma_formula,
    greedy_upper_bound,
    is_dominating,
    solve_exact,
    u,
    v,
)
from oracles import brute_force_min

FORMULA_TABLE = {
    16: 4,
    18: 4,
    20: 4,
    22: 6,
    24: 6,
    26: 7,
    28: 7,
    30: 6,
    36: 8,
    38: 10,
    40: 8,
    46: 11,
    48: 12,
}


def report(number: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number} ({description}): {status}")
    assert not failures, f"criterion {number} ({description}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def exact_sweep():
    """Exact domination numbers for every even order in [16, 312], timed."""
    started = time.perf_counter()
    results = {n: solve_exact(build_graph(4, n)) for n in range(16, 313, 2)}
    return results, time.perf_counter() - started


def test_criterion_1_formula_reference_table():
    failures = [
        f"n={n}: formula gave {gamma_formula(n).value}, expected {value}"
        for n, value in FORMULA_TABLE.items()
        if gamma_formula(n).value != value
    ]
    report(1, "closed form reproduces the reference values", failures)


def test_criterion_2_solver_matches_formula_on_16_to_312(exact_sweep):
    results, elapsed = exact_sweep
    failures = []
    for n, result in results.items():
        expected = gamma_formula(n).value
        if not result.is_exact or result.value != expected:
            failures.append(f"n={n}: solver gave {result.value}, formula {expected}")
        if not is_dominating(result.certificate.graph, result.certificate):
            failures.append(f"n={n}: certificate does not dominate")
        if len(result.certificate) != result.value:
            failures.append(f"n={n}: certificate size differs from value")
    if elapsed >= 600:
        failures.append(f"sweep took {elapsed:.1f}s, budget is 600s")
    report(2, "exact solver matches the formula on [16, 312]", failures)


def test_criterion_3_brute_force_agrees_on_16_to_24():
    started = time.perf_counter()
    failures = []
    for n in range(16, 25, 2):
        g = build_graph(4, n)
        oracle = brute_force_min(g, len(greedy_upper_bound(g)))
        solved = solve_exact(g)
        if oracle is None or oracle.value != solved.value:
            got = None if oracle is None else oracle.value
            failures.append(f"n={n}: brute force {got}, solver {solved.value}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(f"comparison took {elapsed:.1f}s, budget is 60s")
    report(3, "brute-force oracle agrees with the solver on [16, 24]", failures)


def test_criterion_4_constructions_verify_on_16_to_200_and_near_one_million():
    started = time.perf_counter()
    failures = []
    for n in [*range(16, 201, 2), *range(10**6, 10**6 + 9, 2)]:
        expected = gamma_formula(n).value
        try:
            ds = construct_dominating_set(n)
        except Exception as exc:
            failures.append(f"n={n}: construction raised {exc}")
            continue
        if len(ds) != expected:
            failures.append(f"n={n}: size {len(ds)}, formula {expected}")
        if not is_dominating(ds.graph, ds):
            failures.append(f"n={n}: constructed set does not dominate")
    elapsed = time.perf_counter() - started
    if elapsed >= 10:
        failures.append(f"audit took {elapsed:.1f}s, budget is 10s")
    report(
        4,
        "constructions are optimal dominating sets on [16, 200] and [10**6, 10**6 + 8]",
        failures,
    )


def test_criterion_5_common_neighbor_predicate_is_exhaustive():
    failures = []
    for delta in (2, 3, 4, 5):
        for n in range(2**delta, 65, 2):
            g = build_graph(delta, n)
            for make in (u, v):
                side = [make(i) for i in range(1, g.half + 1)]
                for i, a in enumerate(side):
                    for b in side[i + 1 :]:
                        fast = common_neighbor_predicate(g, a, b)
                        slow = bool(common_neighbors(g, a, b))
                        if fast != slow:
                            failures.append(
                                f"delta={delta} n={n} {a},{b}: "
                                f"predicate {fast}, intersection {slow}"
                            )
    report(5, "distance predicate matches neighborhood intersections", failures)


def test_criterion_6_sequence_census_reproduces_reference_classes():
    expected = {
        (3, 13, 2, 0): [(1, 4, 8), (1, 8, 4), (2, 3, 8), (2, 8, 3), (4, 4, 5)],
        (4, 19, 1, 1): [(1, 5, 5, 8), (1, 8, 5, 5), (4, 5, 5, 5)],
        (4, 19, 2, 0): [
            (1, 4, 5, 9),
            (1, 8, 1, 9),
            (1, 8, 2, 8),
            (1, 9, 5, 4),
            (2, 3, 5, 9),
            (2, 9, 5, 3),
            (3, 5, 3, 8),
            (3, 5, 5, 6),
            (3, 5, 6, 5),
            (3, 6, 5, 5),
        ],
    }
    failures = []
    for (k, total, exact, adj), classes in expected.items():
        got = [c.canonical.gaps for c in enumerate_sequences(k, total, exact, adj)]
        if got != classes:
            failures.append(f"({k},{total},{exact},{adj}): got {got}")
    report(6, "gap-sequence census reproduces the reference classes", failures)


def test_criterion_7_exact_values_respect_general_bounds(exact_sweep):
    results, _ = exact_sweep
    failures = []
    for n, result in results.items():
        lower, upper = math.ceil(n / 5), n - 4
        if not lower <= result.value <= upper:
            failures.append(f"n={n}: {result.value} outside [{lower}, {upper}]")
    report(7, "exact values lie within the degree-based bounds", failures)


# Runs the sweep in a fresh interpreter and fails if it loaded a process pool.
SWEEP_SCRIPT = """
import sys
from knodel.cli import main
code = main(["sweep", "--from", "16", "--to", "48"])
assert not {"concurrent.futures.process", "multiprocessing"} & set(sys.modules)
sys.exit(code)
"""


def _run_sweep(threads: str | None) -> list[str]:
    # The child imports the knodel this process imported, with or without an
    # install or PYTHONPATH in the parent's environment.
    env = {key: value for key, value in os.environ.items() if key != "KNODEL_THREADS"}
    src = str(Path(knodel.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if threads is not None:
        env["KNODEL_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.splitlines()


def test_criterion_8_sweep_is_reproducible():
    # elapsed_ms is wall-clock time and cannot be bit-stable, so byte
    # comparison applies to everything before that final column.
    first = _run_sweep(None)
    second = _run_sweep(None)
    threaded = _run_sweep("2")
    failures = []
    mask = lambda lines: [line.rsplit(",", 1)[0] for line in lines]
    if len(first) != 18:
        failures.append(f"expected 18 lines, got {len(first)}")
    if mask(first) != mask(second):
        failures.append("two runs differ outside elapsed_ms")
    if mask(first) != mask(threaded):
        failures.append("a set KNODEL_THREADS changes the output")
    if any(not line.endswith(",true,true") for line in mask(first)[1:]):
        failures.append("some row does not agree")
    report(8, "sweep output is reproducible and ignores KNODEL_THREADS", failures)
