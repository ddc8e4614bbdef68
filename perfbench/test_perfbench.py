"""Tests of the benchmark itself: every gate trips on a wrong answer.

    python3 -m pytest -q perfbench

These are not part of the package's test suite (pyproject's testpaths is
tests/); they check the harness, not knodel.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import run
import spans
import workloads

cli = run.import_package()
GOLDEN = workloads.load_golden()


def call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_gamma_gate_accepts_the_program_and_trips_on_each_wrong_field():
    n = 46
    gate = workloads.gamma_gate(n, GOLDEN["gamma"][n])
    rc, out = call(["gamma", str(n), "--method", "both", "--canonical"])
    assert gate(rc, out) is None
    doc = json.loads(out)
    value = doc["exact"]
    cert = doc["certificate"]
    # The set with the last v-side member moved one step: same size, not canonical.
    moved = {"u": cert["u"], "v": cert["v"][:-1] + [cert["v"][-1] % (n // 2) + 1]}
    wrong = [
        (1, out),
        (0, json.dumps({**doc, "exact": value - 1})),
        (0, json.dumps({**doc, "formula": value + 1, "exact": value + 1})),
        (0, json.dumps({**doc, "agree": False})),
        (0, json.dumps({**doc, "nodes": 0})),
        (0, json.dumps({**doc, "certificate": moved})),
    ]
    for case in wrong:
        assert gate(*case) is not None, case


def test_gamma_gate_rechecks_domination_of_a_golden_match():
    n = 46
    entry = dict(GOLDEN["gamma"][n])
    rc, out = call(["gamma", str(n), "--method", "both", "--canonical"])
    # A golden copy that is itself wrong: one member short of dominating.
    short = {**entry, "value": entry["value"] - 1, "v": entry["v"][:-1]}
    doc = json.loads(out)
    doc.update(formula=short["value"], exact=short["value"],
               certificate={"u": short["u"], "v": short["v"]})
    assert workloads.gamma_gate(n, short)(0, json.dumps(doc)) is not None


def test_sweep_gate_ignores_only_elapsed_ms():
    rows = [r for r in GOLDEN["sweep"] if 40 <= int(r.split(",")[0]) <= 48]
    gate = workloads.sweep_gate(rows)
    rc, out = call(["sweep", "--from", "40", "--to", "48"])
    assert gate(rc, out) is None
    lines = out.splitlines()
    retimed = "\n".join([lines[0]] + [row.rpartition(",")[0] + ",999999" for row in lines[1:]])
    assert gate(0, retimed) is None
    wrong_exact = out.replace("46,11,11,true", "46,11,12,false")
    assert wrong_exact != out
    assert gate(0, wrong_exact) is not None
    assert gate(1, out) is not None
    assert gate(0, "\n".join(lines[:-1])) is not None
    assert gate(0, lines[0] + "\n" + lines[1].rpartition(",")[0] + ",fast") is not None


def test_certify_gates(tmp_path):
    n = 10002
    doc = tmp_path / "set.json"
    rc, out = call(["construct", str(n), "--out", str(doc)])
    assert workloads.construct_gate(n, doc)(rc, out) is None
    assert workloads.verify_pass_gate(*call(["verify", "--set", str(doc)])) is None

    bad = tmp_path / "bad.json"
    workloads._drop_member(doc, bad, 7)()
    assert workloads.construct_gate(n, bad)(0, "") is not None
    rc, out = call(["verify", "--set", str(bad)])
    assert rc == 1 and out.startswith("FAIL")
    assert workloads.verify_fail_gate(bad)(rc, out) is None
    # The negative control trips when verify passes a bad set or misreports it.
    assert workloads.verify_fail_gate(bad)(0, "PASS\n") is not None
    assert workloads.verify_fail_gate(bad)(1, out.replace("FAIL undominated=", "FAIL undominated=9")) is not None
    assert workloads.verify_fail_gate(bad)(1, "".join(out.splitlines(True)[:-1])) is not None
    assert workloads.verify_pass_gate(rc, out) is not None
    assert workloads.verify_pass_gate(1, "PASS\n") is not None
    assert workloads.construct_gate(n, doc)(0, "noise") is not None

    loose = json.loads(doc.read_text())
    loose["u"] = loose["u"] + [n // 2]
    doc.write_text(json.dumps(loose))
    assert workloads.construct_gate(n, doc)(0, "") is not None


def test_independent_check_matches_the_package_verifier():
    from knodel import VertexSet, build_graph, undominated

    for n, us, vs in [(40, [1, 6], [3, 9, 20]), (52, [], [1]), (16, [1, 2], [6, 7])]:
        g = build_graph(4, n)
        expected = [str(x) for x in undominated(g, VertexSet.from_indices(g, us, vs))]
        assert workloads.undominated_labels(n, 4, us, vs) == expected


def test_census_gate_trips_on_changed_lines_and_count():
    params = (5, 30, 2, 2)
    expected = GOLDEN["census"][params]
    gate = workloads.text_gate(expected)
    argv = ["enum-seq", "--k", "5", "--total", "30", "--exact-in-m", "2", "--adj-max", "2"]
    assert gate(*call(argv)) is None
    lines = expected.splitlines(True)
    assert gate(0, "".join(lines[1:])) is not None
    assert gate(0, "".join(lines[:-1] + ["count 1\n"])) is not None
    assert gate(1, expected) is not None


def test_runner_counts_raising_jobs_and_gate_failures():
    jobs = [
        workloads.Job(["gamma", "40", "--method", "formula"], lambda rc, out: None),
        workloads.Job(["gamma", "40", "--method", "formula"], lambda rc, out: "wrong"),
        workloads.Job(["gamma", "40"], lambda rc, out: json.loads("")),
    ]

    class Raising:
        @staticmethod
        def main(argv):
            if argv == ["gamma", "40"]:
                raise RuntimeError("boom")
            return cli.main(argv)

    runner = run.Runner(Raising, lambda pass_id: jobs)
    runner.run_pass(0, traced=False)
    assert runner.attempted == 3
    assert len(runner.failures) == 2
    assert "raised RuntimeError" in runner.failures[1]


def test_host_factor_charges_each_job_its_bracketing_samples_by_job_time():
    class Scripted(run.HostSpeed):
        def __init__(self, kernel_times):
            self.kernel_times = iter(kernel_times)
            super().__init__()

        def sample(self, kernels):
            self.samples += kernels
            return next(self.kernel_times)

    host = Scripted([0.010, 0.010, 0.030, 0.030])
    host.after_job(3.0)  # charged 0.010 for 3 s
    host.after_job(1.0)  # charged 0.020 for 1 s
    assert math.isclose(host.pass_factor(), run.HOST_REFERENCE_S / ((0.030 + 0.020) / 4))
    host.after_job(2.0)  # a new pass: only this job counts
    assert math.isclose(host.pass_factor(), run.HOST_REFERENCE_S / 0.030)


def jobs_of(workload, seed, tmp_path, pass_id=0):
    groups = workloads.build_groups(workload, seed, GOLDEN, tmp_path)
    return workloads.pass_jobs(groups, workload, seed, pass_id)


def test_seed_fixes_the_jobs_and_keeps_each_residue_in_its_band(tmp_path):
    for workload in workloads.WORKLOADS:
        a = jobs_of(workload, 3, tmp_path)
        b = jobs_of(workload, 3, tmp_path)
        assert [j.argv for j in a] == [j.argv for j in b]
    orders = {seed: workloads.certify_orders(seed) for seed in range(20)}
    for by_residue in orders.values():
        for r, n in by_residue.items():
            lo = workloads.CERTIFY_BANDS[r]
            assert n % 10 == r and lo <= n < lo + 100
    assert len({tuple(o.values()) for o in orders.values()}) > 1
    firsts = {jobs_of("gamma-exact", seed, tmp_path)[0].argv[1]
              for seed in range(10)}
    assert len(firsts) > 1
    passes = [jobs_of("certify-large", 3, tmp_path, pass_id) for pass_id in range(10)]
    assert len({tuple(j.argv[1] for j in jobs) for jobs in passes}) > 1
    for jobs in passes:  # each verify follows the construct that writes its document
        for k, job in enumerate(jobs):
            if job.argv[0] == "verify" and "minus-one" not in job.argv[2]:
                assert jobs[k - 1].argv[:2] == ["construct", job.argv[2].split("-")[-1][:-5]]


def test_self_time_subtracts_direct_children_only():
    fake = [
        {"id": 0, "name": "cli", "start": 0.0, "end": 10.0, "parent": None, "job": "0.0", "attrs": {}},
        {"id": 1, "name": "solver.solve", "start": 1.0, "end": 7.0, "parent": 0, "job": "0.0",
         "attrs": {"n": 88, "nodes": 5, "value": 20}},
        {"id": 2, "name": "domination.greedy", "start": 1.0, "end": 2.0, "parent": 1, "job": "0.0",
         "attrs": {"size": 22}},
        {"id": 3, "name": "graphs.cover_masks", "start": 1.0, "end": 1.5, "parent": 2, "job": "0.0",
         "attrs": {"bytes": 100}},
    ]
    assert spans.self_times(fake) == {0: 4.0, 1: 5.0, 2: 0.5, 3: 0.5}
    m = spans.pass_metrics(fake)
    assert m["cli.self_s"] == 4.0 and m["solver.solve_s"] == 5.0
    assert m["solver.nodes.r8"] == 5 and m["solver.nodes"] == 5
    assert m["solver.greedy_excess"] == 2 and m["solver.nodes_per_s"] == 1.0
    assert m["graphs.cover_masks_bytes"] == 100


def test_traced_counters_equal_what_the_program_reports_and_originals_return():
    import knodel.cli
    import knodel.graphs

    before = (knodel.cli.solve_exact, vars(knodel.graphs.KnodelGraph)["cover_masks"])
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert knodel.cli.solve_exact is not before[0]
        with tracer.job("0.0"):
            rc, out = call(["gamma", "48", "--method", "both"])
    assert (knodel.cli.solve_exact, vars(knodel.graphs.KnodelGraph)["cover_masks"]) == before
    m = spans.pass_metrics(tracer.spans)
    assert m["solver.nodes"] == m["solver.nodes.r8"] == json.loads(out)["nodes"]
    assert m["graphs.cover_masks_bytes"] > 0 and m["solver.solve_s"] > 0
    assert {s["name"] for s in tracer.spans} >= {"cli", "solver.solve", "domination.greedy",
                                                  "graphs.cover_masks"}
    assert all(s["job"] == "0.0" for s in tracer.spans)

    # Outside a job nothing is recorded, so the gates' own calls stay out of the trace.
    recorded = len(tracer.spans)
    with spans.instrument(tracer):
        call(["gamma", "48", "--method", "both"])
    assert len(tracer.spans) == recorded
