"""Benchmark of the knodel CLI: one closed-loop client, gated outputs.

    python3 perfbench/run.py --workload gamma-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` of the
same checkout and driven in-process through `knodel.cli.main(argv)`, one job
at a time.  A pass runs every job of the workload once; passes repeat until
--seconds have gone by (at least MIN_PASSES), and times are pass medians.
End-to-end times are scaled to the reference box's speed by HostSpeed; the
summary line also gives them unscaled (raw_wall_s, raw_setup_s).

--trace 0 prints the end-to-end metrics: setup_s, wall_s, peak_rss_mb.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, including the tracing overhead; the spans go to
perfbench/traces/<workload>-seed<seed>.json.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 when any job failed its gate, 2 on a usage or
set-up error (for instance when src/knodel is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_LAUNCHES = 15
# One host_kernel() call after each job, one more per HOST_JOB_S of the job
# (at most HOST_MAX_KERNELS), so long jobs get a steadier sample.
HOST_JOB_S = 0.25
HOST_MAX_KERNELS = 8
# Mean time of host_kernel() on the reference box (2 vCPUs, Intel Xeon at
# 2.1 GHz, Python 3.11.7).  Scaled times read as seconds on that box.
HOST_REFERENCE_S = 0.016


class SetupError(Exception):
    pass


def import_package():
    """Import knodel from this checkout's src/, and only from there."""
    if not (SRC / "knodel" / "cli.py").is_file():
        raise SetupError(f"{SRC / 'knodel'} not found; run from a knodel checkout")
    sys.path.insert(0, str(SRC))
    import knodel.cli

    if Path(knodel.cli.__file__).resolve().parent != (SRC / "knodel").resolve():
        raise SetupError(f"imported knodel from {knodel.cli.__file__}, not {SRC}")
    return knodel.cli


def _launch(args: list[str]) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SetupError(f"fresh interpreter failed: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stderr


class SetupProbe:
    """Times a fresh interpreter up to `import knodel.cli` imported.

    Launches are spread over the whole run, between jobs, so that drift in
    the machine's speed during the run averages out of the median.
    """

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_LAUNCHES
        self.samples: list[float] = []
        self.last = time.perf_counter()
        _launch(["-c", "import knodel.cli"])  # writes the bytecode cache once

    def between_jobs(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.sample()

    def sample(self) -> None:
        self.samples.append(_launch(["-c", "import knodel.cli"])[0])
        self.last = time.perf_counter()

    def median(self) -> float:
        while len(self.samples) < SETUP_LAUNCHES:
            self.sample()
        return statistics.median(self.samples)


def host_kernel() -> int:
    """A fixed piece of interpreter work that shares no code with knodel:
    small-integer arithmetic, then AND, OR and shifts on 25 KB integers.
    It allocates almost nothing, so it leaves peak_rss_mb alone."""
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    big = (1 << 200_000) - 1
    mask = 0
    for k in range(160):
        mask |= (big >> (k * 997)) & (big << (k * 13))
    return acc ^ mask.bit_length()


class HostSpeed:
    """Times host_kernel() before the first job and after every job.

    The shared host's speed swings by up to 1.5x within a minute, and the
    CLI calls and launches of a run slow down with it.  Each job is charged
    the mean of the kernel times just before and just after it; a pass's
    kernel time is the mean of those, weighted by job time.  pass_factor() is
    HOST_REFERENCE_S over that: a pass time multiplied by it reads as on the
    reference box.  The kernel shares no code with the package, so a change
    to knodel moves the scaled times as much as the raw ones.  The one
    exception: work the program left running between jobs would slow the
    kernel and read as a slower host.
    """

    def __init__(self) -> None:
        self.weighted = 0.0
        self.weight = 0.0
        self.samples = 0
        self.last = self.sample(HOST_MAX_KERNELS)

    def sample(self, kernels: int) -> float:
        started = time.perf_counter()
        for _ in range(kernels):
            host_kernel()
        self.samples += kernels
        return (time.perf_counter() - started) / kernels

    def after_job(self, job_s: float) -> None:
        now = self.sample(min(1 + int(job_s / HOST_JOB_S), HOST_MAX_KERNELS))
        self.weighted += job_s * (self.last + now) / 2
        self.weight += job_s
        self.last = now

    def pass_factor(self) -> float:
        """The factor of the jobs since the last call."""
        factor = HOST_REFERENCE_S * self.weight / self.weighted
        self.weighted = self.weight = 0.0
        return factor


def import_times() -> tuple[float, list[dict]]:
    """Median import time of knodel.cli, and the per-module breakdown of one launch."""
    code = "import sys; sys.stderr.write('--mark--\\n'); import knodel.cli"
    _launch(["-c", code])
    totals, modules = [], []
    for _ in range(5):
        _, err = _launch(["-X", "importtime", "-c", code])
        modules = []
        for line in err.split("--mark--\n", 1)[1].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            modules.append({"module": name.strip(), "depth": depth,
                            "self_us": int(self_us), "cumulative_us": int(cumulative_us)})
        totals.append(sum(m["cumulative_us"] for m in modules if m["depth"] == 0) / 1e6)
    return statistics.median(totals), sorted(modules, key=lambda m: -m["self_us"])


def _doc_bytes(argv: list[str], out: str) -> int:
    """Bytes of the documents a call printed, wrote (--out) or read (--set)."""
    total = len(out.encode())
    for flag in ("--out", "--set"):
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            if path.is_file():
                total += path.stat().st_size
    return total


class Runner:
    """Runs passes; `jobs(pass_id)` gives the jobs of a pass in their order."""

    def __init__(self, cli, jobs, tracer=None, between_jobs=None):
        self.cli = cli
        self.jobs = jobs
        self.tracer = tracer
        self.between_jobs = between_jobs
        self.attempted = 0
        self.failures: list[str] = []  # one entry per job that failed its gate
        self.problems: list[str] = []  # run-level checks that failed

    def run_pass(self, pass_id: int, traced: bool) -> float:
        """Run every job once; return the summed time of the CLI calls."""
        wall = 0.0
        for k, job in enumerate(self.jobs(pass_id)):
            out, err = io.StringIO(), io.StringIO()
            saved = {key: os.environ.get(key) for key in job.env}
            os.environ.update(job.env)
            job_span = (
                self.tracer.job(f"{pass_id}.{k}", argv=job.argv, pass_id=pass_id)
                if traced
                else contextlib.nullcontext({})
            )
            rc, reason, elapsed = None, None, 0.0
            try:
                if job.prepare is not None:
                    job.prepare()
                with job_span as attrs, contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    started = time.perf_counter()
                    try:
                        rc = self.cli.main(list(job.argv))
                    finally:
                        elapsed = time.perf_counter() - started
                        wall += elapsed
                if traced:  # after the span closed, so no layer pays for the stat
                    attrs["doc_bytes"] = _doc_bytes(job.argv, out.getvalue())
            except Exception as exc:  # a raising job is a failed job
                reason = f"raised {type(exc).__name__}: {exc}"
            finally:
                for key, value in saved.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value
            if reason is None:
                try:
                    reason = job.gate(rc, out.getvalue())
                except Exception as exc:
                    reason = f"gate could not read the output: {type(exc).__name__}: {exc}"
            self.attempted += 1
            if reason is not None:
                stderr = err.getvalue().strip()[-200:]
                self.failures.append(f"{' '.join(job.argv)}: {reason} {stderr}".strip())
            if self.between_jobs is not None:
                self.between_jobs(elapsed)
        return wall


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def measure(args, cli) -> tuple[Runner, dict, dict]:
    golden = workloads.load_golden()
    workdir = HERE / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        groups = workloads.build_groups(args.workload, args.seed, golden, workdir)

        def jobs(pass_id: int) -> list:
            return workloads.pass_jobs(groups, args.workload, args.seed, pass_id)

        if args.trace:
            return measure_traced(args, cli, jobs)
        started = time.perf_counter()
        setup = SetupProbe(args.seconds)
        host = HostSpeed()

        def between_jobs(job_s: float) -> None:
            host.after_job(job_s)
            setup.between_jobs()

        runner = Runner(cli, jobs, between_jobs=between_jobs)
        walls, factors = [], []
        while len(walls) < MIN_PASSES or time.perf_counter() - started < args.seconds:
            walls.append(runner.run_pass(len(walls), traced=False))
            factors.append(host.pass_factor())
        raw_setup, raw_wall = setup.median(), statistics.median(walls)
        factor = statistics.median(factors)
        metrics = {  # launches are short, so setup_s takes the run's median factor
            "setup_s": raw_setup * factor,
            "wall_s": statistics.median(w * f for w, f in zip(walls, factors)),
            "peak_rss_mb": peak_rss_mb(),
        }
        info = {"passes": len(walls), "host_samples": host.samples,
                "host_factor": f"{factor:.4f}", "raw_setup_s": f"{raw_setup:.4f}",
                "raw_wall_s": f"{raw_wall:.4f}"}
        return runner, metrics, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def measure_traced(args, cli, jobs) -> tuple[Runner, dict, dict]:
    tracer = spans.Tracer()
    runner = Runner(cli, jobs, tracer)
    started = time.perf_counter()
    import_s, modules = import_times()
    untraced, traced, per_pass = [], [], []
    while len(traced) < 2 or time.perf_counter() - started < args.seconds:
        untraced.append(runner.run_pass(len(untraced) + len(traced), traced=False))
        first = len(tracer.spans)
        with spans.instrument(tracer):
            traced.append(runner.run_pass(len(untraced) + len(traced), traced=True))
        per_pass.append(spans.pass_metrics(tracer.spans[first:]))
    layer = spans.median_metrics(per_pass)
    layer["cli.import_s"] = import_s
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    counters = [k for k in layer if k.startswith(("solver.nodes.", "sequences.classes"))]
    unstable = [k for k in counters if len({p[k] for p in per_pass}) != 1]
    if unstable:
        runner.problems.append(f"counters differ between passes: {unstable}")

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "per_pass": per_pass,
        "imports": modules[:25],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(report, default=str))
    return runner, layer, {"passes": len(traced), "trace_file": str(path.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_package()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        runner, values, info = measure(args, cli)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    failed = len(runner.failures)
    correct = failed == 0 and not runner.problems
    for failure in runner.failures[:20] + runner.problems:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={failed} "
          f"failed_ratio={failed / max(runner.attempted, 1):.4g} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        shown = f"{value:.0f}" if unit in ("count", "bytes") else f"{value:.6g}"
        print(f"  {name:28s} {shown} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
