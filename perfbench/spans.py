"""In-memory spans around the knodel layers, recorded from outside the package.

Tracing never edits the package: `instrument()` swaps the public functions
that the CLI reaches (in their defining module and in every knodel module
that imported them by name), `VertexSet.from_indices` and the
`KnodelGraph.cover_masks` cached property for recording wrappers, and puts
the originals back when the context ends.  A name the package no longer has
is skipped, so its layer simply reports no work.

A span is (id, name, start, end, parent span, job id, attrs).  Spans are
recorded only while a job is open, so the benchmark's own output gates,
which call the same functions, never appear in the trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from functools import cached_property

PACKAGE_MODULES = ("graphs", "domination", "gamma4", "solver", "sequences", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: str | None = None

    @contextlib.contextmanager
    def job(self, job_id: str, **attrs):
        """Root span of one CLI call; every span recorded inside carries job_id."""
        self._job = job_id
        try:
            with self.span("cli", **attrs) as span_attrs:
                yield span_attrs
        finally:
            self._job = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if self._job is None:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self._job,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# Counters are filled after the layer's span has closed, inside a
# "trace.count" span, so their cost lands in no layer's self time.


def _count_solve(attrs, args, result):
    attrs["n"] = args[0].n
    attrs["nodes"] = result.nodes_explored
    attrs["value"] = result.value


def _count_size(attrs, args, result):
    attrs["size"] = len(result)


def _count_enumerate(attrs, args, result):
    k, total = args[0], args[1]
    attrs["candidates"] = math.comb(total - 1, k - 1)
    attrs["classes"] = len(result)


def _count_masks(attrs, args, result):
    attrs["bytes"] = sum(sys.getsizeof(mask) for mask in result)


# (defining module, function, span name, counter)
FUNCTIONS = (
    ("solver", "solve_exact", "solver.solve", _count_solve),
    ("solver", "canonical_certificate", "solver.canonical", None),
    ("domination", "greedy_upper_bound", "domination.greedy", _count_size),
    ("domination", "undominated", "domination.verify", None),
    ("domination", "is_dominating", "domination.verify", None),
    ("gamma4", "construct_dominating_set", "gamma4.construct", None),
    ("sequences", "enumerate_sequences", "sequences.enumerate", _count_enumerate),
)


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
        if count is not None and attrs is not None:
            with tracer.span("trace.count"):
                count(attrs, args, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the recording wrappers for the duration of the context."""
    modules = [importlib.import_module(f"knodel.{m}") for m in PACKAGE_MODULES]
    modules.append(importlib.import_module("knodel"))
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span_name, count in FUNCTIONS:
            original = getattr(importlib.import_module(f"knodel.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)

        domination = importlib.import_module("knodel.domination")
        from_indices = vars(domination.VertexSet).get("from_indices")
        if isinstance(from_indices, classmethod):
            restore.append((domination.VertexSet, "from_indices", from_indices))
            domination.VertexSet.from_indices = classmethod(
                _wrap(tracer, "domination.from_indices", from_indices.__func__, None)
            )

        graphs = importlib.import_module("knodel.graphs")
        cover_masks = vars(graphs.KnodelGraph).get("cover_masks")
        if isinstance(cover_masks, cached_property):
            restore.append((graphs.KnodelGraph, "cover_masks", cover_masks))
            traced = cached_property(
                _wrap(tracer, "graphs.cover_masks", cover_masks.func, _count_masks)
            )
            traced.__set_name__(graphs.KnodelGraph, "cover_masks")
            graphs.KnodelGraph.cover_masks = traced
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


# Layer time metrics: span name -> metric name (self time, seconds per pass).
LAYER_TIMES = {
    "cli": "cli.self_s",
    "graphs.cover_masks": "graphs.cover_masks_s",
    "domination.from_indices": "domination.from_indices_s",
    "domination.verify": "domination.verify_s",
    "domination.greedy": "domination.greedy_s",
    "gamma4.construct": "gamma4.construct_s",
    "solver.solve": "solver.solve_s",
    "solver.canonical": "solver.canonical_s",
    "sequences.enumerate": "sequences.enumerate_s",
}


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans recorded during it."""
    selfs = self_times(spans)
    out = {metric: 0.0 for metric in LAYER_TIMES.values()}
    for s in spans:
        if s["name"] in LAYER_TIMES:
            out[LAYER_TIMES[s["name"]]] += selfs[s["id"]]
    solves = {
        s["id"]: s["attrs"]
        for s in spans
        if s["name"] == "solver.solve" and "nodes" in s["attrs"]
    }
    nodes = {r: 0 for r in (0, 2, 4, 6, 8)}
    for attrs in solves.values():
        nodes[attrs["n"] % 10] += attrs["nodes"]
    # Greedy size minus the exact value: the refutation work the incumbent
    # leaves to the search.
    excess = sum(
        s["attrs"]["size"] - solves[s["parent"]]["value"]
        for s in spans
        if s["name"] == "domination.greedy" and s["parent"] in solves
    )
    out["solver.nodes"] = sum(nodes.values())
    for r, count in nodes.items():
        out[f"solver.nodes.r{r}"] = count
    solve_s = out["solver.solve_s"]
    out["solver.nodes_per_s"] = out["solver.nodes"] / solve_s if solve_s > 0 else 0.0
    out["solver.greedy_excess"] = excess

    candidates = sum(s["attrs"].get("candidates", 0) for s in spans)
    classes = sum(s["attrs"].get("classes", 0) for s in spans)
    out["sequences.candidates"] = candidates
    out["sequences.classes"] = classes
    out["sequences.kept_ratio"] = classes / candidates if candidates else 0.0

    out["graphs.cover_masks_bytes"] = sum(
        s["attrs"].get("bytes", 0) for s in spans if s["name"] == "graphs.cover_masks"
    )
    out["cli.doc_bytes"] = sum(
        s["attrs"].get("doc_bytes", 0) for s in spans if s["name"] == "cli"
    )
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
