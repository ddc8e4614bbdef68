"""Command-line interface: gamma, construct, verify, sweep, enum-seq, export.

Exit codes: 0 on success or agreement, 1 on a mathematical disagreement or a
failed verification, 2 on usage or IO errors.  Commands report usage errors
by raising ValueError; main prints it, or an OSError, as one "error: " line
on stderr.  Dominating sets travel as JSON documents
{"n": ..., "delta": ..., "u": [...], "v": [...]} with sorted, deduplicated
1-based index arrays; verify is the only command that reads a document.
export writes W(delta, n) as dot, an edge list or a JSON adjacency object,
for other tools; nothing here parses them back.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import sys
import time
from typing import Iterable, Iterator

from .domination import VertexSet, undominated
from .gamma4 import ConstructionError, construct_dominating_set, gamma_formula
from .graphs import KnodelGraph, build_graph
from .sequences import _census
from .solver import canonical_certificate, solve_exact

__all__ = ["main"]

# The largest order verify, construct, export and sweep accept: each builds
# n-bit masks; export writes its lines as it makes them, so no more is held.
# enum-seq accepts --total up to half of it: its gap sequences place
# vertices on one side of W(delta, 2 * total), so it takes the same orders.
_MAX_ORDER = 2**21
# The most characters verify reads of a set document: every valid one fits,
# as all 2**21 indices take 15.9 Mi compact and 31.9 Mi with indent=4.
_MAX_DOCUMENT = 16 * _MAX_ORDER
# The largest order an exact solve accepts: solve_exact builds n cover masks
# and n near masks of n bits each, about n^2 / 4 bytes (64 MB here).
_MAX_EXACT_ORDER = 2**14
# The most compositions, comb(total - 1, k - 1), whose classes enum-seq
# enumerates; --k 2 at the largest --total stays just under it.  It bounds
# time only: enum-seq writes each class as the census yields it.
_MAX_COMPOSITIONS = 2**20
# The longest gap sequence enum-seq enumerates.  Each prefix it keeps copies
# up to k gaps, so its time grows as k**3 even where there are only k
# compositions; the census needs k 5-6.
_MAX_K = 64


def _write_lines(lines: Iterable[str], out: str | None) -> int:
    """Write each line and a newline to the file out, else to stdout, in batches; count them."""
    written = 0
    with open(out, "w") if out is not None else contextlib.nullcontext(sys.stdout) as f:
        rest = iter(lines)
        while batch := list(itertools.islice(rest, 4096)):
            f.write("\n".join(batch) + "\n")
            written += len(batch)
    return written


def _index_arrays(ds: VertexSet) -> dict[str, list[int]]:
    return {"u": list(ds.u_indices), "v": list(ds.v_indices)}


def _set_document(ds: VertexSet) -> str:
    return json.dumps({"n": ds.graph.n, "delta": ds.graph.delta, **_index_arrays(ds)})


def _strictly_increasing(value: object, key: str) -> list:
    # JSON gives int, bool, float, str, None, list or dict members.  Members
    # that do not compare fail here; VertexSet.from_indices refuses the rest
    # of what is not an int, in the one scan of their types.
    if not isinstance(value, list):
        raise ValueError(f'"{key}" must be an array of integers')
    try:
        if not all(map(operator.lt, value, itertools.islice(value, 1, None))):
            raise ValueError(f'"{key}" must be sorted and deduplicated')
    except TypeError:
        raise ValueError(f'"{key}" must be an array of integers') from None
    return value


def _load_set_document(path: str) -> tuple[KnodelGraph, VertexSet]:
    try:
        with open(path) as f:
            # Chunks of 2**20, one more than the limit holds: no limit-sized buffer.
            chunks = iter(functools.partial(f.read, 2**20), "")
            raw = "".join(itertools.islice(chunks, _MAX_DOCUMENT // 2**20 + 1))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    if len(raw) > _MAX_DOCUMENT:
        raise ValueError(f"{path} is longer than the limit of {_MAX_DOCUMENT} characters")
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must contain a JSON object")
    for key in ("n", "delta", "u", "v"):
        if key not in doc:
            raise ValueError(f'{path} is missing the "{key}" key')
    u_indices = _strictly_increasing(doc["u"], "u")
    v_indices = _strictly_increasing(doc["v"], "v")
    g = build_graph(doc["delta"], doc["n"])
    if g.n > _MAX_ORDER:
        raise ValueError(f"order {g.n} in {path} exceeds the limit {_MAX_ORDER}")
    try:
        return g, VertexSet.from_indices(g, u_indices, v_indices)
    except ValueError:
        # A member that is not an int is reported for its key, before any range.
        for key, indices in (("u", u_indices), ("v", v_indices)):
            if not {int}.issuperset(map(type, indices)):
                raise ValueError(f'"{key}" must be an array of integers') from None
        raise


def _cmd_gamma(args: argparse.Namespace) -> int:
    if args.canonical and args.method == "formula":
        raise ValueError("--canonical needs --method exact or both")
    doc: dict[str, object] = {"n": args.n, "delta": 4}
    if args.method in ("formula", "both"):
        doc["formula"] = gamma_formula(args.n).value
    if args.method in ("exact", "both"):
        if args.n > _MAX_EXACT_ORDER:
            raise ValueError(f"order {args.n} exceeds the exact-solve limit {_MAX_EXACT_ORDER}")
        g = build_graph(4, args.n)
        result = solve_exact(g)
        certificate = result.certificate
        if args.canonical:
            certificate = canonical_certificate(g, result.value)
        doc["exact"] = result.value
        doc["nodes"] = result.nodes_explored
        doc["certificate"] = _index_arrays(certificate)
    if args.method == "both":
        doc["agree"] = doc["formula"] == doc["exact"]
    print(json.dumps(doc))
    return 0 if doc.get("agree", True) else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.n > _MAX_ORDER:
        raise ValueError(f"order {args.n} exceeds the limit {_MAX_ORDER}")
    ds = construct_dominating_set(args.n)
    _write_lines([_set_document(ds)], args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g, ds = _load_set_document(args.set)
    if args.graph is not None:
        n, delta = args.graph
        if (n, delta) != (g.n, g.delta):
            raise ValueError(
                f"--graph {n} {delta} does not match the document's W({g.delta}, {g.n})"
            )
    missed = undominated(g, ds)
    if len(missed) == 0:
        print("PASS")
        return 0
    print(f"FAIL undominated={len(missed)}")
    _write_lines(_labels(missed), None)
    return 1


def _labels(s: VertexSet) -> Iterator[str]:
    """Labels of the members of s in slot order, one side's indices held at a time."""
    yield from map("u{}".format, s.u_indices)
    yield from map("v{}".format, s.v_indices)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise ValueError(f"--from {args.start} exceeds --to {args.stop}")
    if args.stop > _MAX_ORDER:
        raise ValueError(f"--to {args.stop} exceeds the order limit {_MAX_ORDER}")
    if args.budget is not None and not args.budget >= 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    if args.budget != 0 and args.stop > _MAX_EXACT_ORDER:
        raise ValueError(
            f"--to {args.stop} exceeds the exact-solve limit {_MAX_EXACT_ORDER}; "
            "--budget 0 skips the solver"
        )
    build_graph(4, args.start)
    build_graph(4, args.stop)
    failures = []

    def rows() -> Iterator[str]:
        yield "n,formula,exact,agree,construct_ok,elapsed_ms"
        for n in range(args.start, args.stop + 2, 2):
            started = time.perf_counter()
            formula = gamma_formula(n).value
            exact = "unknown"
            agree = ""
            if args.budget != 0:
                result = solve_exact(build_graph(4, n), time_budget=args.budget)
                if result.is_exact:
                    exact = str(result.value)
                    agree = "true" if result.value == formula else "false"
            try:
                construct_dominating_set(n)
                construct_ok = "true"
            except ConstructionError:
                construct_ok = "false"
            if agree == "false" or construct_ok == "false":
                failures.append(n)
            elapsed_ms = round((time.perf_counter() - started) * 1000)
            yield f"{n},{formula},{exact},{agree},{construct_ok},{elapsed_ms}"

    _write_lines(rows(), args.out)
    return 1 if failures else 0


def _cmd_enum_seq(args: argparse.Namespace) -> int:
    if args.total > _MAX_ORDER // 2:
        raise ValueError(f"--total {args.total} exceeds the limit {_MAX_ORDER // 2}")
    if args.k > _MAX_K:
        raise ValueError(f"--k {args.k} exceeds the limit {_MAX_K}")
    if 1 <= args.k <= args.total and math.comb(args.total - 1, args.k - 1) > _MAX_COMPOSITIONS:
        raise ValueError(f"--k {args.k} --total {args.total}: over {_MAX_COMPOSITIONS} sequences")
    census = _census(args.k, args.total, args.exact_in_m, args.adj_max, delta=args.delta)
    fmt = ",".join(["%d"] * args.k)
    count = _write_lines((fmt % gaps for gaps, _ in census), None)
    print(f"count {count}")
    return 1 if args.expect is not None and args.expect != count else 0


def _edges(g: KnodelGraph) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j) of the edges u_i v_j, by i and then by offset."""
    for s in range(g.half):
        for t in g.neighbor_slots(s):
            yield s + 1, t - g.half + 1


def _edgelist_lines(g: KnodelGraph) -> Iterator[str]:
    return (f"u{i} v{j}" for i, j in _edges(g))


def _dot_lines(g: KnodelGraph) -> Iterator[str]:
    yield f"graph knodel_{g.delta}_{g.n} {{"
    for side in "uv":
        yield f"  subgraph cluster_{side} {{"
        yield f'    label="{side.upper()}";'
        yield "    rank=same;"
        for i in range(1, g.half + 1):
            yield f"    {side}{i};"
        yield "  }"
    for i, j in _edges(g):
        yield f"  u{i} -- v{j};"
    yield "}"


def _adjacency_lines(g: KnodelGraph) -> Iterator[str]:
    """The object {"n": ..., "delta": ..., "adjacency": {...}} as json.dumps
    writes it with indent=2, one vertex entry at a time.  Neighbours ascend
    by slot, which is their label order, and labels need no escaping."""
    half = g.half
    yield f'{{\n  "n": {g.n},\n  "delta": {g.delta},\n  "adjacency": {{'
    for s in range(g.n):
        ends = sorted(g.neighbor_slots(s))
        items = '",\n      "'.join(f"u{t + 1}" if t < half else f"v{t - half + 1}" for t in ends)
        label = f"u{s + 1}" if s < half else f"v{s - half + 1}"
        comma = "," if s < g.n - 1 else ""
        yield f'    "{label}": [\n      "{items}"\n    ]{comma}'
    yield "  }\n}"


def _cmd_export(args: argparse.Namespace) -> int:
    if args.n > _MAX_ORDER:
        raise ValueError(f"order {args.n} exceeds the limit {_MAX_ORDER}")
    g = build_graph(args.delta, args.n)
    lines = {"edgelist": _edgelist_lines, "dot": _dot_lines, "json": _adjacency_lines}
    _write_lines(lines[args.format](g), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process at the first main call; each
    parse_args call fills a fresh Namespace, so no state carries over."""
    parser = argparse.ArgumentParser(
        prog="knodel",
        description="Domination numbers, certificates and exports for Knödel graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="domination number of W(4, n)")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=("formula", "exact", "both"), default="both")
    p.add_argument(
        "--canonical",
        action="store_true",
        help="report the lexicographically smallest optimal certificate",
    )
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("construct", help="write an optimal dominating set of W(4, n)")
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a dominating-set document")
    p.add_argument("--set", required=True, help="path of the JSON set document")
    p.add_argument(
        "--graph",
        nargs=2,
        type=int,
        metavar=("N", "DELTA"),
        help="require the document to describe W(DELTA, N)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="compare formula, solver and construction over a range")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--budget", type=float, help="solver seconds per order; 0 skips the solver")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enum-seq", help="enumerate gap-sequence classes up to rotation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--exact-in-m", dest="exact_in_m", type=int, required=True)
    p.add_argument("--adj-max", dest="adj_max", type=int, required=True)
    p.add_argument("--delta", type=int, default=4)
    p.add_argument("--expect", type=int, help="exit 1 unless exactly this many classes")
    p.set_defaults(func=_cmd_enum_seq)

    p = sub.add_parser("export", help="serialise W(delta, n)")
    p.add_argument("n", type=int)
    p.add_argument("--delta", type=int, default=4)
    p.add_argument("--format", choices=("dot", "edgelist", "json"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
