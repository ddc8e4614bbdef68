"""The four workloads: the CLI jobs each one runs, and the gate on each job.

A job is one `knodel.cli.main(argv)` call.  Its gate receives the exit code
and the captured stdout and returns None when the output is right, or the
reason it is wrong.  Gates compare against golden copies in `golden/` and
against checks written here from the graph's definition, never against the
code path that produced the output.

The seed picks each large order inside a fixed band for its residue class
and the member the negative control drops; with the pass number it shuffles
the job order of each pass.  A run thus averages over many orders, which
matters on certify-large, where the order moves the allocator's work.  The
seed never changes which residue classes or parameter sets are run, so the
work per pass stays the same across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

GAMMA_ORDERS = tuple(range(16, 92, 2))
SWEEP_CHUNKS = ((40, 48), (50, 58), (60, 68), (70, 80))
SWEEP_THREADS = "2"
# Residue class -> lowest order of its band; the seed adds 10 * [0, 10).
CERTIFY_BANDS = {0: 10000, 2: 15000, 4: 20000, 6: 25000, 8: 30000}
CENSUS = ((6, 40, 2, 1), (6, 36, 2, 1), (6, 32, 1, 1), (5, 40, 1, 0), (5, 36, 2, 1), (5, 30, 2, 2))

Gate = Callable[[int, str], "str | None"]


@dataclass
class Job:
    argv: list[str]
    gate: Gate
    env: dict[str, str] = field(default_factory=dict)
    # Untimed preparation, run just before the call (writes an input document).
    prepare: Callable[[], None] | None = None


def gamma_value(n: int) -> int:
    """gamma(W(4, n)) for even n >= 40, from the paper's residue formula."""
    return 2 * (n // 10) + {0: 0, 2: 2, 4: 2, 6: 3, 8: 4}[n % 10]


def undominated_labels(n: int, delta: int, us: list[int], vs: list[int]) -> list[str]:
    """Vertices of W(delta, n) that the set misses, in slot order.

    Linear in n and written from the adjacency rule u_i ~ v_j iff
    (j - i) mod (n/2) = 2**k - 1, independently of the package.
    """
    half = n // 2
    offsets = [2**k - 1 for k in range(delta)]
    cov_u = bytearray(half)
    cov_v = bytearray(half)
    for i in us:
        cov_u[i - 1] = 1
        for off in offsets:
            cov_v[(i - 1 + off) % half] = 1
    for j in vs:
        cov_v[j - 1] = 1
        for off in offsets:
            cov_u[(j - 1 - off) % half] = 1
    return [f"u{i + 1}" for i in range(half) if not cov_u[i]] + [
        f"v{j + 1}" for j in range(half) if not cov_v[j]
    ]


def load_golden() -> dict:
    return {
        "gamma": {int(n): entry for n, entry in json.loads((GOLDEN / "gamma.json").read_text()).items()},
        "sweep": json.loads((GOLDEN / "sweep.json").read_text()),
        "census": {
            params: (GOLDEN / census_file(params)).read_text() for params in CENSUS
        },
    }


def census_file(params: tuple[int, int, int, int]) -> str:
    return "enum-seq-{}-{}-{}-{}.txt".format(*params)


# ---- gates ---------------------------------------------------------------


def gamma_gate(n: int, golden: dict) -> Gate:
    def gate(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(out)
        value = golden["value"]
        if doc.get("n") != n or doc.get("delta") != 4:
            return f"wrong graph in {doc}"
        if doc.get("formula") != value or doc.get("exact") != value:
            return f"formula {doc.get('formula')}, exact {doc.get('exact')}, golden {value}"
        if doc.get("agree") is not True:
            return "agree is not true"
        if not isinstance(doc.get("nodes"), int) or doc["nodes"] < 1:
            return f"bad node count {doc.get('nodes')}"
        cert = doc.get("certificate", {})
        if cert != {"u": golden["u"], "v": golden["v"]}:
            return f"certificate {cert} differs from the golden canonical set"
        if len(cert["u"]) + len(cert["v"]) != value or not _is_dominating(n, cert):
            return "certificate does not dominate with the claimed size"
        return None

    return gate


def _is_dominating(n: int, cert: dict) -> bool:
    from knodel import VertexSet, build_graph, is_dominating

    g = build_graph(4, n)
    return is_dominating(g, VertexSet.from_indices(g, cert["u"], cert["v"]))


def sweep_gate(rows: list[str]) -> Gate:
    header = "n,formula,exact,agree,construct_ok,elapsed_ms"

    def gate(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        if not lines or lines[0] != header:
            return f"bad header {lines[:1]}"
        got = []
        for line in lines[1:]:
            head, _, elapsed = line.rpartition(",")
            if not elapsed.isdigit():
                return f"bad elapsed_ms in {line!r}"
            got.append(head)
        if got != rows:
            return f"rows {got} differ from golden {rows}"
        return None

    return gate


def construct_gate(n: int, path: Path) -> Gate:
    def gate(rc: int, out: str) -> str | None:
        if rc != 0 or out != "":
            return f"exit code {rc}, stdout {out[:80]!r}"
        doc = json.loads(path.read_text())
        us, vs = doc.get("u"), doc.get("v")
        if doc.get("n") != n or doc.get("delta") != 4:
            return f"wrong graph n={doc.get('n')} delta={doc.get('delta')}"
        for side in (us, vs):
            if side != sorted(set(side)) or not all(1 <= i <= n // 2 for i in side):
                return "member indices not sorted, unique and in range"
        if len(us) + len(vs) != gamma_value(n):
            return f"size {len(us) + len(vs)}, formula {gamma_value(n)}"
        missed = undominated_labels(n, 4, us, vs)
        if missed:
            return f"{len(missed)} vertices undominated"
        return None

    return gate


def verify_pass_gate(rc: int, out: str) -> str | None:
    if rc != 0 or out != "PASS\n":
        return f"exit code {rc}, stdout {out[:80]!r}, expected PASS"
    return None


def verify_fail_gate(path: Path) -> Gate:
    """The negative control: verify must print FAIL and the exact misses."""

    def gate(rc: int, out: str) -> str | None:
        doc = json.loads(path.read_text())
        missed = undominated_labels(doc["n"], doc["delta"], doc["u"], doc["v"])
        expected = "".join(
            line + "\n" for line in [f"FAIL undominated={len(missed)}"] + missed
        )
        if rc != 1 or out != expected:
            return f"exit code {rc}, stdout {out[:80]!r}, expected {expected[:80]!r}"
        return None

    return gate


def text_gate(expected: str) -> Gate:
    def gate(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if out != expected:
            return f"output differs from golden copy ({len(out)} vs {len(expected)} chars)"
        return None

    return gate


# ---- job lists -----------------------------------------------------------


def _drop_member(source: Path, target: Path, index: int) -> Callable[[], None]:
    def prepare() -> None:
        doc = json.loads(source.read_text())
        members = [("u", i) for i in doc["u"]] + [("v", j) for j in doc["v"]]
        side, idx = members[index % len(members)]
        doc[side] = [i for i in doc[side] if i != idx]
        target.write_text(json.dumps(doc) + "\n")

    return prepare


def certify_orders(seed: int) -> dict[int, int]:
    rng = random.Random(f"certify-large:{seed}")
    return {r: lo + 10 * rng.randrange(10) + r for r, lo in CERTIFY_BANDS.items()}


def build_groups(workload: str, seed: int, golden: dict, workdir: Path) -> list[list[Job]]:
    """The jobs of a pass, in groups that must run in order (construct, then verify)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gamma-exact":
        groups = [
            [Job(["gamma", str(n), "--method", "both", "--canonical"],
                 gamma_gate(n, golden["gamma"][n]))]
            for n in GAMMA_ORDERS
        ]
    elif workload == "sweep-par2":
        groups = []
        for lo, hi in SWEEP_CHUNKS:
            rows = [row for row in golden["sweep"] if lo <= int(row.split(",")[0]) <= hi]
            groups.append([Job(["sweep", "--from", str(lo), "--to", str(hi)],
                               sweep_gate(rows), env={"KNODEL_THREADS": SWEEP_THREADS})])
    elif workload == "certify-large":
        orders = certify_orders(seed)
        groups = []
        for r, n in orders.items():
            doc = workdir / f"set-{n}.json"
            group = [
                Job(["construct", str(n), "--out", str(doc)], construct_gate(n, doc)),
                Job(["verify", "--set", str(doc)], verify_pass_gate),
            ]
            if r == 0:
                bad = workdir / f"set-{n}-minus-one.json"
                drop = _drop_member(doc, bad, rng.randrange(gamma_value(n)))
                group.append(Job(["verify", "--set", str(bad)], verify_fail_gate(bad),
                                 prepare=drop))
            groups.append(group)
    elif workload == "census":
        groups = []
        for params in CENSUS:
            k, total, exact, adj = params
            expected = golden["census"][params]
            count = int(expected.rsplit("count ", 1)[1])
            groups.append([Job(
                ["enum-seq", "--k", str(k), "--total", str(total), "--exact-in-m", str(exact),
                 "--adj-max", str(adj), "--expect", str(count)],
                text_gate(expected),
            )])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return groups


def pass_jobs(groups: list[list[Job]], workload: str, seed: int, pass_id: int) -> list[Job]:
    """The jobs of pass `pass_id`, groups in an order drawn from seed and pass."""
    order = list(groups)
    random.Random(f"{workload}:{seed}:{pass_id}").shuffle(order)
    return [job for group in order for job in group]


WORKLOADS = ("gamma-exact", "sweep-par2", "certify-large", "census")
