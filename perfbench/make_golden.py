"""Write the golden copies the output gates compare against.

    python3 perfbench/make_golden.py

Run from the repository root.  Every golden entry is produced by the CLI and
cross-checked before it is written: gamma values against the residue formula
(orders >= 40) and certificates with the independent domination check in
workloads.py.  Rerun only when a change is meant to alter these outputs, and
say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def _call(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"refusing to write golden copies: {what}")


def main() -> int:
    cli = run.import_package()
    gamma = {}
    for n in workloads.GAMMA_ORDERS:
        doc = json.loads(_call(cli, ["gamma", str(n), "--method", "both", "--canonical"]))
        cert = doc["certificate"]
        _check(doc["agree"] and len(cert["u"]) + len(cert["v"]) == doc["exact"],
               f"n={n}: {doc}")
        _check(n < 40 or doc["exact"] == workloads.gamma_value(n), f"n={n}: off the formula")
        _check(not workloads.undominated_labels(n, 4, cert["u"], cert["v"]),
               f"n={n}: certificate does not dominate")
        gamma[str(n)] = {"value": doc["exact"], "u": cert["u"], "v": cert["v"]}
    lines = [f"{json.dumps(n)}: {json.dumps(entry)}" for n, entry in gamma.items()]
    (workloads.GOLDEN / "gamma.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")

    lo, hi = workloads.SWEEP_CHUNKS[0][0], workloads.SWEEP_CHUNKS[-1][1]
    csv = _call(cli, ["sweep", "--from", str(lo), "--to", str(hi)]).splitlines()
    rows = [line.rpartition(",")[0] for line in csv[1:]]
    _check(all(row.endswith(",true,true") for row in rows), f"sweep rows {rows}")
    (workloads.GOLDEN / "sweep.json").write_text(json.dumps(rows, indent=1) + "\n")

    for k, total, exact, adj in workloads.CENSUS:
        text = _call(cli, ["enum-seq", "--k", str(k), "--total", str(total),
                           "--exact-in-m", str(exact), "--adj-max", str(adj)])
        name = workloads.census_file((k, total, exact, adj))
        (workloads.GOLDEN / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
