"""The CLI through main: outputs, exit codes, limits and byte-stable exports.

- Every command is driven through main, the one dispatch path, so every
  case also covers main's exit codes and its one "error: " line.  main
  builds its parser once per process; no state carries from one call to
  the next.
- The streamed JSON export is compared, byte for byte, with json.dumps of
  the whole adjacency object.
- The enum-seq limits are checked on both sides: --total, the number of
  gap sequences and --k, each before the census generator is called; the
  --total limit, 524,282 classes at --k 2, also runs for real.
- sweep checks every argument before it opens --out, then writes each row
  as it is solved.
- Exact solves run for real at the exact limit, and a sweep over
  4970..4980 runs past the depth where the recursive search failed.
- enum-seq and enumerate_sequences, the two consumers of one census
  generator, are compared line for line on every k <= 6, total <= 24,
  degree 2 to 5 and filter 0 to 3, and on the benchmark's six sets.
- enum-seq writes its lines while the census runs: its output is on stdout
  before a failing census stops, and its traced memory stays under 3 MB.
- verify reads its document in bounded chunks, so on a small document its
  traced memory stays under 2 MB.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import knodel
from knodel import (
    build_graph,
    canonical_certificate,
    construct_dominating_set,
    enumerate_sequences,
    is_dominating,
    m_delta,
    solve_exact,
    undominated,
)
from knodel.cli import (
    _MAX_DOCUMENT,
    _MAX_EXACT_ORDER,
    _MAX_K,
    _MAX_ORDER,
    _build_parser,
    _census,
    _set_document,
    _strictly_increasing,
    main,
)
from knodel.domination import VertexSet
from knodel.graphs import neighbors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_both_reports_agreement(capsys):
    code, out, _ = run(capsys, "gamma", "36")
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 36 and doc["delta"] == 4
    assert doc["formula"] == 8 and doc["exact"] == 8
    assert doc["agree"] is True
    g = build_graph(4, 36)
    cert = VertexSet.from_indices(g, doc["certificate"]["u"], doc["certificate"]["v"])
    assert is_dominating(g, cert) and len(cert) == 8


def test_gamma_formula_only(capsys):
    code, out, _ = run(capsys, "gamma", "46", "--method", "formula")
    doc = json.loads(out)
    assert code == 0
    assert doc["formula"] == 11
    assert "exact" not in doc and "agree" not in doc


def test_gamma_canonical_certificate(capsys):
    code, out, _ = run(capsys, "gamma", "16", "--method", "exact", "--canonical")
    doc = json.loads(out)
    assert code == 0
    g = build_graph(4, 16)
    expected = canonical_certificate(g, solve_exact(g).value)
    assert doc["certificate"] == {
        "u": list(expected.u_indices),
        "v": list(expected.v_indices),
    }


@pytest.mark.parametrize("argv", [("gamma", "15"), ("gamma", "14"), ("gamma", "x")])
def test_gamma_rejects_bad_orders(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 2


def test_orders_below_the_degree_minimum_get_one_message(capsys):
    # Each command checks an order by building W(4, n), so each refuses 14
    # with the graph's own message, whether it solves, constructs or sweeps.
    message = "error: degree 4 requires order at least 2**4, got 14\n"
    for argv in (("gamma", "14"), ("gamma", "14", "--method", "exact"), ("construct", "14"),
                 ("sweep", "--from", "14", "--to", "20")):
        assert run(capsys, *argv) == (2, "", message), argv


def test_construct_writes_set_document(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "16")
    assert code == 0
    assert json.loads(out) == {"n": 16, "delta": 4, "u": [1, 2], "v": [6, 7]}
    target = tmp_path / "d20.json"
    code, out, _ = run(capsys, "construct", "20", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {
        "n": 20,
        "delta": 4,
        "u": [1, 6],
        "v": [5, 10],
    }
    assert target.read_text().endswith("\n")


def test_construct_rejects_odd_order(capsys):
    assert run(capsys, "construct", "17")[0] == 2


def test_verify_accepts_constructed_document(capsys, tmp_path):
    target = tmp_path / "d26.json"
    assert run(capsys, "construct", "26", "--out", str(target))[0] == 0
    code, out, _ = run(capsys, "verify", "--set", str(target))
    assert code == 0
    assert out == "PASS\n"
    code, _, _ = run(capsys, "verify", "--set", str(target), "--graph", "26", "4")
    assert code == 0


def test_verify_prints_every_witness(capsys, tmp_path):
    doc = {"n": 28, "delta": 4, "u": [1, 5, 10], "v": [7, 9, 14]}
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--set", str(target))
    assert code == 1
    assert out.splitlines() == ["FAIL undominated=2", "u3", "u12"]


def test_verify_empty_set_lists_every_vertex(capsys, tmp_path):
    target = tmp_path / "empty.json"
    target.write_text(json.dumps({"n": 16, "delta": 4, "u": [], "v": []}))
    code, out, _ = run(capsys, "verify", "--set", str(target))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL undominated=16"
    assert len(lines) == 17


# Each rejected document and the one stderr line verify prints for it; {path}
# stands for the document's path.
REJECTED_DOCUMENTS = {
    '{"n": 16, "delta": 4, "u": [2, 1], "v": []}': '"u" must be sorted and deduplicated',
    '{"n": 16, "delta": 4, "u": [1, 1], "v": []}': '"u" must be sorted and deduplicated',
    '{"n": 16, "delta": 4, "u": [1, "2"], "v": []}': '"u" must be an array of integers',
    '{"n": 16, "delta": 4, "u": [true], "v": []}': '"u" must be an array of integers',
    '{"n": 16, "delta": 4, "u": [9], "v": []}': "vertex index 9 out of range [1, 8]",
    '{"n": 16, "delta": 4, "u": [0], "v": []}': "vertex index 0 out of range [1, 8]",
    '{"n": 16, "delta": 4, "v": []}': '{path} is missing the "u" key',
    '{"n": 15, "delta": 4, "u": [], "v": []}': "order must be a positive even integer, got 15",
    '{"n": "16", "delta": 4, "u": [], "v": []}': "order must be an integer, got '16'",
    '{"n": 16, "delta": true, "u": [1, 2, 3, 4, 5, 6, 7, 8], "v": []}':
        "degree must be an integer, got True",
    "[1, 2]": "{path} must contain a JSON object",
    "not json": "invalid JSON in {path}: Expecting value: line 1 column 1 (char 0)",
    '{"n": 16, "delta": 4, "u": [1.0], "v": []}': '"u" must be an array of integers',
    '{"n": 16, "delta": 4, "u": [], "v": [null]}': '"v" must be an array of integers',
    '{"n": 16, "delta": 4, "u": [1, [2]], "v": []}': '"u" must be an array of integers',
    '{"n": 16, "delta": 4, "u": [1], "v": [%d]}' % 10**30:
        f"vertex index {10**30} out of range [1, 8]",
    '{"n": 16, "delta": 4, "u": [3, 7, 0, 12, 9], "v": []}': '"u" must be sorted and deduplicated',
    '{"n": 16, "delta": 4, "u": [0], "v": [true, 2]}': '"v" must be an array of integers',
    # json.loads raises RecursionError on this, not JSONDecodeError.
    "[" * 100_000 + "]" * 100_000: "invalid JSON in {path}: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string",
}


@pytest.mark.parametrize("n", [4096, 8194])
def test_verify_fail_report_is_undominated_in_slot_order(capsys, tmp_path, n):
    # 4,096 lines fill one write batch exactly; 8,194 spill into a third.
    target = tmp_path / "empty.json"
    target.write_text(json.dumps({"n": n, "delta": 4, "u": [], "v": []}))
    code, out, _ = run(capsys, "verify", "--set", str(target))
    g = build_graph(4, n)
    assert code == 1
    assert out == f"FAIL undominated={n}\n" + "".join(f"{x}\n" for x in undominated(g, VertexSet(g)))


@pytest.mark.parametrize(  # an id keeps a document's first 100 characters
    "doc, message",
    [pytest.param(doc, msg, id=doc[:100]) for doc, msg in REJECTED_DOCUMENTS.items()],
)
def test_verify_rejects_malformed_documents(capsys, tmp_path, doc, message):
    target = tmp_path / "doc.json"
    target.write_text(doc)
    code, out, err = run(capsys, "verify", "--set", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(path=target)}\n"


def test_verify_rejects_missing_file_and_graph_mismatch(capsys, tmp_path):
    assert run(capsys, "verify", "--set", str(tmp_path / "absent.json"))[0] == 2
    target = tmp_path / "d16.json"
    assert run(capsys, "construct", "16", "--out", str(target))[0] == 0
    code, _, err = run(capsys, "verify", "--set", str(target), "--graph", "18", "4")
    assert code == 2
    assert "does not match" in err


def test_verify_refuses_orders_over_the_document_limit(capsys, tmp_path):
    # Both documents hold a constructed dominating set, so only the limit decides.
    # construct refuses the order over the limit, so the library writes that one.
    at_limit, over = (tmp_path / "at_limit.json", tmp_path / "over.json")
    assert run(capsys, "construct", str(_MAX_ORDER), "--out", str(at_limit))[0] == 0
    over.write_text(_set_document(construct_dominating_set(_MAX_ORDER + 2)))
    assert run(capsys, "verify", "--set", str(at_limit))[:2] == (0, "PASS\n")
    code, out, err = run(capsys, "verify", "--set", str(over))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(_MAX_ORDER) in err


def test_verify_reads_no_more_than_the_document_limit(capsys, tmp_path):
    # A valid document padded to the limit passes; one more character is
    # refused before json parses it, as is /dev/zero, which never ends.
    at_limit, over = tmp_path / "at_limit.json", tmp_path / "over.json"
    doc = _set_document(construct_dominating_set(16))
    at_limit.write_text(doc.ljust(_MAX_DOCUMENT))
    over.write_text(doc.ljust(_MAX_DOCUMENT + 1))
    assert run(capsys, "verify", "--set", str(at_limit)) == (0, "PASS\n", "")
    paths = [over] + [Path("/dev/zero")] * Path("/dev/zero").exists()
    for path in paths:
        message = f"error: {path} is longer than the limit of {_MAX_DOCUMENT} characters\n"
        assert run(capsys, "verify", "--set", str(path)) == (2, "", message)


def test_verify_reads_a_small_document_without_a_limit_sized_buffer(capsys, tmp_path):
    # A single read sized to the limit asks for a 33.5 MB buffer whatever
    # the document's size; verify's bounded chunks keep a small one small.
    target = tmp_path / "d26.json"
    target.write_text(_set_document(construct_dominating_set(26)))
    tracemalloc.start()
    try:
        assert run(capsys, "verify", "--set", str(target)) == (0, "PASS\n", "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_sorted_check_copies_no_index_array():
    # A copy of a 10**6-member list, as value[1:] made, takes 8 MB; the
    # neighbour comparison reads the list in place.
    value = list(range(10**6))
    tracemalloc.start()
    try:
        assert _strictly_increasing(value, "u") is value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError, match='^"u" must be sorted and deduplicated$'):
        _strictly_increasing([*value, 0], "u")


def test_sweep_range_agrees(capsys):
    code, out, _ = run(capsys, "sweep", "--from", "16", "--to", "24")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,formula,exact,agree,construct_ok,elapsed_ms"
    assert len(lines) == 6
    for line, n in zip(lines[1:], range(16, 25, 2)):
        fields = line.split(",")
        assert fields[0] == str(n)
        assert fields[1] == fields[2]
        assert fields[3] == "true" and fields[4] == "true"
        assert fields[5].isdigit()


def test_sweep_runs_past_the_recursion_depth_of_the_old_search(capsys):
    # A search that recursed once per pick hit the interpreter's recursion
    # limit from n = 4,972 on, and the sweep lost every row.
    code, out, _ = run(capsys, "sweep", "--from", "4970", "--to", "4980", "--budget", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,formula,exact,agree,construct_ok,elapsed_ms"
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(4970, 4981, 2)]
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] == fields[2]
        assert fields[3:5] == ["true", "true"]


def test_sweep_zero_budget_skips_solver(capsys):
    code, out, _ = run(capsys, "sweep", "--from", "16", "--to", "20", "--budget", "0")
    assert code == 0
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        assert fields[2] == "unknown" and fields[3] == ""
        assert fields[4] == "true"


def test_sweep_single_order(capsys):
    code, out, _ = run(capsys, "sweep", "--from", "16", "--to", "16")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("16,4,4,true,true,")


def test_sweep_is_deterministic_outside_timing(capsys):
    def masked():
        code, out, _ = run(capsys, "sweep", "--from", "16", "--to", "22")
        assert code == 0
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]

    assert masked() == masked()


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--from", "15", "--to", "20"),
        ("sweep", "--from", "16", "--to", "21"),
        ("sweep", "--from", "20", "--to", "16"),
        ("sweep", "--from", "16", "--to", "20", "--budget", "-1"),
        ("sweep", "--from", "16", "--to", "20", "--budget", "nan"),
        ("sweep", "--from", "16"),
        ("sweep", "--from", "14", "--to", "20"),
        ("sweep", "--from", "16", "--to", str(_MAX_ORDER + 2), "--budget", "0"),
        ("sweep", "--from", "16", "--to", str(_MAX_EXACT_ORDER + 2)),
    ],
)
def test_sweep_rejects_bad_arguments(capsys, tmp_path, argv):
    # Every check runs before --out is opened, so a refused sweep leaves no file.
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""
    target = tmp_path / "sweep.csv"
    assert run(capsys, *argv, "--out", str(target))[0] == 2
    assert not target.exists()


def test_sweep_budget_errors_name_the_option(capsys):
    for value in ("-1", "nan"):
        code, _, err = run(capsys, "sweep", "--from", "16", "--to", "20", "--budget", value)
        assert (code, err) == (2, f"error: --budget must be >= 0, got {float(value)}\n")


def test_sweep_opens_out_before_solving(capsys, monkeypatch, tmp_path):
    # An unwritable --out is refused before the first of 53 orders is solved.
    solved = []
    monkeypatch.setattr("knodel.cli.solve_exact", lambda g, time_budget=None: solved.append(g.n))
    target = tmp_path / "missing" / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--from", "16", "--to", "120", "--out", str(target))
    assert (code, out, solved) == (2, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_sweep_writes_every_row_and_exits_1_on_a_disagreement(capsys, monkeypatch):
    # The rows stream out as they are solved; a disagreement at 18 still
    # sets the exit code once every row is written.
    wrong_at_18 = lambda n: types.SimpleNamespace(value=5 if n == 18 else 4)
    monkeypatch.setattr("knodel.cli.gamma_formula", wrong_at_18)
    code, out, _ = run(capsys, "sweep", "--from", "16", "--to", "20")
    masked = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert code == 1
    assert masked == ["n,formula,exact,agree,construct_ok", "16,4,4,true,true",
                      "18,5,4,false,true", "20,4,4,true,true"]


def test_enum_seq_output_and_expectation(capsys):
    code, out, _ = run(
        capsys,
        "enum-seq",
        "--k", "3", "--total", "13", "--exact-in-m", "2", "--adj-max", "0",
        "--expect", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == ["1,4,8", "1,8,4", "2,3,8", "2,8,3", "4,4,5", "count 5"]
    code, _, _ = run(
        capsys,
        "enum-seq",
        "--k", "3", "--total", "13", "--exact-in-m", "2", "--adj-max", "0",
        "--expect", "4",
    )
    assert code == 1


def test_enum_seq_rejects_bad_parameters(capsys):
    assert run(capsys, "enum-seq", "--k", "0", "--total", "13",
               "--exact-in-m", "0", "--adj-max", "0")[0] == 2


def test_enum_seq_streams_more_than_one_batch(capsys):
    # 4,994 classes cross _write_lines' batch of 4,096 lines.
    classes = enumerate_sequences(2, 10000, 0, 2)
    expected = "".join(",".join(map(str, c.canonical.gaps)) + "\n" for c in classes)
    argv = ["enum-seq", "--k", "2", "--total", "10000", "--exact-in-m", "0", "--adj-max", "2"]
    assert run(capsys, *argv) == (0, expected + "count 4994\n", "")
    assert run(capsys, *argv, "--expect", "4993") == (1, expected + "count 4994\n", "")


CENSUS_SETS = [(6, 40, 2, 1), (6, 36, 2, 1), (6, 32, 1, 1), (5, 40, 1, 0), (5, 36, 2, 1),
               (5, 30, 2, 2)]


def enum_seq_stdout(k, total, exact, adj, delta=4, expect=None):
    argv = ["enum-seq", "--k", str(k), "--total", str(total), "--exact-in-m", str(exact),
            "--adj-max", str(adj), "--delta", str(delta)]
    if expect is not None:
        argv += ["--expect", str(expect)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == "", argv
    return code, out.getvalue()


def census_text(classes):
    lines = [",".join(map(str, c.canonical.gaps)) for c in classes]
    return "".join(line + "\n" for line in lines + [f"count {len(classes)}"])


def test_enum_seq_prints_what_enumerate_sequences_returns():
    # The command and the library are the two consumers of one census
    # generator; infeasible filters (exact > k) print "count 0" alone.  The
    # library runs once at the loosest --adj-max, filtered for the others.
    for k in range(1, 7):
        for total in range(k, 25):
            for delta in (2, 3, 4, 5):
                for exact in range(4):
                    loosest = enumerate_sequences(k, total, exact, 3, delta)
                    for adj in range(4):
                        kept = [c for c in loosest if c.adjacent_sums_in_m <= adj]
                        got = enum_seq_stdout(k, total, exact, adj, delta)
                        assert got == (0, census_text(kept)), (k, total, exact, adj, delta)
    # An --expect mismatch still prints the whole census, then exits 1.
    for params in CENSUS_SETS:
        classes = enumerate_sequences(*params)
        expected, count = census_text(classes), len(classes)
        assert enum_seq_stdout(*params) == (0, expected), params
        assert enum_seq_stdout(*params, expect=count) == (0, expected), params
        assert enum_seq_stdout(*params, expect=count + 1) == (1, expected), params


def test_enum_seq_writes_lines_while_the_census_runs(capsys, monkeypatch):
    # A census that fails after 5,000 classes has already written its first
    # batch of 4,096 lines: nothing waits for the whole census.
    def failing(*args, **kwargs):
        for i, cls in enumerate(_census(*args, **kwargs)):
            if i == 5_000:
                raise RuntimeError("census stopped")
            yield cls

    monkeypatch.setattr("knodel.cli._census", failing)
    argv = ["enum-seq", "--k", "2", "--total", "20000", "--exact-in-m", "0", "--adj-max", "2"]
    with pytest.raises(RuntimeError):
        main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 4_096
    assert lines[0] == "5,19995"


class _Sink(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_enum_seq_memory_stays_flat(monkeypatch):
    # 32,762 classes, 382 KB of text.  Holding them as SequenceClass objects
    # takes about 11 MB under tracemalloc; streamed, the peak is under 1 MB.
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        code = main(["enum-seq", "--k", "2", "--total", "65536", "--exact-in-m", "0",
                     "--adj-max", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3_000_000


def test_export_edgelist(capsys):
    code, out, _ = run(capsys, "export", "16", "--format", "edgelist")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 32
    assert lines[:4] == ["u1 v1", "u1 v2", "u1 v4", "u1 v8"]
    # Re-derive every edge from the offset rule.
    expected = [
        f"u{i} v{(i - 1 + off) % 8 + 1}" for i in range(1, 9) for off in (0, 1, 3, 7)
    ]
    assert lines == expected


def test_export_dot_structure(capsys):
    code, out, _ = run(capsys, "export", "20", "--format", "dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph knodel_4_20 {"
    assert lines[-1] == "}"
    node_lines = [q for q in lines if q.endswith(";") and "--" not in q and "=" not in q]
    assert len(node_lines) == 20
    edge_lines = [q for q in lines if "--" in q]
    assert len(edge_lines) == 40
    assert out.count("{") == out.count("}") == 3


@pytest.mark.parametrize("delta", [3, 4, 5])
def test_export_json_follows_the_offset_rule(capsys, delta):
    code, out, _ = run(capsys, "export", "32", "--delta", str(delta), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["delta"]) == (32, delta)
    # u_i ~ v_j iff (j - i) mod n/2 is 2**k - 1; indices ascend in each list.
    half, offsets = 16, {2**k - 1 for k in range(delta)}
    labels = range(1, half + 1)
    expected = {f"u{i}": [f"v{j}" for j in labels if (j - i) % half in offsets] for i in labels}
    expected |= {f"v{j}": [f"u{i}" for i in labels if (j - i) % half in offsets] for j in labels}
    assert list(doc["adjacency"].items()) == list(expected.items())


@pytest.mark.parametrize("delta,n", [(1, 2), (1, 6), (2, 12), (4, 16), (4, 34), (5, 64)])
def test_export_json_bytes_match_json_dumps_of_the_whole_object(capsys, tmp_path, delta, n):
    # export writes the object one vertex entry at a time; its bytes are
    # those of json.dumps on the whole dict, to stdout and to --out alike.
    g = build_graph(delta, n)
    adjacency = {str(x): [str(y) for y in sorted(neighbors(g, x))] for x in g.vertices()}
    expected = json.dumps({"n": n, "delta": delta, "adjacency": adjacency}, indent=2) + "\n"
    code, out, _ = run(capsys, "export", str(n), "--delta", str(delta), "--format", "json")
    assert (code, out) == (0, expected)
    path = tmp_path / "w.json"
    assert run(capsys, "export", str(n), "--delta", str(delta), "--format", "json",
               "--out", str(path))[0] == 0
    assert path.read_bytes() == expected.encode()


def test_export_other_degrees(capsys):
    code, out, _ = run(capsys, "export", "32", "--delta", "5", "--format", "edgelist")
    assert code == 0
    assert len(out.splitlines()) == 80
    assert run(capsys, "export", "16", "--delta", "5", "--format", "edgelist")[0] == 2


def test_export_outputs_are_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    assert run(capsys, "export", "16", "--format", "dot", "--out", str(a))[0] == 0
    assert run(capsys, "export", "16", "--format", "dot", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_env_is_ignored(capsys, monkeypatch):
    def outputs():
        gamma = run(capsys, "gamma", "38")[:2]
        code, out, _ = run(capsys, "sweep", "--from", "40", "--to", "48")
        return gamma, (code, [line.rsplit(",", 1)[0] for line in out.splitlines()])

    monkeypatch.delenv("KNODEL_THREADS", raising=False)
    unset = outputs()
    assert unset[0][0] == 0 and unset[1][0] == 0
    for value in ("2", "0", "junk"):
        monkeypatch.setenv("KNODEL_THREADS", value)
        assert outputs() == unset, value


def test_missing_subcommand_is_a_usage_error(capsys):
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_main_builds_one_parser_however_often_it_runs(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    _build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "gamma", "16", "--method", "formula")[0] == 0
    assert built.count("knodel") == 1
    first = len(built)
    for argv in (("gamma", "18"), ("construct", "16"), ("export", "16", "--format", "dot"),
                 ("frobnicate",), ("sweep", "--from", "16", "--to", "16")):
        run(capsys, *argv)
    assert len(built) == first


def test_main_carries_no_state_between_calls(capsys, tmp_path):
    # The shared parser fills each call's options from their defaults.
    code, out, _ = run(capsys, "gamma", "36", "--canonical")
    assert code == 0 and json.loads(out)["certificate"] == {"u": [1, 2, 10, 11], "v": [6, 7, 15, 16]}
    code, out, _ = run(capsys, "gamma", "36")
    assert code == 0 and json.loads(out)["certificate"] == {"u": [1, 9, 10, 18], "v": [5, 6, 14, 15]}

    target = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", "--from", "16", "--to", "18", "--out", str(target))[:2] == (0, "")
    code, out, _ = run(capsys, "sweep", "--from", "16", "--to", "18")
    assert code == 0 and len(out.splitlines()) == 3

    d16, d18 = tmp_path / "d16.json", tmp_path / "d18.json"
    assert run(capsys, "construct", "16", "--out", str(d16))[0] == 0
    assert run(capsys, "construct", "18", "--out", str(d18))[0] == 0
    assert run(capsys, "verify", "--set", str(d16), "--graph", "16", "4")[:2] == (0, "PASS\n")
    assert run(capsys, "verify", "--set", str(d18)) == (0, "PASS\n", "")


def test_usage_errors_exit_2_with_one_error_line(capsys, tmp_path):
    constructed = tmp_path / "d16.json"
    assert run(capsys, "construct", "16", "--out", str(constructed))[0] == 0
    (tmp_path / "bad.json").write_text("not json")
    over = str(_MAX_ORDER + 2)
    cases = [
        ("verify", "--set", str(tmp_path)),
        ("verify", "--set", str(tmp_path / "bad.json")),
        ("sweep", "--from", "15", "--to", "20"),
        ("verify", "--set", str(constructed), "--graph", "18", "4"),
        ("gamma", "16", "--method", "formula", "--canonical"),
        ("construct", over),
        ("sweep", "--from", over, "--to", over, "--budget", "0"),
        ("export", over, "--format", "edgelist"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv


def test_cli_import_leaves_the_process_pool_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(knodel.__file__).parents[1]))
    code = (
        "import sys, knodel.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_enum_seq_refuses_totals_over_half_the_order_limit(capsys, monkeypatch):
    # The limit is checked before the census builds anything.  At the limit
    # the census runs for real: the classes of --k 2 are (a, total - a) for
    # a <= total / 2, whose sum 2**20 is not in m_4, and --exact-in-m 0 drops
    # the six a in m_4 = {1, 2, 3, 4, 6, 7} (total - a >= 2**19 never is).
    calls = []
    monkeypatch.setattr("knodel.cli._census", lambda *a, **kw: calls.append(a) or [])
    limit = _MAX_ORDER // 2
    argv = ["enum-seq", "--k", "2", "--exact-in-m", "0", "--adj-max", "0", "--total"]
    code, out, err = run(capsys, *argv, str(limit + 1))
    assert (code, out, calls) == (2, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(limit) in err
    monkeypatch.undo()
    assert limit == 2**20 and sorted(m_delta(4)) == [1, 2, 3, 4, 6, 7]
    code, out = enum_seq_stdout(2, limit, 0, 0, expect=2**19 - 6)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2**19 - 5
    assert lines[:2] == ["5,1048571", "8,1048568"]
    assert lines[-2:] == ["524288,524288", "count 524282"]


def test_enum_seq_refuses_more_than_2_to_the_20_gap_sequences(capsys, monkeypatch):
    # comb(total - 1, k - 1) sequences of k positive gaps sum to total; the
    # count is checked before the census runs, and never built in full.
    calls = []
    monkeypatch.setattr("knodel.cli._census", lambda *a, **kw: calls.append(a) or [])
    argv = ["enum-seq", "--exact-in-m", "0", "--adj-max", "0"]
    # comb(1448, 2) = 1,047,628 and comb(1449, 2) = 1,049,076 straddle 2**20,
    # as do comb(67, 63) = 766,480 and comb(68, 63) = 10,424,128.
    for k, total in ((3, 1450), (4, 200), (10, 100_000), (64, 69), (500_000, 1_000_000),
                     (999_999, 1_000_000)):
        code, out, err = run(capsys, *argv, "--k", str(k), "--total", str(total))
        assert (code, out) == (2, ""), (k, total)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (k, total)
    assert calls == []
    # The census's largest set, comb(39, 5) = 575,757, and --k 2 at the
    # largest --total stay accepted, as does the largest k near total, where
    # the count is small.
    for k, total in ((3, 1449), (6, 40), (2, _MAX_ORDER // 2), (40, 40), (64, 68)):
        assert run(capsys, *argv, "--k", str(k), "--total", str(total))[:2] == (0, "count 0\n")
    assert [a[:2] for a in calls] == [(3, 1449), (6, 40), (2, _MAX_ORDER // 2), (40, 40), (64, 68)]


def test_enum_seq_refuses_k_over_the_limit(capsys, monkeypatch):
    # A prefix copies up to k gaps, so time grows as k**3 even where there
    # are only k compositions; the cap is checked before the census runs.
    calls = []
    monkeypatch.setattr("knodel.cli._census", lambda *a, **kw: calls.append(a) or [])
    argv = ["enum-seq", "--exact-in-m", "0", "--adj-max", "0"]
    for k in (_MAX_K + 1, 999_999):
        code, out, err = run(capsys, *argv, "--k", str(k), "--total", str(k + 1))
        assert (code, out, calls) == (2, "", [])
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"--k {k} exceeds the limit {_MAX_K}" in err
    at_limit = ["--k", str(_MAX_K), "--total", str(_MAX_K + 1)]
    assert run(capsys, *argv, *at_limit)[:2] == (0, "count 0\n")
    assert calls == [(_MAX_K, _MAX_K + 1, 0, 0)]


def test_exact_solves_refuse_orders_over_the_exact_limit(capsys, monkeypatch):
    # The solver's cover and near masks cost about n^2 / 4 bytes, so the
    # limit is checked before any graph is built; the formula alone and a
    # sweep with --budget 0 build no solver tables and keep the order limit.
    built = []
    monkeypatch.setattr("knodel.cli.build_graph", lambda *args: built.append(args))
    over = str(_MAX_EXACT_ORDER + 2)
    cases = [
        ("gamma", over, "--method", "exact"),
        ("gamma", over),
        ("gamma", over, "--canonical"),
        ("sweep", "--from", over, "--to", over),
        ("sweep", "--from", "16", "--to", over, "--budget", "5"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        assert str(_MAX_EXACT_ORDER) in err, argv
    assert built == []
    code, out, _ = run(capsys, "gamma", over, "--method", "formula")
    assert code == 0 and json.loads(out)["formula"] > 0
    code, out, _ = run(capsys, "sweep", "--from", over, "--to", over, "--budget", "0")
    assert code == 0 and out.splitlines()[1].startswith(f"{over},")


def test_exact_solves_run_up_to_the_exact_limit(capsys):
    # Real solves at the limit.  The search below 16382, a residue-2 order,
    # is about 3,300 picks deep; 16384 closes at its root.
    for n in (_MAX_EXACT_ORDER - 2, _MAX_EXACT_ORDER):
        code, out, _ = run(capsys, "gamma", str(n))
        doc = json.loads(out)
        assert (code, doc["agree"], doc["exact"]) == (0, True, doc["formula"]), n
    limit = str(_MAX_EXACT_ORDER)
    code, out, _ = run(capsys, "sweep", "--from", limit, "--to", limit)
    n, formula, exact, agree, construct_ok, _ = out.splitlines()[1].split(",")
    assert (code, n, exact, agree, construct_ok) == (0, limit, formula, "true", "true")


def test_export_refuses_orders_over_the_order_limit(capsys, monkeypatch):
    built = []
    monkeypatch.setattr("knodel.cli.build_graph", lambda *args: built.append(args))
    code, out, err = run(capsys, "export", str(_MAX_ORDER + 2), "--format", "dot")
    assert (code, out, built) == (2, "", [])
    assert str(_MAX_ORDER) in err
