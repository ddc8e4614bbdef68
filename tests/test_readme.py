"""The README's Library examples and CLI transcripts, run as written.

The Library block runs through doctest, and every "$ knodel ..." transcript
through main, so a changed value or node count cannot leave the README
stale; `python -m knodel` runs the gamma transcript in a fresh interpreter.
The README is also held to at most 200 lines.
"""

import doctest
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import knodel
from knodel import construct_dominating_set
from knodel.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang):
    """Bodies of the README's ```lang blocks, in order."""
    return [block.split("```", 1)[0] for block in README.split(f"```{lang}\n")[1:]]


def transcripts():
    """Map each "$ ..." line of the sh blocks to the lines printed under it."""
    out = {}
    for block in fenced("sh"):
        for chunk in block.split("\n\n"):
            if chunk.startswith("$ "):
                command, *lines = chunk.strip("\n").split("\n")
                out[command[2:]] = lines
    return out


def test_library_block_passes_doctest():
    (block,) = fenced("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize(
    "command",
    [
        "knodel gamma 36",
        "knodel construct 16",
        "knodel enum-seq --k 3 --total 13 --exact-in-m 2 --adj-max 0 --expect 5",
    ],
)
def test_cli_transcript_matches_main(capsys, command):
    expected = transcripts()[command]
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_verify_transcript_runs_on_the_document_shown(capsys, monkeypatch, tmp_path):
    shown = transcripts()
    (document,) = shown["cat bad28.json"]
    ds = construct_dominating_set(28)
    assert json.loads(document) == {
        "n": 28,
        "delta": 4,
        "u": [i for i in ds.u_indices if i != 1],
        "v": list(ds.v_indices),
    }
    (tmp_path / "bad28.json").write_text(document + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--set", "bad28.json"]) == 1
    assert capsys.readouterr().out.splitlines() == shown["knodel verify --set bad28.json"]


def test_sweep_transcript_matches_main_outside_elapsed_ms(capsys):
    # elapsed_ms is wall-clock time; criterion 8 ignores the same column.
    expected = transcripts()["knodel sweep --from 16 --to 48 | head -3"]
    assert main(["sweep", "--from", "16", "--to", "48"]) == 0
    head = capsys.readouterr().out.splitlines()[:3]
    drop_elapsed = lambda lines: [line.rsplit(",", 1)[0] for line in lines]
    assert len(expected) == 3
    assert drop_elapsed(head) == drop_elapsed(expected)


def test_readme_has_at_most_200_lines():
    assert len(README.splitlines()) <= 200


def test_python_m_knodel_passes_output_and_exit_code_through():
    # src/knodel/__main__.py hands main's return value to SystemExit.
    env = dict(os.environ, PYTHONPATH=str(Path(knodel.__file__).parents[1]))
    knodel_m = [sys.executable, "-m", "knodel", "gamma"]
    ok = subprocess.run([*knodel_m, "36"], capture_output=True, text=True, env=env)
    assert (ok.returncode, ok.stdout.splitlines()) == (0, transcripts()["knodel gamma 36"])
    bad = subprocess.run([*knodel_m, "37"], capture_output=True, text=True, env=env)
    assert (bad.returncode, bad.stdout) == (2, "")
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error: ")
