"""Golden CLI outputs: every case in CASES replayed through ``main``.

``tests/golden/cli.json`` records, for each argv, the exit code and the
exact stdout and stderr.  A refactor that changes any of them fails here.
When a change of output is intended, regenerate the fixture and review
its diff:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from akblocks.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

EXK = ["--e", "5", "--charge", "0,-2,1", "--lambda", "[[4,3,1],[4,2,2,2],[3,2]]"]
SMALL = ["--e", "4", "--charge", "1,0,2", "--lambda", "[[1,1],[2],[2,1]]"]
DRAWN = ["--e", "3", "--charge", "7", "--lambda", "[[7,5,5,4,3,2,1]]"]
DRAWING = (
    "e=3 charges=7\n"
    "level  012\n"
    "   -1  ooo\n"
    "    0  .o.\n"
    "    1  o.o\n"
    "    2  .o.\n"
    "    3  oo.\n"
    "    4  .o.\n"
    "    5  ...\n"
)
COMMANDS = [
    "residues", "abacus", "parse-abacus", "weight", "hub", "blocks", "core-block",
    "k-values", "scopes-check", "scopes-map", "branch", "certify", "verify-all",
]

CASES = [
    # the README command set
    ["weight", *SMALL],
    ["k-values", *EXK, "--i", "0,1,3"],
    ["k-values", *EXK],
    ["residues", *SMALL, "--other", "[[1],[2,1],[1,1,1]]"],
    ["residues", *SMALL],
    ["abacus", *DRAWN],
    ["abacus", *DRAWN, "--window", "-3,8"],
    ["abacus", "--e", "4", "--charge", "-1,0,1", "--lambda", "[[1],[],[1,1]]", "--format", "json"],
    ["parse-abacus", "--lambda", DRAWING],
    ["hub", *SMALL],
    ["blocks", "--e", "2", "--charge", "0,1", "--n", "4"],
    ["core-block", "--e", "2", "--charge", "0", "--lambda", "[[3,1]]"],
    ["core-block", *EXK],
    ["scopes-check", *EXK, "--i", "1"],
    ["scopes-map", *DRAWN, "--i", "1"],
    ["branch", "--e", "2", "--charge", "0", "--lambda", "[[2,1]]", "--i", "1"],
    ["branch", "--e", "3", "--charge", "0,0,0", "--lambda", "[[1],[1],[1]]", "--i", "0"],
    ["certify", "--e", "3", "--charge", "0,1", "--lambda", "[[5],[1]]", "--i", "1"],
    ["certify", "--e", "3", "--charge", "0,0,0", "--lambda", "[[1],[1],[1]]", "--i", "0"],
    ["verify-all", "--max-n", "3", "--r", "1,2", "--e", "2,3"],
    ["verify-all", "--max-n", "3", "--r", "1,2", "--e", "2,3", "--format", "json"],
    # help pages
    ["--help"],
    *[[name, "--help"] for name in COMMANDS],
    # exit 2: malformed input
    ["weight", "--e", "4", "--charge", "1,x", "--lambda", "[[1]]"],
    ["weight", "--e", "4", "--charge", "", "--lambda", "[[1]]"],
    ["weight", "--e", "1", "--charge", "0", "--lambda", "[[1]]"],
    ["abacus", *DRAWN, "--window", "1"],
    ["abacus", *DRAWN, "--window", "1,x"],
    ["abacus", *DRAWN, "--window", "5,-5"],
    ["abacus", *DRAWN, "--window", "2,3"],
    ["k-values", *EXK, "--i", "x"],
    ["scopes-check", *EXK, "--i", "9"],
    ["branch", "--e", "2", "--charge", "0", "--lambda", "[[1,1,1,1]]", "--i", "0"],
    ["blocks", "--e", "2", "--charge", "0", "--n", "3", "--caps", "max_q=9"],
    ["blocks", "--e", "2", "--charge", "0", "--n", "3", "--caps", "max_n=x"],
    ["blocks", "--e", "2", "--charge", "0", "--n", "x"],
    ["weight", *SMALL[:4], "--lambda", "not json"],
    ["weight", *SMALL[:4], "--lambda", "[[2,3]]"],
    ["weight", *SMALL[:4], "--lambda", "[]"],
    ["weight", *SMALL[:4], "--lambda", "[[1.5]]"],
    ["weight", *SMALL[:4], "--lambda", '{"parts": []}'],
    ["hub", "--e", "4", "--charge", "1", "--lambda", "[[true,true]]"],
    ["weight", "--e", "4", "--charge", "1,0", "--lambda", "[[1]]"],
    ["blocks", "--e", "2", "--charge", "0", "--n", "99"],
    ["weight", "--e", "9", "--charge", "0", "--lambda", "[[1]]"],
    ["weight", "--e", "2", "--charge", "0,0,0,0", "--lambda", "[[],[],[],[]]"],
    ["certify", *EXK, "--i", "1"],
    ["parse-abacus", "--lambda", "@/nonexistent/display.txt"],
    ["parse-abacus", "--lambda", "e=3 charges=7\nlevel 012\n 0 oo\n"],
    ["weight", *SMALL[:4], "--lambda", "@/nonexistent/lambda.json"],
    ["hub", *SMALL, "--out", "/nonexistent/hub.json"],
    ["verify-all", "--max-n", "1", "--r", "x"],
    ["weight", "--nope"],
    ["weight", *SMALL[:4]],
    ["frobnicate"],
    [],
    # exit 2: a verify-all grid past the caps
    ["verify-all", "--caps", "max_n=1", "--max-n", "3", "--r", "1", "--e", "2"],
    ["verify-all", "--max-n", "3", "--r", "12", "--e", "2"],
    ["verify-all", "--caps", "max_delta=1", "--max-n", "4", "--r", "1,2", "--e", "2"],
    # exit 2: parse-abacus takes no --caps
    ["parse-abacus", "--lambda", DRAWING, "--caps", "max_n=3"],
    # exit 2: bad JSON is reported under the option that carried it
    ["residues", *SMALL, "--other", "[[1]]junk"],
    # exit 2: a repeated level or characteristic would sweep its cells twice
    ["verify-all", "--max-n", "2", "--r", "1,1", "--e", "2"],
    ["verify-all", "--max-n", "2", "--r", "1", "--e", "3,3"],
    # exit 2: a 23-node block with delta=10 is bounded by max_delta alone, as in branch
    ["certify", "--e", "2", "--charge", "0,0,0", "--lambda", "[[4,3,2,1],[4,3,2,1],[2,1]]", "--i", "1",
     "--caps", "max_n=24"],
    # exit 2: an empty or non-positive level list names its flag
    ["verify-all", "--max-n", "1", "--r", ""],
    ["verify-all", "--max-n", "1", "--r", "0"],
    # exit 2: certify states the runner-swap hypotheses in branch's words (delta_i < 0, then
    # the weight condition failing with delta_i >= 0)
    ["certify", "--e", "2", "--charge", "0", "--lambda", "[[1,1,1,1]]", "--i", "0"],
    ["certify", "--e", "2", "--charge", "0", "--lambda", "[[1,1,1,1]]", "--i", "1"],
]

def replay(argv) -> dict:
    """Run main in-process and record what it printed and returned."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_fixture_covers_exactly_the_cases():
    assert [rec["argv"] for rec in _load()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_output_matches_golden(fixed_terminal, index):
    expected = _load()[index]
    assert replay(expected["argv"]) == expected


def _regenerate() -> None:
    os.environ["COLUMNS"] = "80"
    records = [replay(argv) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _regenerate()
