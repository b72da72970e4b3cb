"""Tests of the benchmark itself: schema, per-layer coverage, exact repeat of counts.

Run from the repository root:  python3 -m pytest -q akbench/tests
"""

import gzip
import json
import random
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import SPAN_FIELDS, SPANNED  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_GRID = ["verify-all", "--format", "json", "--max-n", "3", "--r", "1,2", "--e", "2,3"]


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["akbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_metrics_are_exactly_the_per_layer_list():
    empty = {"spans": {}, "calls": {}, "cache": {"hits": 0, "misses": 0, "entries": 0}, "dump_s": 0.0}
    metrics = run.layer_metrics([empty], 0.0, 0.0, {})
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def _traced_worker(args, stem) -> dict:
    child = run.spawn(run.worker(*args, "--trace", stem))
    assert child.code == 0, child.err
    return run.read_summary(stem)


def _spans(stem) -> list:
    flat = array("q")
    flat.frombytes(gzip.open(f"{stem}.spans.gz").read())
    width = len(SPAN_FIELDS)
    return [tuple(flat[k : k + width]) for k in range(0, len(flat), width)]


def _counts(summary) -> dict:
    return {
        "calls": summary["calls"],
        "spans": {name: row["spans"] for name, row in summary["spans"].items()},
        "cache": summary["cache"],
    }


def _check_spans(summary, stem):
    spans = _spans(stem)
    assert len(spans) == sum(row["spans"] for row in summary["spans"].values())
    ids = {s[0] for s in spans}
    assert len(ids) == len(spans)
    for sid, parent, _request, name, start, end in spans:
        assert parent == 0 or parent in ids
        assert 0 <= name < len(summary["names"]) and start <= end
    for row in summary["spans"].values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9


def test_traced_invariants_repeat_exactly(tmp_path):
    args = ["invariants", 7, 60, "--inputs", inputs.STRATUM]
    first = _traced_worker(args, tmp_path / "a")
    second = _traced_worker(args, tmp_path / "b")
    assert _counts(first) == _counts(second)
    assert first["spans"]["abacus.render"]["spans"] == inputs.STRATUM
    assert {s[2] for s in _spans(tmp_path / "a")} == set(range(1, inputs.STRATUM + 1))
    _check_spans(first, tmp_path / "a")


def test_traced_cli_repeats_exactly(tmp_path):
    summaries = []
    for stem in (tmp_path / "a", tmp_path / "b"):
        child = run.spawn(run.worker("cli", "--trace", stem, "--", *TINY_GRID))
        assert child.code == 0, child.err
        assert run.check_sweep(child) != []  # a smaller grid than the reference
        assert all(r["ok"] for r in json.loads(child.out)["results"])
        summaries.append(run.read_summary(stem))
        assert run.process_overhead(child, summaries[-1]) > 0
    first, second = summaries
    assert _counts(first) == _counts(second)
    for fname in SPANNED["verify"] + ("main",):
        short = "cli" if fname == "main" else "verify"
        assert first["spans"][f"{short}.{fname}"]["spans"] == 1
    assert first["calls"]["multipartition.multipartitions_of"] > 0
    _check_spans(first, tmp_path / "a")


def test_own_arithmetic_matches_the_program():
    from akblocks import Multicharge, block_containing, hub, residue_counts, weight

    rng = random.Random(11)
    for _ in range(300):
        r, e = rng.randint(1, 3), rng.randint(2, 5)
        charge = tuple(rng.randint(-3, 3) for _ in range(r))
        mp = inputs.random_multipartition(rng, rng.randint(0, 60), r)
        mc = Multicharge(e, charge)
        counts = inputs.row_residue_counts(mp, e, charge)
        assert counts == list(residue_counts(mp, mc))
        assert inputs.row_hub(mp, e, charge) == list(hub(mp, mc))
        assert inputs.weight_from_counts(counts, e, charge) == weight(mp, mc)
    for _ in range(20):
        mp = inputs.random_multipartition(rng, rng.randint(0, 7), 3)
        members = block_containing(mp, Multicharge(inputs.README_E, inputs.README_CHARGE)).members
        assert inputs.block_size(mp, inputs.README_E, inputs.README_CHARGE) == len(members)


def test_inputs_depend_only_on_the_seed():
    a, b = inputs.invariant_strata(5), inputs.invariant_strata(5)
    assert [next(a) for _ in range(2)] == [next(b) for _ in range(2)]
    stratum = next(inputs.invariant_strata(6))
    sizes = sorted(sum(map(sum, mp)) for mp, *_ in stratum)
    assert inputs.MIN_NODES <= sizes[0] and sizes[-1] <= inputs.MAX_NODES
    assert len({(len(mp), e) for mp, e, *_ in stratum}) == len(inputs.LEVELS) * len(inputs.CHARACTERISTICS)


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0], 0.99) == 3.0
    assert run.percentile(list(range(1, 101)), 0.99) == 99
    assert run.percentile(list(range(1, 101)), 0.5) == 50


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "akbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "akbench/run.py", "--workload", "invariants", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_setup_probe_is_deterministic(workload):
    first = run.last_json(run.spawn(run.worker("setup", workload, 2)), "setup")
    second = run.last_json(run.spawn(run.worker("setup", workload, 2)), "setup")
    assert first == second
