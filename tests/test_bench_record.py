"""The claim rule, the per-query latencies and the traced layers of
``tools/bench_record.py``, on made-up runs."""

import ast
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

METRICS = [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _claim(parent: list, change: list, metric: str = "op_p50_ms") -> dict:
    runs = {side: [{"metrics": {m["name"]: v for m in METRICS}, "calibration_s": [1.0]} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_record.claim(bench_record.summarise(runs, METRICS), "invariants", metric)


def test_a_claim_needs_nine_pairs_in_ten_and_a_gap_past_the_parents_iqr():
    parent = [10.0, 11, 12, 13, 14, 10, 11, 12, 13, 14]  # median 12, IQR 2
    block = _claim(parent, [v - 2.5 for v in parent])
    assert block["met"] and block["change_won_pairs"] == 10 and block["parent_iqr"] == 2
    assert block["median_change"] == -2.5 / 12
    assert not _claim(parent, [v - 1.5 for v in parent])["met"]  # every pair, inside the IQR
    assert not _claim(parent, [v - 2.5 for v in parent[:8]] + parent[8:])["met"]  # 8 of 10, ties lose
    assert _claim(parent, [v - 2.5 for v in parent[:9]] + parent[9:])["met"]
    higher = _claim(parent, [v + 2.5 for v in parent], "ops_per_s")
    assert higher["met"] and higher["better"] == "higher"
    assert not _claim(parent, [v + 2.5 for v in parent])["met"]  # a slower op is no gain


def _worker_queries() -> tuple:
    """The names in akbench/worker.py's query_table, in order, read off its source."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "akbench" / "worker.py").read_text())
    table = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "query_table")
    returned = next(node for node in ast.walk(table) if isinstance(node, ast.Return)).value
    return tuple(entry.elts[0].value for entry in returned.elts)


def test_query_latencies_read_each_query_in_the_workers_order():
    assert bench_record.QUERIES == _worker_queries()
    q = len(bench_record.QUERIES)
    latencies = [1000 * (k + 1) * (x + 1) for x in range(3) for k in range(q)]  # 3 inputs
    got = bench_record.query_latencies(latencies)
    assert list(got) == list(bench_record.QUERIES)
    for k, name in enumerate(bench_record.QUERIES):
        assert got[name] == {"mean_us": 2.0 * (k + 1), "median_us": 2.0 * (k + 1), "count": 3}
    with pytest.raises(SystemExit):
        bench_record.query_latencies(latencies[:-1])


def test_only_layers_the_tracer_sees_are_recorded():
    """The traced invariants layers are the point queries the worker calls
    by their public names; the traced sweep keeps the sweeps alone, not
    the kernels the sweeps reach through private names."""
    assert {name.split(".")[1].removesuffix("_s") for name in bench_record.TRACED_QUERIES} == set(
        bench_record.QUERIES
    )
    assert "abacus.to_multicore_s" not in bench_record.TRACED_QUERIES
    for name in ("blocks.hub_s", "blocks.weight_s", "abacus.phi_s"):
        assert not bench_record.sweep_layer(name)
    assert bench_record.sweep_layer("verify.check_phi_s")
