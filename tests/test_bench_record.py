"""The claim rule of ``tools/bench_record.py``, on made-up runs."""

import importlib.util
from pathlib import Path

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
