"""The akblocks benchmark: three seeded closed-loop workloads, one client each.

    python3 akbench/run.py --workload {sweep,certify,invariants} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports akblocks from ``src/`` there
and needs nothing installed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  Lines before it say what was run.  Traced runs also leave their
spans under ``.akbench-out/<workload>/``.

Workloads (see BENCHMARK.json for why each was chosen):

* ``sweep``: ``akblocks verify-all --format json`` on the default grid,
  each run a fresh process.
* ``certify``: passes over a seeded sample of certifiable blocks at the
  README charge, one ``akblocks certify`` process per block, one at a time.
* ``invariants``: one process answering the README's point queries on
  seeded random multipartitions of 100 to 10,000 nodes, in strata.

Each repeats its unit of work (a run, a pass, a stratum) while the next
one should still end within SECONDS, and always does at least one.
Every output is checked; a failed check counts as a failed operation.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".akbench-out"
SETUP_PROBES = 3
# Fixed work for the traced runs, so that their counts repeat exactly.
TRACE_STRATA = 10
CERTIFY_ANCHORS = {
    "block_bijection",
    "branching_spectrum",
    "kleshchev_preserved",
    "lex_order_preserved",
    "no_addable_under_condition",
    "no_forbidden_config",
    "weight_preserved",
}
CERTIFY_CAPS = "max_n=24"


class BenchError(Exception):
    """The benchmark could not run at all (as opposed to a failed check)."""


class Budget:
    """Closed-loop time budget: start another unit of work only if it should end in time.

    A unit (one verify-all, one certify pass) is expected to take as long as
    the previous one; the first always runs, and a traced run does one.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.last = None

    def another(self, once: bool = False) -> bool:
        now = time.perf_counter() - self.start
        if self.last is None:
            self.last = now
            return True
        unit, self.last = now - self.last, now
        return not once and now + unit <= self.seconds


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("AKBLOCKS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv) -> Child:
    """Run one child to completion; wall time from spawn to exit, its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    with proc:
        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


def last_json(child: Child, what: str) -> dict:
    lines = child.out.strip().splitlines()
    if child.code != 0 or not lines:
        raise BenchError(f"{what} exited {child.code}: {child.err.strip()[-2000:]}")
    return json.loads(lines[-1])


def worker(*args) -> list:
    return [str(BENCH / "worker.py"), *map(str, args)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    """What one run measured: per-operation walls, checked operations, per-layer data."""

    op_s: list
    rss_mb: float
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    def check(self, problems: list) -> None:
        """Count one checked operation, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.notes += problems


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(summaries: list, overhead_s: float, process_overhead_s: float, targets: dict) -> dict:
    """Per-layer metrics summed over the traced processes of one run."""
    from tracer import COUNTED, SPANNED

    def self_s(name):
        return sum(s["spans"].get(name, {}).get("self_s", 0.0) for s in summaries)

    def calls(name):
        return sum(s["calls"].get(name, 0) for s in summaries)

    metrics = {}
    for short, fnames in SPANNED.items():
        for fname in fnames:
            if short != "cli":
                metrics[f"{short}.{fname}_s"] = (self_s(f"{short}.{fname}"), "s")
    metrics["multipartition.multipartitions_yielded"] = (calls("multipartition.multipartitions_of"), "count")
    for short, fnames in COUNTED.items():
        for fname in fnames:
            metrics[f"{short}.{fname}_calls"] = (calls(f"{short}.{fname}"), "count")
    metrics["blocks.block_containing_calls"] = (
        sum(s["spans"].get("blocks.block_containing", {}).get("spans", 0) for s in summaries),
        "count",
    )
    metrics["cli.main_self_s"] = (self_s("cli.main"), "s")
    metrics["cli.process_overhead_s"] = (process_overhead_s, "s")
    hits = sum(s["cache"]["hits"] for s in summaries)
    misses = sum(s["cache"]["misses"] for s in summaries)
    metrics["cache.hits"] = (hits, "count")
    metrics["cache.misses"] = (misses, "count")
    metrics["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cache.entries"] = (sum(s["cache"]["entries"] for s in summaries), "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.spans"] = (sum(row["spans"] for s in summaries for row in s["spans"].values()), "count")
    for name in ("target.readme_certify_s", "target.readme_certify_rss_mb", "target.weight_3m_s"):
        unit = "MB" if name.endswith("_mb") else "s"
        metrics[name] = (targets.get(name, 0.0), unit)
    return metrics


def trace_dir(workload: str) -> Path:
    path = OUT / workload
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_summary(stem: Path) -> dict:
    return json.loads(Path(f"{stem}.json").read_text())


def process_overhead(child: Child, summary: dict) -> float:
    """Wall time of a traced CLI process outside cli.main and outside writing its trace."""
    return child.wall_s - summary["spans"]["cli.main"]["total_s"] - summary["dump_s"]


# ---------------------------------------------------------------------------
# sweep


def _sweep_reference() -> list:
    return json.loads((BENCH / "reference" / "sweep_instances.json").read_text())["results"]


def check_sweep(child: Child) -> list:
    """Problems with one verify-all run: exit code, failed lemmas, instance counts."""
    if child.code != 0:
        return [f"verify-all exited {child.code}: {child.err.strip()[-500:]}"]
    got = [(r["lemma"], r["instances"], r["ok"]) for r in json.loads(child.out)["results"]]
    want = [(lemma, instances, True) for lemma, instances in _sweep_reference()]
    return [] if got == want else [f"verify-all lemmas differ from the reference: {sorted(set(got) ^ set(want))[:4]}"]


def run_sweep(setup: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    argv = ["-m", "akblocks", *setup["argv"]]
    runs = []
    outcome = Outcome(runs, 0.0)
    budget = Budget(seconds)
    while budget.another(trace):
        child = spawn(argv)
        outcome.check(check_sweep(child))
        runs.append(child.wall_s)
        outcome.rss_mb = max(outcome.rss_mb, child.rss_mb)
    if trace:
        stem = trace_dir("sweep") / "verify-all"
        traced = spawn(worker("cli", "--trace", stem, "--", *setup["argv"]))
        outcome.check(check_sweep(traced))
        summary = read_summary(stem)
        outcome.layers = layer_metrics([summary], traced.wall_s - runs[0], process_overhead(traced, summary), {})
    return outcome


# ---------------------------------------------------------------------------
# certify


def certify_argv(mp, i: int) -> list:
    charge = ",".join(map(str, inputs.README_CHARGE))
    return [
        "certify", "--e", str(inputs.README_E), "--charge", charge,
        "--lambda", json.dumps(mp), "--i", str(i), "--caps", CERTIFY_CAPS,
    ]


def check_certify(child: Child, mp, n: int, delta: int, sizes: dict) -> list:
    """Problems with one certify run: exit code, anchors, block size, image size."""
    if child.code != 0:
        return [f"certify {mp} exited {child.code}: {child.err.strip()[-500:]}"]
    cert = json.loads(child.out)
    key = json.dumps(mp)
    if key not in sizes:
        sizes[key] = inputs.block_size(mp, inputs.README_E, inputs.README_CHARGE)
    problems = []
    if set(cert["checks"]) != CERTIFY_ANCHORS:
        problems.append(f"certify {mp}: checks {sorted(cert['checks'])}")
    if len(cert["pairs"]) != sizes[key]:
        problems.append(f"certify {mp}: {len(cert['pairs'])} pairs for a block of {sizes[key]}")
    if cert["block"]["n"] != n or cert["condition"]["delta"] != delta or cert["image_block"]["n"] != n - delta:
        problems.append(f"certify {mp}: n={cert['block']['n']} delta={cert['condition']['delta']} image n={cert['image_block']['n']}")
    return problems


def run_certify(setup: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    sample, sizes, runs = setup["sample"], {}, []
    outcome = Outcome(runs, 0.0)
    budget = Budget(seconds)
    while budget.another(trace):
        for mp, i, n, delta in sample:
            child = spawn(["-m", "akblocks", *certify_argv(mp, i)])
            outcome.check(check_certify(child, mp, n, delta, sizes))
            runs.append(child.wall_s)
            outcome.rss_mb = max(outcome.rss_mb, child.rss_mb)
    if trace:
        out = trace_dir("certify")
        summaries, traced_s, process_s = [], 0.0, 0.0
        for k, (mp, i, n, delta) in enumerate(sample):
            stem = out / f"certify-{k}"
            child = spawn(worker("cli", "--trace", stem, "--", *certify_argv(mp, i)))
            outcome.check(check_certify(child, mp, n, delta, sizes))
            summaries.append(read_summary(stem))
            traced_s += child.wall_s
            process_s += process_overhead(child, summaries[-1])
        mp, i = inputs.README_LAMBDA, inputs.README_I
        readme = spawn(["-m", "akblocks", *certify_argv(mp, i)])
        delta = inputs.row_hub(mp, inputs.README_E, inputs.README_CHARGE)[i]
        outcome.check(check_certify(readme, mp, sum(map(sum, mp)), delta, sizes))
        targets = {"target.readme_certify_s": readme.wall_s, "target.readme_certify_rss_mb": readme.rss_mb}
        outcome.layers = layer_metrics(summaries, traced_s - sum(runs), process_s, targets)
    return outcome


# ---------------------------------------------------------------------------
# invariants


def run_invariants(setup: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    fixed = ["--inputs", TRACE_STRATA * inputs.STRATUM] if trace else []
    child = spawn(worker("invariants", seed, seconds, *fixed))
    result = last_json(child, "invariants worker")
    op_s = [ns / 1e9 for ns in result["latencies_ns"]]
    outcome = Outcome(op_s, child.rss_mb, len(op_s), result["failed"], result["failures"])
    low, mid, high = result["nodes"]
    print(f"invariants: {len(op_s)} queries on {result['inputs']} inputs of {low}..{high} nodes (median {mid})")
    if trace:
        stem = trace_dir("invariants") / "invariants"
        traced = last_json(spawn(worker("invariants", seed, seconds, *fixed, "--trace", stem)), "traced worker")
        outcome.attempted += len(traced["latencies_ns"])
        outcome.failed += traced["failed"]
        outcome.notes += traced["failures"]
        target = last_json(spawn(worker("weight-target")), "weight target")
        outcome.check([] if target["ok"] else ["weight of [[3000000]] disagrees with the benchmark's count"])
        overhead = (sum(traced["latencies_ns"]) - sum(result["latencies_ns"])) / 1e9
        outcome.layers = layer_metrics([read_summary(stem)], overhead, 0.0, {"target.weight_3m_s": target["seconds"]})
    return outcome


WORKLOADS = {"sweep": run_sweep, "certify": run_certify, "invariants": run_invariants}


# ---------------------------------------------------------------------------
# entry point


def measure_setup(workload: str, seed: int) -> tuple:
    """Median wall of SETUP_PROBES fresh processes importing akblocks and building the inputs."""
    probes = [spawn(worker("setup", workload, seed)) for _ in range(SETUP_PROBES)]
    results = [last_json(p, "setup probe") for p in probes]
    if any(r != results[0] for r in results):
        raise BenchError(f"setup for seed {seed} is not deterministic")
    return statistics.median(p.wall_s for p in probes), results[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "akblocks" / "__init__.py").is_file():
        print(f"no akblocks sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        setup_s, setup = measure_setup(args.workload, args.seed)
        outcome = WORKLOADS[args.workload](setup, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = outcome.attempted, min(outcome.failed, outcome.attempted)
    for note in outcome.notes:
        print(f"check failed: {note}")
    print(
        f"{args.workload} seed={args.seed}: {attempted} operations checked, {failed} failed "
        f"(error_rate {failed / attempted:.4f}), setup {setup_s:.4f} s over {SETUP_PROBES} probes"
    )
    if args.trace:
        metrics = outcome.layers
    else:
        ops = outcome.op_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
            "op_p99_ms": (percentile(ops, 0.99) * 1e3, "ms"),
            "ops_per_s": (len(ops) / sum(ops), "1/s"),
            "peak_rss_mb": (outcome.rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
