"""Record an A/B benchmark of two commits into a BENCH_<label>.json file.

    python3 tools/bench_record.py --parent REV --change REV --label L --workdir DIR [--claim W/M]

Run it from the root of the repository.  Each revision is exported with
``git archive`` into its own directory under ``--workdir``, and
``akbench/run.py`` of that export runs there unchanged, one workload and
seed at a time, for ``run_seconds`` from BENCHMARK.json.  Pair k of a
workload runs seed base+k on both sides, the parent first on even k and
the change first on odd k.  The file then holds every raw value, the
median and quartiles per side, and the pairs the change won for each
end-to-end metric with the exact one-sided sign-test p-value of that
many wins.  Tier-1 runs TIER1_RUNS times per side, the two sides
alternating, and every wall is kept with the median.  The README
``certify`` (``readme_certify``, CERTIFY_RUNS processes) and a bare
``import akblocks.cli`` (``import_ms``, IMPORT_RUNS processes) run as
fresh processes, the two sides alternating; each records the minimum,
median and raw walls in ms, the peak RSS and the stdout digest.
TRACED_RUNS ``--trace 1`` sweep runs per side, alternating, add
``traced_sweep``: the median and raw self times of each ``verify.check_*``
sweep, so the record shows which layer a sweep saving comes from.  As
many invariants runs add ``traced_invariants``, the same for the point
queries in TRACED_QUERIES.  Only layers akbench's tracer sees are
recorded: it wraps the public functions, so a kernel that a workload
reaches only through a private name (the sweeps call ``_hub``,
``_weight`` and ``_phi``; the point queries reach ``to_multicore`` only
inside ``core_block_of``) would read 0.0 in every run.  Such kernels wait
until the tracer spans private kernels too.  One untraced
``akbench/worker.py invariants`` run per side adds ``invariants_queries``:
the mean and median latency of each point query, read from the run's
``latencies_ns`` in the worker's ``query_table`` order (QUERIES).
The header records the bytecode setting, which moves a fresh-process op
by about a fifth: records made with different settings are not
comparable.  It also records the CPUs this process may use, which
``verify-all`` spreads its cells over.

The shared machine changes speed for minutes at a time, so the record
carries a ``calibration`` that runs no akblocks code: a fixed pure-Python
loop (``cpu_loop``) timed in this process before and after every
``akbench/run.py`` call, and the walls of ``python -c pass`` alternated
with the ``import_ms`` processes.  Each end-to-end metric lists every
pair's change/parent ratio raw and calibrated: a time divided by the
pair's ratio of loop times (change/parent), a rate multiplied by it.
Memory is not calibrated.

``--claim WORKLOAD/METRIC`` (an end-to-end metric of BENCHMARK.json) adds a
``claim`` block: the pairs the change won, the median change relative to
the parent's, the parent's interquartile range, and ``met`` by the rule a
claimed gain must clear.  The change must win at least nine tenths of the
pairs, ties counting for neither, and its median must be better than the
parent's by more than the parent's interquartile range.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"sweep": 601, "certify": 701, "invariants": 601}
PAIRS = 10
README_CERTIFY = [
    "-m", "akblocks", "certify", "--e", "5", "--charge", "0,-2,1",
    "--lambda", "[[4,3,1],[4,2,2,2],[3,2]]", "--i", "1", "--caps", "max_n=24",
]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
IMPORT_RUNS = 15
TIER1_RUNS = 3
CERTIFY_RUNS = 9
TRACED_RUNS = 3
CALIBRATION_LOOP = 2_000_000
# akbench/worker.py's query_table, in order: each input's latencies_ns entries are these queries
QUERIES = ("residue_multiset", "weight", "hub", "render", "core_block_of", "k_value", "scopes_condition", "phi")
TRACED_QUERIES = (
    "multipartition.residue_multiset_s", "blocks.weight_s", "blocks.hub_s", "abacus.render_s",
    "blocks.core_block_of_s", "blocks.k_value_s", "blocks.scopes_condition_s", "abacus.phi_s",
)


def sides(k: int) -> tuple:
    """Run k's order: the parent first on even k, the change first on odd."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def export(rev: str, dest: Path) -> str:
    """Write the files of rev into dest; returns the full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {commit} failed")
    return commit


def child(argv: list, cwd: Path) -> tuple:
    """Run python with argv in cwd with src/ on the path; (stdout, wall s, peak RSS MB)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AKBLOCKS_")}
    env["PYTHONPATH"] = str(cwd / "src")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{argv} in {cwd} exited {os.waitstatus_to_exitcode(status)}")
    return out, wall, usage.ru_maxrss / 1024


def cpu_loop() -> float:
    """Seconds of a fixed pure-Python loop in this process: the machine's
    speed at that moment, measured without any akblocks code."""
    start = time.perf_counter()
    total = 0
    for k in range(CALIBRATION_LOOP):
        total += k * k % 7
    return time.perf_counter() - start


def akbench(cwd: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One akbench/run.py call in cwd: its result line, and the cpu_loop
    seconds timed just before and just after it."""
    argv = ["akbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    before = cpu_loop()
    out, _, _ = child(argv, cwd)
    return json.loads(out.strip().splitlines()[-1]), [before, cpu_loop()]


def bench_run(cwd: Path, workload: str, seed: int, seconds: float) -> dict:
    result, calibration = akbench(cwd, workload, seed, seconds, 0)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "calibration_s": calibration,
    }


def traced(dirs: dict, workload: str, seed: int, seconds: float, keep) -> dict:
    """Per-layer self times, in s, of TRACED_RUNS traced runs of workload per
    side, the two sides alternating: the median and every run of each
    metric whose name ``keep`` accepts, and of the run's mean cpu_loop
    seconds (``calibration.cpu_loop_s``)."""
    runs = {side: [] for side in dirs}
    for k in range(TRACED_RUNS):
        for side in sides(k):
            result, calibration = akbench(dirs[side], workload, seed, seconds, 1)
            runs[side].append({name: m["value"] for name, m in result["metrics"].items() if keep(name)})
            runs[side][-1]["calibration.cpu_loop_s"] = statistics.mean(calibration)
            print(side, "traced", workload, runs[side][-1], flush=True)
    return {
        side: {name: {"median": statistics.median(r[name] for r in rs), "runs": [r[name] for r in rs]} for name in rs[0]}
        for side, rs in runs.items()
    }


def sweep_layer(name: str) -> bool:
    """Whether ``traced_sweep`` keeps a per-layer metric: one sweep's self time."""
    return name.startswith("verify.check_")


def query_latencies(latencies_ns: list) -> dict:
    """Per query of QUERIES, the mean and median of its latencies in microseconds and
    how many there are; entry k of latencies_ns is query k mod len(QUERIES)."""
    if len(latencies_ns) % len(QUERIES):
        raise SystemExit(f"{len(latencies_ns)} latencies are not whole inputs of {len(QUERIES)} queries")
    out = {}
    for k, name in enumerate(QUERIES):
        mine = latencies_ns[k :: len(QUERIES)]
        out[name] = {"mean_us": statistics.mean(mine) / 1000, "median_us": statistics.median(mine) / 1000,
                     "count": len(mine)}
    return out


def invariants_queries(dirs: dict, seed: int, seconds: float) -> dict:
    """One untraced ``akbench/worker.py invariants`` run per side, parent
    first: its inputs, failed checks and ``query_latencies``."""
    out = {}
    for side in sides(0):
        text, _, _ = child(["akbench/worker.py", "invariants", str(seed), str(seconds)], dirs[side])
        result = json.loads(text.strip().splitlines()[-1])
        out[side] = {"seed": seed, "seconds": seconds, "inputs": result["inputs"], "failed": result["failed"],
                     "queries": query_latencies(result["latencies_ns"])}
        print(side, "queries", {name: round(q["mean_us"], 1) for name, q in out[side]["queries"].items()},
              flush=True)
    return out


def walls_ms(walls: list) -> dict:
    return {"min": min(walls), "median": statistics.median(walls), "runs": walls}


def alternating(dirs: dict, argv: list, runs: int, bare: bool = False) -> tuple:
    """Walls of ``runs`` fresh processes of argv in each export, in ms, in
    ``sides`` order: min, median and every run, with the largest peak RSS
    and the last stdout's sha256.  With ``bare``, a ``python -c pass``
    process runs just before each one, and the second item holds its walls
    the same way (else None)."""
    walls, passes = {side: [] for side in dirs}, {side: [] for side in dirs}
    rss, digest = dict.fromkeys(dirs, 0.0), {}
    for k in range(runs):
        for side in sides(k):
            if bare:
                passes[side].append(child(["-c", "pass"], dirs[side])[1] * 1000)
            out, wall, mb = child(argv, dirs[side])
            walls[side].append(wall * 1000)
            rss[side] = max(rss[side], mb)
            digest[side] = hashlib.sha256(out.encode()).hexdigest()
    result = {
        side: {**walls_ms(w), "peak_rss_mb": rss[side], "stdout_sha256": digest[side]}
        for side, w in walls.items()
    }
    return result, {side: walls_ms(w) for side, w in passes.items()} if bare else None


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def sign_test_p(wins: int, pairs: int) -> float:
    """The chance of at least ``wins`` wins in ``pairs`` fair coin flips:
    the one-sided sign test of no change (8 of 10 gives 0.055, 9 of 10
    0.011)."""
    return sum(math.comb(pairs, k) for k in range(wins, pairs + 1)) / 2**pairs


# how a metric of each unit scales with the machine's speed: a time with
# the loop's time, a rate against it; memory and counts do not
CALIBRATED = {"s": 1, "ms": 1, "1/s": -1}


def calibrated_ratios(runs: dict, name: str, unit: str) -> tuple:
    """Each pair's change/parent ratio of metric name, raw and calibrated
    by the pair's ratio of mean cpu_loop seconds (None for a unit that is
    not calibrated)."""
    raw, calibrated, power = [], [], CALIBRATED.get(unit)
    for p, c in zip(runs["parent"], runs["change"]):
        ratio = c["metrics"][name] / p["metrics"][name] if p["metrics"][name] else None
        speed = statistics.mean(c["calibration_s"]) / statistics.mean(p["calibration_s"])
        raw.append(ratio)
        calibrated.append(None if ratio is None or power is None else ratio / speed**power)
    return raw, calibrated


def summarise(runs: dict, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        raw, calibrated = calibrated_ratios(runs, name, m["unit"])
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_won_pairs": wins,
            "sign_test_p": sign_test_p(wins, len(parent)),
            "pairs": len(parent),
            "pair_ratios": raw,
            "pair_ratios_calibrated": calibrated,
        }
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    """The ``claim`` block of one metric's summary (see the module docstring)."""
    s = summary[metric]
    parent, change = s["parent"]["median"], s["change"]["median"]
    gain = parent - change if s["better"] == "lower" else change - parent
    return {
        "workload": workload,
        "metric": metric,
        "better": s["better"],
        "change_won_pairs": s["change_won_pairs"],
        "pairs": s["pairs"],
        "parent_median": parent,
        "change_median": change,
        "median_change": (change - parent) / parent,
        "parent_iqr": s["parent"]["iqr"],
        "met": 10 * s["change_won_pairs"] >= 9 * s["pairs"] and gain > s["parent"]["iqr"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workdir", type=Path, required=True, help="empty directory for the two exports")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC", help="the claimed gain to test, e.g. invariants/op_p50_ms")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claimed, _, metric = (args.claim or "").partition("/")
    if args.claim and (claimed not in SEEDS or metric not in {m["name"] for m in spec["end_to_end"]}):
        parser.error(f"--claim {args.claim}: not a workload/end-to-end metric of BENCHMARK.json")
    dirs = {"parent": args.workdir / "parent", "change": args.workdir / "change"}
    commits = {side: export(getattr(args, side), path) for side, path in dirs.items()}
    record = {
        "label": args.label,
        "commits": commits,
        "nproc": os.cpu_count(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "bytecode": {
            # every child inherits the variable, which sets its sys.flags
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": sys.flags.dont_write_bytecode,
        },
        "run_seconds": spec["run_seconds"],
        "command": "python3 akbench/run.py --workload W --seed S --seconds run_seconds --trace 0",
        "order": "pair k runs seed base+k on both sides, parent first on even k",
        "workloads": {},
        "calibration": {"loop_iterations": CALIBRATION_LOOP, "cpu_loop_s": {}},
    }
    for workload in SEEDS:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            for side in sides(k):
                runs[side].append(bench_run(dirs[side], workload, SEEDS[workload] + k, spec["run_seconds"]))
                print(workload, side, runs[side][-1], flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summarise(runs, spec["end_to_end"])}
        record["calibration"]["cpu_loop_s"][workload] = {
            side: [r["calibration_s"] for r in rs] for side, rs in runs.items()
        }
    record["tier1"] = {side: {"runs_s": [], "summaries": []} for side in dirs}
    for k in range(TIER1_RUNS):
        for side in sides(k):
            out, wall, _ = child(TIER1, dirs[side])
            record["tier1"][side]["runs_s"].append(wall)
            record["tier1"][side]["summaries"].append(out.strip().splitlines()[-1])
            print(side, "tier-1", wall, record["tier1"][side]["summaries"][-1], flush=True)
    for side in record["tier1"].values():
        side["median_s"] = statistics.median(side["runs_s"])
    record["traced_sweep"] = traced(dirs, "sweep", SEEDS["sweep"], spec["run_seconds"], sweep_layer)
    record["traced_invariants"] = traced(
        dirs, "invariants", SEEDS["invariants"], spec["run_seconds"], TRACED_QUERIES.__contains__
    )
    record["invariants_queries"] = invariants_queries(dirs, SEEDS["invariants"], spec["run_seconds"])
    record["readme_certify"], _ = alternating(dirs, README_CERTIFY, CERTIFY_RUNS)
    record["import_ms"], record["calibration"]["python_pass_ms"] = alternating(
        dirs, ["-c", "import akblocks.cli"], IMPORT_RUNS, bare=True
    )
    for key in ("readme_certify", "import_ms"):
        print(key, {side: (v["min"], v["median"]) for side, v in record[key].items()}, flush=True)
    if args.claim:
        record["claim"] = claim(record["workloads"][claimed]["summary"], claimed, metric)
        print("claim", record["claim"], flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
