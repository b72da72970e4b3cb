"""Child processes of the akblocks benchmark; run.py starts them with PYTHONPATH=src.

    worker.py setup WORKLOAD SEED          import akblocks and build the workload's inputs
    worker.py invariants SEED SECONDS      closed loop of point queries (--inputs N: fixed count)
    worker.py cli --trace STEM -- ARGV...  akblocks.cli.main(ARGV) under the tracer
    worker.py weight-target                one weight() of [[3000000]]

Every mode except ``cli`` prints one JSON object as its last stdout line.
``--trace STEM`` installs the tracer and writes its summary and spans to
STEM.json and STEM.spans.gz (see tracer.Tracer.dump).
"""

import argparse
import hashlib
import json
import sys
import time
import traceback
from array import array
from pathlib import Path

import inputs

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference"
WEIGHT_TARGET = (((3_000_000,),), 5, (0,))


def import_akblocks():
    """Import akblocks and akblocks.cli, refusing any copy outside this checkout's src."""
    import akblocks
    import akblocks.cli  # noqa: F401

    where = Path(akblocks.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"akblocks imported from {where}, not from {SRC}")
    return akblocks


def _setup(args) -> dict:
    ak = import_akblocks()
    if args.workload == "sweep":
        return {"argv": ["verify-all", "--format", "json"]}
    if args.workload == "certify":
        return {"sample": inputs.certify_sample(args.seed, ak.scopes_condition, ak.Multicharge)}
    first = next(inputs.invariant_strata(args.seed))
    return {"first_stratum_sha256": hashlib.sha256(repr(first).encode()).hexdigest()}


# ---------------------------------------------------------------------------
# invariant queries


def query_table(ak):
    """The README's point queries, in the order one input receives them."""
    return (
        ("residue_multiset", lambda mp, mc, i: ak.residue_multiset(mp, mc)),
        ("weight", lambda mp, mc, i: ak.weight(mp, mc)),
        ("hub", lambda mp, mc, i: ak.hub(mp, mc)),
        ("render", lambda mp, mc, i: ak.render(ak.AbacusDisplay.from_multipartition(mp, mc))),
        ("core_block_of", lambda mp, mc, i: ak.core_block_of(mp, mc)),
        ("k_value", lambda mp, mc, i: ak.k_value(ak.core_block_of(mp, mc).core_multicore, i)),
        ("scopes_condition", lambda mp, mc, i: ak.scopes_condition(mp, mc, i)),
        ("phi", lambda mp, mc, i: ak.phi(mp, mc, i)),
    )


def _canonical(out):
    """A JSON-ready form of a query result that depends only on its documented content."""
    if hasattr(out, "to_json"):
        return out.to_json()
    if hasattr(out, "core_multicore"):
        return {
            "core": out.core.to_json(),
            "chain": [step.to_json() for step in out.chain],
            "levels": out.core_multicore.levels,
            "hooks": out.hooks_removed,
        }
    return out


def check_input(mp, e: int, charge, outs: dict) -> list:
    """Names of the queries whose result disagrees with the benchmark's own arithmetic."""
    own = inputs.row_residue_counts(mp, e, charge)
    bad = []
    residues = outs["residue_multiset"]
    if residues is None or [residues.count(k) for k in range(e)] != own or list(residues) != sorted(residues):
        bad.append("residue_multiset")
    if outs["hub"] is None or len(outs["hub"]) != e or sum(outs["hub"]) != -len(mp):
        bad.append("hub")
    if outs["weight"] != inputs.weight_from_counts(own, e, charge):
        bad.append("weight")
    return bad


def stratum_digest(ak, stratum) -> str:
    table = query_table(ak)
    digest = hashlib.sha256()
    for mp, e, charge, i in stratum:
        mc = ak.Multicharge(e, charge)
        outs = [_canonical(fn(mp, mc, i)) for _, fn in table]
        digest.update(json.dumps(outs, sort_keys=True).encode())
    return digest.hexdigest()


def _invariants(args) -> dict:
    ak = import_akblocks()
    failures = []
    # The committed digest is for the first stratum of DEFAULT_SEED; it is
    # recomputed before the timed loop (and before any tracing), whatever the seed.
    reference = json.loads((REFERENCE / "invariants_digest.json").read_text())
    digest = stratum_digest(ak, next(inputs.invariant_strata(DEFAULT_SEED)))
    if digest != reference["sha256"]:
        failures.append(f"digest of seed {DEFAULT_SEED} stratum 0 is {digest}, expected {reference['sha256']}")
    tracer = _tracer(args)
    table = query_table(ak)
    clock = time.perf_counter_ns
    latencies = array("q")
    failed = len(failures)
    nodes = []
    start = last = time.perf_counter()
    for stratum in inputs.invariant_strata(args.seed):
        for mp, e, charge, i in stratum:
            mc = ak.Multicharge(e, charge)
            if tracer is not None:
                tracer.request = len(nodes) + 1
            outs = {}
            for name, fn in table:
                t0 = clock()
                try:
                    outs[name] = fn(mp, mc, i)
                except Exception:
                    outs[name] = None
                    failed += 1
                    failures.append(f"{name} raised on {e} {charge} {i}: {traceback.format_exc(limit=3)}")
                latencies.append(clock() - t0)
            for name in check_input(mp, e, charge, outs):
                failed += 1
                failures.append(f"{name} disagrees with the benchmark's count on e={e} charge={charge}")
            nodes.append(sum(map(sum, mp)))
        # Start another stratum only if it should end within SECONDS.
        now = time.perf_counter()
        done = len(nodes) >= args.inputs if args.inputs else 2 * now - last - start > args.seconds
        if done:
            break
        last = now
    if tracer is not None:
        tracer.dump(args.trace)
    return {
        "latencies_ns": latencies.tolist(),
        "inputs": len(nodes),
        "nodes": [min(nodes), sorted(nodes)[len(nodes) // 2], max(nodes)],
        "failed": failed,
        "failures": failures[:5],
    }


def _tracer(args):
    if not args.trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _cli(args) -> int:
    ak = import_akblocks()
    tracer = _tracer(args)
    try:
        return ak.cli.main(args.argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.trace)


def _weight_target(args) -> dict:
    ak = import_akblocks()
    mp, e, charge = WEIGHT_TARGET
    mc = ak.Multicharge(e, charge)
    start = time.perf_counter()
    got = ak.weight(mp, mc)
    seconds = time.perf_counter() - start
    want = inputs.weight_from_counts(inputs.row_residue_counts(mp, e, charge), e, charge)
    return {"seconds": seconds, "ok": got == want}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=("sweep", "certify", "invariants"))
    p.add_argument("seed", type=int)
    p.set_defaults(func=_setup)
    p = sub.add_parser("invariants")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("--inputs", type=int, default=0, help="stop after this many inputs, not after SECONDS")
    p.add_argument("--trace")
    p.set_defaults(func=_invariants)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cli)
    p = sub.add_parser("weight-target")
    p.set_defaults(func=_weight_target)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _cli(args)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
