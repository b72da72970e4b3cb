"""Command-line front end.

Exit codes: 0 success; 1 a verification failed (the message names the
violated lemma anchor); 2 malformed input or a cap was exceeded, reported
as one ``akblocks: error:`` line on stderr.
All JSON output is deterministic: sorted keys, two-space indent,
trailing newline.
"""

import argparse
import json
import re
import sys
from dataclasses import replace

from .abacus import AbacusDisplay, parse_abacus, phi, render
from .blocks import (
    block_of,
    core_block_of,
    enumerate_blocks,
    hub,
    k_value,
    residue_counts,
    same_block,
    scopes_condition,
    weight,
)
from .branching import branching_polynomial
from .caps import Caps, default_caps
from .errors import InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    multipartition_from_json,
    multipartition_to_json,
    residue_multiset,
    size,
)
from .scopes import certificate
from .blocks import block_containing
from .verify import DEFAULT_GRID, SweepGrid, format_results, results_to_json, run_all

__all__ = ["main"]


def _emit(args, payload) -> None:
    if isinstance(payload, str):
        text = payload if payload.endswith("\n") else payload + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc}")
    else:
        sys.stdout.write(text)


def _charge(args) -> Multicharge:
    try:
        entries = tuple(int(x) for x in args.charge.split(","))
    except ValueError:
        raise InputError(f"--charge expects integers like 1,0,2; got {args.charge!r}")
    return Multicharge(args.e, entries)


def _text(raw: str) -> str:
    """An argument's text: inline, or read from a file when given as @path."""
    if not raw.startswith("@"):
        return raw
    try:
        with open(raw[1:]) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {raw[1:]!r}: {exc}")


def _lam(args, attr: str = "lam"):
    raw = _text(getattr(args, attr))
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"--lambda is not valid JSON: {exc}")
    return multipartition_from_json(obj)


def _caps(args) -> Caps:
    caps = default_caps()
    spec = getattr(args, "caps", None)
    if not spec:
        return caps
    updates = {}
    for piece in spec.split(","):
        key, _, value = piece.partition("=")
        key = key.strip()
        if key not in ("max_n", "max_r", "max_e", "max_delta"):
            raise InputError(f"unknown cap {key!r} (use max_n/max_r/max_e/max_delta)")
        try:
            updates[key] = int(value)
        except ValueError:
            raise InputError(f"cap {key} needs an integer, got {value!r}")
    return replace(caps, **updates)


def _guard(caps: Caps, mc: Multicharge) -> None:
    """Level and characteristic caps apply to every command; the size cap
    only guards enumeration (blocks, certify, verify-all), so computing
    invariants of one large multipartition stays allowed."""
    caps.check_r(mc.r)
    caps.check_e(mc.e)


# ---------------------------------------------------------------------------
# commands


def _cmd_residues(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    payload = {
        "residues": list(residue_multiset(mp, mc)),
        "counts": {str(i): c for i, c in enumerate(residue_counts(mp, mc))},
    }
    if args.other is not None:
        other = _lam(args, "other")
        payload["same_block"] = same_block(mp, other, mc)
    _emit(args, payload)
    return 0


def _cmd_abacus(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    disp = AbacusDisplay.from_multipartition(mp, mc)
    window = None
    if args.window:
        try:
            lo, hi = (int(x) for x in args.window.split(","))
        except ValueError:
            raise InputError(f"--window expects two integers like -3,1; got {args.window!r}")
        window = (lo, hi)
    if args.format == "json":
        _emit(args, disp.to_json())
    else:
        _emit(args, render(disp, window))
    return 0


def _cmd_weight(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    _emit(args, {"weight": weight(mp, mc)})
    return 0


def _cmd_hub(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    _emit(args, {"hub": list(hub(mp, mc)), "size": size(mp)})
    return 0


def _cmd_blocks(args) -> int:
    mc = _charge(args)
    caps = _caps(args)
    _guard(caps, mc)
    blocks = enumerate_blocks(args.n, mc, caps)
    payload = {
        "n": args.n,
        "charge": mc.to_json(),
        "blocks": [
            {
                "hub": list(b.descriptor.hub),
                "weight": b.descriptor.weight,
                "core": b.descriptor.is_core,
                "members": [multipartition_to_json(mp) for mp in b.members],
            }
            for b in blocks
        ],
    }
    _emit(args, payload)
    return 0


def _cmd_core_block(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    res = core_block_of(mp, mc)
    _emit(
        args,
        {
            "block": block_of(mp, mc).to_json(),
            "core": res.core.to_json(),
            "core_representative": multipartition_to_json(
                res.core_multicore.to_multipartition()
            ),
            "hooks_removed": res.hooks_removed,
            "chain": [st.to_json() for st in res.chain],
        },
    )
    return 0


def _cmd_k_values(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    res = core_block_of(mp, mc)
    wanted = range(mc.e)
    if args.i is not None:
        wanted = [x % mc.e for x in _int_list(args.i)]
    payload = {f"K_{i}": k_value(res.core_multicore, i) for i in wanted}
    _emit(args, payload)
    return 0


def _cmd_scopes_check(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    report = scopes_condition(mp, mc, args.i)
    res = core_block_of(mp, mc)
    payload = report.to_json()
    payload["chain"] = [st.to_json() for st in res.chain]
    _emit(args, payload)
    return 0


def _cmd_scopes_map(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    _guard(_caps(args), mc)
    img = phi(mp, mc, args.i)
    _emit(
        args,
        {
            "image": multipartition_to_json(img),
            "size": size(img),
            "hub": list(hub(img, mc)),
        },
    )
    return 0


def _cmd_branch(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    caps = _caps(args)
    _guard(caps, mc)
    poly = branching_polynomial(mp, mc, args.i, caps)
    _emit(
        args,
        {
            "target": multipartition_to_json(phi(mp, mc, args.i)),
            "polynomial": poly.to_json(),
        },
    )
    return 0


def _cmd_certify(args) -> int:
    mc = _charge(args)
    mp = _lam(args)
    caps = _caps(args)
    _guard(caps, mc)
    caps.check_n(size(mp))
    block = block_containing(mp, mc, caps)
    cert = certificate(block, args.i, caps)
    _emit(args, cert.to_json())
    return 0


def _cmd_parse_abacus(args) -> int:
    disp = parse_abacus(_text(args.lam))
    mp = disp.to_multipartition()
    _emit(
        args,
        {
            "multipartition": multipartition_to_json(mp),
            "charge": disp.charge.to_json(),
            "multicore": disp.is_multicore(),
        },
    )
    return 0


def _cmd_verify_all(args) -> int:
    if args.max_n is not None:
        grid = SweepGrid(
            max_n=args.max_n,
            levels=_int_list(args.r) if args.r else DEFAULT_GRID.levels,
            es=_int_list(args.e_list) if args.e_list else DEFAULT_GRID.es,
            branch_n=args.max_n,
            oracle_n=args.max_n,
            max_delta=DEFAULT_GRID.max_delta,
        )
    else:
        grid = SweepGrid(
            levels=_int_list(args.r) if args.r else DEFAULT_GRID.levels,
            es=_int_list(args.e_list) if args.e_list else DEFAULT_GRID.es,
        )
    results = run_all(grid)
    if args.format == "json":
        _emit(args, results_to_json(results, grid))
    else:
        _emit(args, format_results(results))
    bad = [r.lemma for r in results if not r.ok]
    if bad:
        print(f"verification failed [{', '.join(bad)}]", file=sys.stderr)
        return 1
    return 0


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {text!r}")


# ---------------------------------------------------------------------------
# parser


def _add_charge_flags(sub) -> None:
    sub.add_argument("--e", type=int, required=True, help="quantum characteristic (>= 2)")
    sub.add_argument("--charge", required=True, help="multicharge entries, e.g. 1,0,2")


def _add_lambda_flag(sub) -> None:
    sub.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help='multipartition as JSON (e.g. "[[1,1],[2],[2,1]]") or @file',
    )


def _add_common(sub) -> None:
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--caps", help="override caps, e.g. max_n=12,max_delta=7")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akblocks",
        description="Block combinatorics of cyclotomic Hecke algebras: "
        "abacus displays, weights, hubs, core blocks, runner swaps, "
        "branching degrees, and exhaustive small-rank verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("residues", help="residue multiset and counts of a multipartition")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--other", help="second multipartition: adds a same_block flag")
    _add_common(s)
    s.set_defaults(func=_cmd_residues)

    s = subs.add_parser("abacus", help="render the bead display")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--window", help="level window lo,hi")
    s.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(s)
    s.set_defaults(func=_cmd_abacus)

    s = subs.add_parser("parse-abacus", help="decode a rendered bead display")
    s.add_argument("--lambda", dest="lam", required=True, help="display text or @file")
    _add_common(s)
    s.set_defaults(func=_cmd_parse_abacus)

    s = subs.add_parser("weight", help="block weight of a multipartition")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    _add_common(s)
    s.set_defaults(func=_cmd_weight)

    s = subs.add_parser("hub", help="hub (residue defect vector) of a multipartition")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    _add_common(s)
    s.set_defaults(func=_cmd_hub)

    s = subs.add_parser("blocks", help="enumerate the blocks of a given size")
    _add_charge_flags(s)
    s.add_argument("--n", type=int, required=True, help="total size")
    _add_common(s)
    s.set_defaults(func=_cmd_blocks)

    s = subs.add_parser("core-block", help="reduce to the core block, with the move chain")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    _add_common(s)
    s.set_defaults(func=_cmd_core_block)

    s = subs.add_parser("k-values", help="K invariants of the core block")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--i", help="residues to report, e.g. 0,1,3 (default: all)")
    _add_common(s)
    s.set_defaults(func=_cmd_k_values)

    s = subs.add_parser("scopes-check", help="weight condition for the runner swap")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--i", type=int, required=True, help="residue")
    _add_common(s)
    s.set_defaults(func=_cmd_scopes_check)

    s = subs.add_parser("scopes-map", help="apply the runner swap to a multipartition")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--i", type=int, required=True, help="residue")
    _add_common(s)
    s.set_defaults(func=_cmd_scopes_map)

    s = subs.add_parser("branch", help="graded branching polynomial at one residue")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--i", type=int, required=True, help="residue")
    _add_common(s)
    s.set_defaults(func=_cmd_branch)

    s = subs.add_parser("certify", help="full certificate for one block and residue")
    _add_charge_flags(s)
    _add_lambda_flag(s)
    s.add_argument("--i", type=int, required=True, help="residue")
    _add_common(s)
    s.set_defaults(func=_cmd_certify)

    s = subs.add_parser("verify-all", help="run every lemma sweep over a grid")
    s.add_argument("--max-n", type=int, help="bound every sweep by this size")
    s.add_argument("--r", help="levels to sweep, e.g. 1,2")
    s.add_argument("--e", dest="e_list", help="characteristics to sweep, e.g. 2,3")
    s.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(s)
    s.set_defaults(func=_cmd_verify_all)

    # let "--charge -1,0,1" and "--window -3,1" pass as values: no option
    # here starts with a digit, so anything shaped like a negative number
    # list is data, not a flag
    matcher = re.compile(r"^-\d+(?:[,.]-?\d+)*$")
    parser._negative_number_matcher = matcher
    for sub in subs.choices.values():
        sub._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"akblocks: error: input error: {exc}", file=sys.stderr)
        return 2
    except LemmaViolation as exc:
        print(f"verification failed [{exc.lemma}]: {exc.detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
