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
from typing import Callable, NamedTuple

from .abacus import AbacusDisplay, parse_abacus, phi, render
from .blocks import (
    block_containing,
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
from .caps import Caps
from .errors import InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    multipartition_from_json,
    multipartition_to_json,
    residue_multiset,
    size,
)
from .scopes import certificate
from .verify import DEFAULT_GRID, SweepGrid, _caps_for, format_results, results_to_json, run_all

__all__ = ["main"]


def _emit(args, payload) -> None:
    # text payloads (drawings, lemma tables) already end in a newline
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc}")
    else:
        sys.stdout.write(payload)


def _ints(text: str, expects: str, count: int | None = None) -> tuple:
    """A comma-separated integer list; InputError "<expects> '<text>'" if not."""
    try:
        out = tuple(int(x) for x in text.split(","))
    except ValueError:
        out = None
    if out is None or count not in (None, len(out)):
        raise InputError(f"{expects} {text!r}")
    return out


_INT_LIST = "expected a comma-separated integer list, got"


def _text(raw: str) -> str:
    """An argument's text: inline, or read from a file when given as @path."""
    if not raw.startswith("@"):
        return raw
    try:
        with open(raw[1:]) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {raw[1:]!r}: {exc}")


def _lam(raw: str, flag: str):
    """The multipartition given as JSON (or @file) to the option named flag."""
    try:
        obj = json.loads(_text(raw))
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag} is not valid JSON: {exc}")
    return multipartition_from_json(obj)


def _caps(spec) -> Caps:
    updates = {}
    for piece in spec.split(",") if spec else ():
        key, _, value = piece.partition("=")
        key = key.strip()
        if key not in Caps._fields:
            raise InputError(f"unknown cap {key!r} (use {'/'.join(Caps._fields)})")
        try:
            updates[key] = int(value)
        except ValueError:
            raise InputError(f"cap {key} needs an integer, got {value!r}")
    return Caps(**updates)


# ---------------------------------------------------------------------------
# commands: each handler takes (args, charge, multipartition, caps) and
# returns the payload to print


def _residues(args, mc, mp, caps):
    payload = {
        "residues": list(residue_multiset(mp, mc)),
        "counts": {str(i): c for i, c in enumerate(residue_counts(mp, mc))},
    }
    if args.other is not None:
        payload["same_block"] = same_block(mp, _lam(args.other, "--other"), mc)
    return payload


def _abacus(args, mc, mp, caps):
    disp = AbacusDisplay.from_multipartition(mp, mc)
    window = None
    if args.window:
        window = _ints(args.window, "--window expects two integers like -3,1; got", 2)
    return disp.to_json() if args.format == "json" else render(disp, window)


def _parse_abacus(args, mc, mp, caps):
    disp = parse_abacus(_text(args.lam))
    return {
        "multipartition": multipartition_to_json(disp.to_multipartition()),
        "charge": disp.charge.to_json(),
        "multicore": disp.is_multicore(),
    }


def _weight(args, mc, mp, caps):
    return {"weight": weight(mp, mc)}


def _hub(args, mc, mp, caps):
    return {"hub": list(hub(mp, mc)), "size": size(mp)}


def _blocks(args, mc, mp, caps):
    return {
        "n": args.n,
        "charge": mc.to_json(),
        "blocks": [
            {
                "hub": list(b.descriptor.hub),
                "weight": b.descriptor.weight,
                "core": b.descriptor.is_core,
                "members": [multipartition_to_json(m) for m in b.members],
            }
            for b in enumerate_blocks(args.n, mc, caps)
        ],
    }


def _core_block(args, mc, mp, caps):
    res = core_block_of(mp, mc)
    return {
        "block": block_of(mp, mc).to_json(),
        "core": res.core.to_json(),
        "core_representative": multipartition_to_json(res.core_multicore.to_multipartition()),
        "hooks_removed": res.hooks_removed,
        "chain": [st.to_json() for st in res.chain],
    }


def _k_values(args, mc, mp, caps):
    res = core_block_of(mp, mc)
    wanted = range(mc.e) if args.i is None else _ints(args.i, _INT_LIST)
    return {f"K_{i}": k_value(res.core_multicore, i) for i in wanted}


def _scopes_check(args, mc, mp, caps):
    payload = scopes_condition(mp, mc, args.i).to_json()
    payload["chain"] = [st.to_json() for st in core_block_of(mp, mc).chain]
    return payload


def _scopes_map(args, mc, mp, caps):
    img = phi(mp, mc, args.i)
    return {"image": multipartition_to_json(img), "size": size(img), "hub": list(hub(img, mc))}


def _branch(args, mc, mp, caps):
    poly = branching_polynomial(mp, mc, args.i, caps)
    return {
        "target": multipartition_to_json(phi(mp, mc, args.i)),
        "polynomial": poly.to_json(),
    }


def _certify(args, mc, mp, caps):
    return certificate(block_containing(mp, mc, caps), args.i, caps).to_json()


def _verify_all(args, mc, mp, caps):
    """Payload plus the lemmas that failed: the one command that can exit 1
    after printing its output."""
    if args.max_n is not None and args.max_n < 0:
        raise InputError(f"--max-n must be >= 0, got {args.max_n}")
    levels = _ints(args.r, _INT_LIST) if args.r else DEFAULT_GRID.levels
    es = _ints(args.e_list, _INT_LIST) if args.e_list else DEFAULT_GRID.es
    for flag, text, values, least in (("--r", args.r, levels, 1), ("--e", args.e_list, es, 2)):
        if text == "" or min(values) < least:  # checked before any cell is built or worker forked
            raise InputError(f"{flag} must list integers >= {least}, got {text!r}")
        if len(set(values)) < len(values):  # a repeated entry would sweep its cells twice
            raise InputError(f"{flag} must not repeat an entry, got {text!r}")
    grid = SweepGrid(levels=levels, es=es)
    if args.max_n is not None:
        grid = grid._replace(max_n=args.max_n, branch_n=args.max_n)
    needs = _caps_for(grid)
    _caps(args.caps).check(r=needs.max_r, e=needs.max_e, n=needs.max_n, delta=needs.max_delta)
    results = run_all(grid)
    payload = results_to_json(results, grid) if args.format == "json" else format_results(results)
    return payload, [r.lemma for r in results if not r.ok]


# ---------------------------------------------------------------------------
# the command table and its runner


def _flag(*names, **options) -> tuple:
    return names, options


class _Command(NamedTuple):
    name: str
    help: str
    handler: Callable
    flags: tuple = ()  # further (names, argparse options) pairs, in help order
    charged: bool = True  # takes --e/--charge; --caps is then read and checked
    lam: bool = True  # takes --lambda as a JSON multipartition (needs charged)
    capped: bool = True  # takes --caps; parse-abacus has nothing to cap


_RESIDUE = _flag("--i", type=int, required=True, help="residue")
_FORMAT = _flag("--format", choices=("text", "json"), default="text")

_COMMANDS = (
    _Command(
        "residues", "residue multiset and counts of a multipartition", _residues,
        flags=(_flag("--other", help="second multipartition: adds a same_block flag"),),
    ),
    _Command(
        "abacus", "render the bead display", _abacus,
        flags=(_flag("--window", help="level window lo,hi"), _FORMAT),
    ),
    _Command(
        "parse-abacus", "decode a rendered bead display", _parse_abacus, charged=False, lam=False, capped=False,
        flags=(_flag("--lambda", dest="lam", required=True, help="display text or @file"),),
    ),
    _Command("weight", "block weight of a multipartition", _weight),
    _Command("hub", "hub (residue defect vector) of a multipartition", _hub),
    _Command(
        "blocks", "enumerate the blocks of a given size", _blocks, lam=False,
        flags=(_flag("--n", type=int, required=True, help="total size"),),
    ),
    _Command("core-block", "reduce to the core block, with the move chain", _core_block),
    _Command(
        "k-values", "K invariants of the core block", _k_values,
        flags=(_flag("--i", help="residues to report, e.g. 0,1,3 (default: all)"),),
    ),
    _Command("scopes-check", "weight condition for the runner swap", _scopes_check, (_RESIDUE,)),
    _Command("scopes-map", "apply the runner swap to a multipartition", _scopes_map, (_RESIDUE,)),
    _Command("branch", "graded branching polynomial at one residue", _branch, (_RESIDUE,)),
    _Command("certify", "full certificate for one block and residue", _certify, (_RESIDUE,)),
    _Command(
        "verify-all", "run every lemma sweep over a grid", _verify_all, charged=False, lam=False,
        flags=(
            _flag("--max-n", type=int, help="bound every sweep by this size"),
            _flag("--r", help="levels to sweep, e.g. 1,2"),
            _flag("--e", dest="e_list", help="characteristics to sweep, e.g. 2,3"),
            _FORMAT,
        ),
    ),
)


def _run(cmd: _Command, args) -> int:
    """Parse charge, lambda and caps, check the level and characteristic
    caps, run the handler and print its payload -- in this order, which
    fixes the error reported when several inputs are bad.

    The size cap only guards enumeration (blocks, certify, verify-all), so
    computing invariants of one large multipartition stays allowed.
    """
    mc = mp = caps = None
    if cmd.charged:
        mc = Multicharge(args.e, _ints(args.charge, "--charge expects integers like 1,0,2; got"))
        if cmd.lam:
            mp = _lam(args.lam, "--lambda")
        caps = _caps(args.caps)
        caps.check(r=mc.r, e=mc.e)
    out = cmd.handler(args, mc, mp, caps)
    payload, failed = out if isinstance(out, tuple) else (out, ())
    _emit(args, payload)
    if failed:
        print(f"verification failed [{', '.join(failed)}]", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akblocks",
        description="Block combinatorics of cyclotomic Hecke algebras: "
        "abacus displays, weights, hubs, core blocks, runner swaps, "
        "branching degrees, and exhaustive small-rank verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        s = subs.add_parser(cmd.name, help=cmd.help)
        if cmd.charged:
            s.add_argument("--e", type=int, required=True, help="quantum characteristic (>= 2)")
            s.add_argument("--charge", required=True, help="multicharge entries, e.g. 1,0,2")
        if cmd.lam:
            s.add_argument(
                "--lambda",
                dest="lam",
                required=True,
                help='multipartition as JSON (e.g. "[[1,1],[2],[2,1]]") or @file',
            )
        for names, options in cmd.flags:
            s.add_argument(*names, **options)
        s.add_argument("--out", help="write output to this file instead of stdout")
        if cmd.capped:
            s.add_argument("--caps", help="override caps, e.g. max_n=12,max_delta=7")
        s.set_defaults(cmd=cmd)

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
        return _run(args.cmd, args)
    except InputError as exc:
        print(f"akblocks: error: input error: {exc}", file=sys.stderr)
        return 2
    except LemmaViolation as exc:
        print(f"verification failed [{exc.lemma}]: {exc.detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
