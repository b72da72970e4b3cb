import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akblocks.cli import main

EXK_ARGS = ["--e", "5", "--charge", "0,-2,1", "--lambda", "[[4,3,1],[4,2,2,2],[3,2]]"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weight_command(capsys):
    code, out, err = run(
        capsys, "weight", "--e", "4", "--charge", "1,0,2",
        "--lambda", "[[1,1],[2],[2,1]]",
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {"weight": 3}


def test_residues_with_same_block(capsys):
    code, out, _ = run(
        capsys, "residues", "--e", "4", "--charge", "1,0,2",
        "--lambda", "[[1,1],[2],[2,1]]", "--other", "[[1],[2,1],[1,1,1]]",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residues"] == [0, 0, 1, 1, 1, 2, 3]
    assert payload["same_block"] is True


def test_k_values_on_large_multipartition(capsys):
    code, out, _ = run(capsys, "k-values", *EXK_ARGS)
    assert code == 0
    payload = json.loads(out)
    assert payload["K_0"] == -1 and payload["K_1"] == 1 and payload["K_3"] == 0


def test_k_values_filtered(capsys):
    code, out, _ = run(capsys, "k-values", *EXK_ARGS, "--i", "0,1,3")
    assert code == 0
    assert json.loads(out) == {"K_0": -1, "K_1": 1, "K_3": 0}


@pytest.mark.parametrize("residues", ["5", "0,5,-4", "-1"])
def test_k_values_rejects_out_of_range_residues(capsys, residues):
    # like every other residue argument: no wrapping mod e, one error line
    code, out, err = run(capsys, "k-values", *EXK_ARGS, "--i", residues)
    assert code == 2 and out == ""
    assert err.startswith("akblocks: error:") and "out of range 0..4" in err and err.count("\n") == 1


def test_hub_command(capsys):
    code, out, _ = run(
        capsys, "hub", "--e", "4", "--charge", "1,0,2",
        "--lambda", "[[1,1],[2],[2,1]]",
    )
    assert code == 0
    assert json.loads(out)["hub"] == [-1, 2, -3, -1]


def test_abacus_text_and_parse_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "abacus", "--e", "3", "--charge", "7",
        "--lambda", "[[7,5,5,4,3,2,1]]",
    )
    assert code == 0
    path = tmp_path / "disp.txt"
    path.write_text(out)
    code, out2, _ = run(capsys, "parse-abacus", "--lambda", f"@{path}")
    assert code == 0
    assert json.loads(out2)["multipartition"] == {
        "components": [[7, 5, 5, 4, 3, 2, 1]]
    }


def test_abacus_negative_charge_flag(capsys):
    code, out, _ = run(
        capsys, "abacus", "--e", "4", "--charge", "-1,0,1",
        "--lambda", "[[1],[],[1,1]]", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["e"] == 4


def test_scopes_check_reports_without_failing(capsys):
    code, out, _ = run(capsys, "scopes-check", *EXK_ARGS, "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["K"] == 1 and payload["delta"] == 4
    assert set(payload) == {"holds", "wB", "wC", "K", "delta", "chain"}


def test_branch_fixture(capsys):
    code, out, _ = run(
        capsys, "branch", "--e", "2", "--charge", "0", "--lambda", "[[2,1]]",
        "--i", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"target", "polynomial"}
    assert payload["polynomial"] == {"1": 1, "-1": 1}


def test_blocks_enumeration(capsys):
    code, out, _ = run(capsys, "blocks", "--e", "2", "--charge", "0,1", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert sum(len(b["members"]) for b in payload["blocks"]) == 5


def test_core_block_command(capsys):
    code, out, _ = run(
        capsys, "core-block", "--e", "2", "--charge", "0", "--lambda", "[[3,1]]",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hooks_removed"] == 2
    assert payload["core"]["weight"] == 0


def test_verify_all_small_grid(capsys):
    code, out, _ = run(
        capsys, "verify-all", "--max-n", "5", "--r", "1,2", "--e", "2,3",
    )
    assert code == 0
    assert "0 failed" in out


def test_a_cap_hint_names_the_caps_flag_that_lifts_it(capsys):
    # each cap one below what the command needs fails with a hint, and the
    # --caps value the hint names passes
    for cap, argv in (
        ("max_n=3", ["blocks", "--e", "2", "--charge", "0", "--n", "4"]),
        ("max_r=3", ["weight", "--e", "2", "--charge", "0,0,0,0", "--lambda", "[[],[],[],[]]"]),
        ("max_e=8", ["weight", "--e", "9", "--charge", "0", "--lambda", "[[1]]"]),
        ("max_delta=2", ["branch", "--e", "3", "--charge", "0,0,0", "--lambda", "[[1],[1],[1]]", "--i", "0"]),
    ):
        code, _, err = run(capsys, *argv, "--caps", cap)
        hint = re.search(r"\(pass --caps (\S+) to raise\)$", err.strip())
        assert code == 2 and hint, err
        assert run(capsys, *argv, "--caps", hint.group(1))[0] == 0


def test_verify_all_json_format(capsys):
    code, out, _ = run(
        capsys, "verify-all", "--max-n", "2", "--r", "1", "--e", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert all(row["ok"] for row in payload["results"])


def test_output_is_byte_deterministic(capsys):
    args = ["residues", "--e", "4", "--charge", "1,0,2", "--lambda", "[[1,1],[2],[2,1]]"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.endswith("\n")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "w.json"
    code, out, _ = run(
        capsys, "weight", "--e", "4", "--charge", "1,0,2",
        "--lambda", "[[1,1],[2],[2,1]]", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"weight": 3}


# --- exit codes ---------------------------------------------------------------


def test_exit_two_on_malformed_lambda(capsys):
    code, _, err = run(
        capsys, "weight", "--e", "4", "--charge", "1,0,2", "--lambda", "[[2,3]]",
    )
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command, lam", [("hub", "[[true,true]]"), ("weight", "[[true]]")])
def test_exit_two_on_json_booleans(capsys, command, lam):
    code, out, err = run(capsys, command, "--e", "4", "--charge", "1", "--lambda", lam)
    assert code == 2 and out == ""
    assert "True" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["parse-abacus", "--lambda", "@/nonexistent/display.txt"],
        ["k-values", *EXK_ARGS, "--i", "x"],
        ["hub", *EXK_ARGS, "--out", "/nonexistent/hub.json"],
        ["weight", "--e", "3", "--charge", "0", "--lambda", "[5]"],
        ["weight", "--e", "3", "--charge", "0", "--lambda", "[null]"],
        ["weight", "--e", "3", "--charge", "0", "--lambda", '[{"a":1}]'],
        ["verify-all", "--max-n", "-1"],
        ["abacus", "--e", "2", "--charge", "0", "--lambda", "[[1]]", "--window", "-200000,200000"],
    ],
)
def test_exit_two_with_one_line_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("akblocks: error:") and err.count("\n") == 1


def test_exit_two_on_level_mismatch(capsys):
    code, _, err = run(
        capsys, "weight", "--e", "4", "--charge", "1,0", "--lambda", "[[1]]",
    )
    assert code == 2 and "components" in err


def test_exit_two_on_bad_json(capsys):
    code, _, err = run(
        capsys, "weight", "--e", "4", "--charge", "1,0,2", "--lambda", "not json",
    )
    assert code == 2 and "JSON" in err


def test_exit_two_on_cap_violation(capsys):
    code, _, err = run(capsys, "blocks", "--e", "2", "--charge", "0", "--n", "99")
    assert code == 2 and "cap" in err.lower()


def test_exit_two_on_unknown_flag(capsys):
    code = main(["weight", "--nope"])
    assert code == 2


def test_exit_two_on_missing_subcommand(capsys):
    assert main([]) == 2


def test_caps_override_flag(capsys):
    code, out, _ = run(
        capsys, "blocks", "--e", "2", "--charge", "0", "--n", "9",
        "--caps", "max_n=9",
    )
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_exit_two_on_bad_caps_spec(capsys):
    code, _, err = run(
        capsys, "blocks", "--e", "2", "--charge", "0", "--n", "3",
        "--caps", "max_q=9",
    )
    assert code == 2 and "max_q" in err


# --- the exit-code contract over generated argv --------------------------------


def _mostly(valid, junk):
    """Draw junk one time in eight, so most argv reach a handler."""
    return st.integers(0, 7).flatmap(lambda k: junk if k == 0 else valid)


def _joined(xs) -> str:
    return ",".join(map(str, xs))


_junk = st.one_of(
    st.integers(-2, 5),
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.floats(allow_nan=False, width=16),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
_partition = st.lists(st.integers(1, 3), max_size=3).map(lambda xs: sorted(xs, reverse=True))
_component = st.one_of(
    _partition,
    _junk,
    st.lists(_junk, min_size=1, max_size=2),
    st.lists(st.integers(0, 3), max_size=3),
)
_int_text = st.one_of(
    st.lists(st.integers(-4, 6), min_size=1, max_size=4).map(_joined),
    st.text(alphabet="0123456789,-x ", max_size=5),
)
_DRAWING = "e=3 charges=2\nlevel  012\n   -1  ooo\n    0  o.o\n    1  ...\n"
_RESIDUE_COMMANDS = ("scopes-check", "scopes-map", "branch", "certify")
_CAPS = ("max_n=4", "max_delta=2", "max_r=2", "max_q=1", "max_n=x")


def _lam(r: int):
    rows = st.lists(_partition, min_size=r, max_size=r)
    return _mostly(
        rows.map(json.dumps),
        st.one_of(
            st.lists(_junk, min_size=1, max_size=3).map(json.dumps),
            st.lists(_component, min_size=1, max_size=4).map(json.dumps),
            rows.map(lambda c: json.dumps({"components": c})),
            _junk.map(json.dumps),
            st.text(max_size=6),
            st.just("@/nonexistent/lambda.json"),
        ),
    )


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["residues", "abacus", "parse-abacus", "weight", "hub", "blocks", "core-block",
         "k-values", "verify-all", *_RESIDUE_COMMANDS]
    ))
    argv = [command]
    if command == "verify-all":
        argv += ["--max-n", draw(st.sampled_from(["-1", "0", "1", "2", "3"]))]
        for flag, values in (("--r", "1 2 1,2 0 x"), ("--e", "2 3 2,3 1 x")):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(values.split()))]
        return argv + draw(st.sampled_from([[], ["--format", "json"]]))
    if command == "parse-abacus":
        text = st.text(alphabet="e=3 chargs,0-1o.lv\n", max_size=40)
        return argv + ["--lambda", draw(_mostly(st.just(_DRAWING), text))]
    r = draw(st.integers(1, 3))
    charge = st.lists(st.integers(-3, 3), min_size=r, max_size=r).map(_joined)
    argv += ["--e", draw(_mostly(st.sampled_from("2345"), st.sampled_from(["0", "1", "6", "x"])))]
    argv += ["--charge", draw(_mostly(charge, _int_text))]
    if command == "blocks":
        argv += ["--n", draw(_mostly(st.sampled_from("012345"), st.sampled_from(["-1", "9", "x"])))]
    else:
        argv += ["--lambda", draw(_lam(r))]
    if command in _RESIDUE_COMMANDS:
        argv += ["--i", draw(_mostly(st.sampled_from("01234"), st.sampled_from(["-1", "7", "x"])))]
    elif command == "k-values" and draw(st.booleans()):
        argv += ["--i", draw(_int_text)]
    elif command == "residues" and draw(st.booleans()):
        argv += ["--other", draw(_lam(r))]
    elif command == "abacus":
        if draw(st.booleans()):
            argv += ["--window", draw(_int_text)]
        argv += draw(st.sampled_from([[], ["--format", "json"]]))
    if draw(st.booleans()):
        argv += ["--caps", draw(st.sampled_from(_CAPS))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_every_argv_keeps_the_exit_code_contract(argv):
    # 0 success, 1 only for a failed verification, 2 for bad input or a cap;
    # an exception escaping main would fail the test with its traceback
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert "verification failed [" in err.getvalue(), argv
    elif code == 2:
        assert err.getvalue().startswith(("akblocks: error:", "usage:")), argv
    else:
        assert err.getvalue() == "" and out.getvalue().endswith("\n"), argv
