import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import akblocks
from akblocks import (
    DEFAULT_GRID,
    Block,
    CapExceeded,
    Caps,
    InputError,
    LemmaViolation,
    Multicharge,
    Node,
    add_node,
    base_tuples,
    block_containing,
    block_of,
    core_block_of,
    d_min,
    degree_spectrum,
    delta_ij,
    enumerate_blocks,
    hub,
    is_core_block,
    k_value,
    level_hub,
    mahonian,
    multipartitions_of,
    remove_node,
    residue,
    residue_counts,
    residue_multiset,
    same_block,
    scopes_condition,
    to_multicore,
    weight,
    witness_offsets,
)
from akblocks import blocks, multipartition
from akblocks.cli import main
from akblocks.verify import SweepGrid, run_all

MC = Multicharge(4, (1, 0, 2))
LAM = ((1, 1), (2,), (2, 1))

EXK_MC = Multicharge(5, (0, -2, 1))
EXK = ((4, 3, 1), (4, 2, 2, 2), (3, 2))


def test_worked_example_counts_weight_hub():
    assert residue_counts(LAM, MC) == (2, 3, 1, 1)
    assert weight(LAM, MC) == 3
    assert hub(LAM, MC) == (-1, 2, -3, -1)


def test_same_block_requires_equal_size():
    with pytest.raises(InputError):
        same_block(LAM, ((1,), (), ()), MC)


def test_hub_determines_block():
    other = ((1,), (2, 1), (1, 1, 1))
    assert hub(other, MC) == hub(LAM, MC)
    assert same_block(LAM, other, MC)


def test_block_of_roundtrip():
    desc = block_of(LAM, MC)
    assert desc.n == 7 and desc.weight == 3
    assert desc.to_json() == {
        "n": 7, "r": 3, "e": 4, "kappa": [1, 0, 2],
        "hub": [-1, 2, -3, -1], "weight": 3, "core_weight": 0,
    }


def test_cached_entry_points_accept_the_list_form():
    # weight, phi and block_containing take lists of parts; so do the
    # queries behind the core-block cache
    for mp, mc in ((((2, 1), (1,)), Multicharge(3, (0, 1))), (LAM, MC)):
        for listed in ([list(c) for c in mp], tuple(list(c) for c in mp)):
            assert core_block_of(listed, mc) == core_block_of(mp, mc)
            assert block_of(listed, mc) == block_of(mp, mc)
            for i in range(mc.e):
                assert scopes_condition(listed, mc, i) == scopes_condition(mp, mc, i)


def test_block_of_and_scopes_condition_read_the_hub_of_the_core_block():
    # both take the hub from core_block_of, which keeps hub(mp) for its core,
    # and the weight from its chain, which starts r per rim hook below w(mp)
    checked = 0
    for mc in DEFAULT_GRID.cells():
        for n in range(6):
            for mp in multipartitions_of(n, mc.r):
                h, w = hub(mp, mc), weight(mp, mc)
                assert (block_of(mp, mc).hub, block_of(mp, mc).weight) == (h, w)
                reports = [scopes_condition(mp, mc, i) for i in range(mc.e)]
                assert [(rep.delta, rep.w_b) for rep in reports] == [(d, w) for d in h]
                checked += 1
    assert checked > 1000


def test_enumerate_blocks_partitions_everything():
    mc = Multicharge(2, (0, 1))
    blocks = enumerate_blocks(4, mc)
    members = [mp for b in blocks for mp in b.members]
    assert len(members) == len(set(members)) == len(list(multipartitions_of(4, 2)))
    for b in blocks:
        assert list(b.members) == sorted(b.members, reverse=True)


def test_enumerate_blocks_respects_caps():
    mc = Multicharge(2, (0,))
    with pytest.raises(InputError):
        enumerate_blocks(4, mc, Caps(max_n=3, max_r=3, max_e=5, max_delta=6))


def test_caps_check_names_the_first_value_past_its_cap():
    with pytest.raises(CapExceeded, match=r"^level r=2 exceeds cap 1 \(set AKBLOCKS_MAX_R to raise\)$"):
        Caps(max_r=1, max_e=2).check(r=2, e=3)


_M = to_multicore(((2,), (1,)), Multicharge(3, (0, 1)))[0]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: k_value(_M, True), id="k_value bool residue"),
        pytest.param(lambda: k_value(_M, 1.0), id="k_value float residue"),
        pytest.param(lambda: k_value(_M, "1"), id="k_value string residue"),
        pytest.param(lambda: delta_ij(LAM, MC, True, 1), id="delta_ij bool residue"),
        pytest.param(lambda: delta_ij(LAM, MC, 0, 1.0), id="delta_ij float component"),
        pytest.param(lambda: d_min(LAM, MC, True), id="d_min bool residue"),
        pytest.param(lambda: d_min(LAM, MC, 1.0), id="d_min float residue"),
        pytest.param(lambda: scopes_condition(LAM, MC, True), id="scopes_condition bool residue"),
        pytest.param(lambda: residue(Node(1, 1, True), MC), id="residue bool component"),
        pytest.param(lambda: residue(Node(1, 1, 1.0), MC), id="residue float component"),
        pytest.param(lambda: residue(Node(1.0, 1, 1), MC), id="residue float row"),
        pytest.param(lambda: residue(Node(True, 1, 1), MC), id="residue bool row"),
        pytest.param(lambda: residue(Node(1, 0, 1), MC), id="residue column 0"),
        pytest.param(lambda: remove_node(((1,), ()), Node(1, True, 1)), id="remove_node bool column"),
        pytest.param(lambda: remove_node(((1,), ()), Node(1, 1, True)), id="remove_node bool component"),
        pytest.param(lambda: add_node(((1,), ()), Node(1, 2.0, 1)), id="add_node float column"),
        pytest.param(lambda: add_node(((1,), ()), Node(1.0, 2, 1)), id="add_node float row"),
        pytest.param(lambda: mahonian(2.0), id="mahonian float delta"),
        pytest.param(lambda: mahonian(True), id="mahonian bool delta"),
        pytest.param(lambda: mahonian("3"), id="mahonian string delta"),
        pytest.param(lambda: degree_spectrum(2.0), id="degree_spectrum float delta"),
        pytest.param(lambda: degree_spectrum(True), id="degree_spectrum bool delta"),
        pytest.param(lambda: degree_spectrum(-1), id="degree_spectrum negative delta"),
        pytest.param(lambda: block_containing(((1, 2),), Multicharge(3, (0,))), id="block_containing increasing parts"),
        pytest.param(lambda: block_containing(((1.5,),), Multicharge(3, (0,))), id="block_containing float part"),
        pytest.param(lambda: enumerate_blocks(2.0, MC), id="enumerate_blocks float size"),
        pytest.param(lambda: enumerate_blocks(True, MC), id="enumerate_blocks bool size"),
    ],
)
def test_block_entry_points_reject_values_that_only_look_like_integers(build):
    # each of these gave a wrong answer or a TypeError before the range
    # checks went through one helper that rejects bools and floats
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: k_value(_M, "1"), "residue '1' out of range 0..2"),
        (lambda: mahonian("3"), "mahonian delta '3' out of range 0..9"),
    ],
    ids=["k_value", "mahonian"],
)
def test_range_messages_quote_a_string_value(build, message):
    # printed bare, the value would read as a valid integer: "residue 1 out of range 0..2"
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_level_hub_bridge_on_multicore():
    m, hooks = to_multicore(EXK, EXK_MC)
    assert hooks == 0
    assert level_hub(m) == hub(EXK, EXK_MC)
    for j in range(1, 4):
        for i in range(5):
            assert delta_ij(EXK, EXK_MC, i, j) == m.levels[j - 1][i] - m.levels[
                j - 1
            ][i - 1] - (1 if i == 0 else 0)


def test_exk_witnesses_and_invariants():
    m, _ = to_multicore(EXK, EXK_MC)
    assert m.levels[0] == (-1, 0, -2, 0, -2)
    assert witness_offsets(m) == ((0, 0, -1), (0, 0, 0))
    assert is_core_block(EXK, EXK_MC)
    assert k_value(m, 0) == -1
    assert k_value(m, 1) == 1
    assert k_value(m, 3) == 0


def test_exk_base_tuples():
    m, _ = to_multicore(EXK, EXK_MC)
    tuples = base_tuples(m)
    assert len(tuples) == 2
    a, b = tuples
    diffs = [i for i in range(5) if a[i] != b[i]]
    assert diffs == [1]
    assert abs(a[1] - b[1]) == 1


def test_k_value_requires_core_block():
    m, _ = to_multicore(((2,), ()), Multicharge(2, (0, 0)))
    if not is_core_block(m):
        with pytest.raises(InputError):
            k_value(m, 0)


def test_core_block_of_reaches_a_core_block():
    res = core_block_of(LAM, MC)
    assert res.core.is_core
    assert res.core.hub == hub(LAM, MC)
    assert res.core.weight <= weight(LAM, MC)
    assert is_core_block(res.core_multicore)
    # chain weights never increase
    ws = [st.weight_before for st in res.chain] + (
        [res.chain[-1].weight_after] if res.chain else []
    )
    assert all(a >= b for a, b in zip(ws, ws[1:]))


def test_core_block_weight_law_along_chain():
    mc = Multicharge(3, (0, 1))
    for mp in multipartitions_of(5, 2):
        res = core_block_of(mp, mc)
        for st in res.chain:
            assert st.weight_before - st.weight_after == mc.r * (
                st.gamma_difference - 2
            )


def test_is_core_block_false_for_non_multicore():
    assert not is_core_block(((2,),), Multicharge(2, (0,)))


def test_scopes_condition_literal():
    rep = scopes_condition(EXK, EXK_MC, 1)
    assert rep.holds and rep.k == 1 and rep.delta == 4
    assert rep.w_b <= rep.w_c + rep.k * EXK_MC.r
    j = rep.to_json()
    assert set(j) == {"holds", "wB", "wC", "K", "delta"}


def test_scopes_condition_can_fail_without_error():
    # a negative K with wB = wC makes the inequality fail; just probe the
    # desk grid until one shows up
    mc = Multicharge(2, (0, 1))
    found = False
    for n in range(7):
        for mp in multipartitions_of(n, 2):
            rep = scopes_condition(mp, mc, 0)
            if not rep.holds:
                found = True
                assert rep.w_b > rep.w_c + rep.k * mc.r
    assert found


def test_block_containing_members_share_residues():
    blk = block_containing(LAM, MC, Caps(max_n=8, max_r=3, max_e=5, max_delta=6))
    assert LAM in blk.members
    assert isinstance(blk, Block)
    for mp in blk.members:
        assert residue_counts(mp, MC) == residue_counts(LAM, MC)


def test_d_min_is_component_minimum():
    assert d_min(EXK, EXK_MC, 1) == min(
        delta_ij(EXK, EXK_MC, 1, j) for j in range(1, 4)
    )


class _Unprintable:
    def __str__(self):
        raise AssertionError("formatted a message that was not raised")

    __repr__ = __str__


def test_negative_weight_message_is_formatted_only_on_failure(monkeypatch):
    assert blocks._counts_weight((1, 0), (0,), _Unprintable(), "levels ") == 0
    # the planted counts are kept with the checked tuple: keep them out of the shared memo
    monkeypatch.setattr(multipartition, "_CHECKED", {})
    monkeypatch.setattr(multipartition, "_residue_counts", lambda mp, charge: (5, 0))
    with pytest.raises(LemmaViolation) as exc:
        weight(((1,),), Multicharge(2, (0,)))
    assert str(exc.value) == "weight_nonnegative: negative weight -20 for ((1,),)"
    monkeypatch.setattr(blocks, "_level_counts", lambda m: (5, 0))
    m = to_multicore(((1,),), Multicharge(2, (1,)))[0]
    with pytest.raises(LemmaViolation) as exc:
        blocks._level_weight(m, (1,))
    assert str(exc.value) == f"weight_nonnegative: negative weight -25 for levels {m.levels}"
    blocks._core_block_of.cache_clear()
    with pytest.raises(LemmaViolation, match=r"negative weight -25 for levels \(\("):
        core_block_of(((1,),), Multicharge(2, (1,)))


def test_weight_of_bad_input_is_an_input_error():
    # (1, 2) is no partition, and its counts give a negative weight: that is
    # bad input (exit 2), not a failed law (exit 1)
    with pytest.raises(InputError, match="weakly decreasing"):
        weight(((1, 2),), Multicharge(3, (0,)))


def test_a_list_changed_after_a_query_is_checked_again():
    # the checked-input memo keeps only tuples the check made or passed
    mc = Multicharge(3, (0,))
    for mp in ([[2, 1]], ([2, 1],)):
        assert hub(mp, mc) == hub(((2, 1),), mc)
        mp[0][1] = 5
        with pytest.raises(InputError, match="weakly decreasing"):
            hub(mp, mc)


def test_the_checked_inputs_and_the_walks_stay_bounded(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_all(SweepGrid(max_n=3, levels=(1, 2), es=(2, 3), branch_n=3))
    # 2,000 distinct charges (one walk each) and fresh multipartitions
    charges = [(e, a) for e in range(2, 66) for a in range(e)][:2000]
    for k, (e, a) in enumerate(charges):
        block_containing(((k % 4 + 1,),), Multicharge(e, (a,)), Caps(max_e=65))
    assert 0 < len(multipartition._CHECKED) <= blocks.CACHE_SIZE
    assert 0 < len(blocks._WALKS) <= blocks.CACHE_SIZE


def _counted_residue_counts(monkeypatch) -> list:
    """The charges of every residue-count pass from now on."""
    calls, real = [], multipartition._residue_counts

    def counted(mp, charge):
        calls.append(charge)
        return real(mp, charge)

    monkeypatch.setattr(multipartition, "_residue_counts", counted)
    return calls


def _from_scratch(mp, mc: Multicharge) -> tuple:
    """Weight and hub of mp with no memo: one residue pass and the hub matrix's rows."""
    c = multipartition._residue_counts(mp, mc)
    return blocks._counts_weight(c, mc.kappa, mp), tuple(map(sum, zip(*blocks._hub_matrix(mp, mc))))


def test_point_queries_on_one_held_tuple_make_one_residue_pass(monkeypatch):
    blocks._core_block_of.cache_clear()
    mp, mc = tuple(map(tuple, [[7, 5, 5, 2], [3, 3], [4, 1]])), Multicharge(4, (0, -3, 5))
    mc2 = Multicharge(3, (1, 7, -4))
    want, want2 = _from_scratch(mp, mc), _from_scratch(mp, mc2)
    assert want != want2
    calls = _counted_residue_counts(monkeypatch)
    residue_multiset(mp, mc)
    assert (weight(mp, mc), hub(mp, mc)) == want
    k_value(core_block_of(mp, mc).core_multicore, 1)
    scopes_condition(mp, mc, 1)
    assert calls == [mc]
    # a second charge gets its own counts, and the first keeps its own
    assert (weight(mp, mc2), hub(mp, mc2)) == want2
    assert (weight(mp, mc), hub(mp, mc)) == want
    assert calls == [mc, mc2]
    assert set(multipartition._CHECKED[id(mp)][1]) == {mc, mc2}


def test_the_checked_input_memo_keeps_no_list(monkeypatch):
    monkeypatch.setattr(multipartition, "_CHECKED", {})
    mc = Multicharge(3, (0, 1))
    want = (weight(((2, 1), (1,)), mc), hub(((2, 1), (1,)), mc))
    for mp in ([[2, 1], [1]], ([2, 1], [1]), [(2, 1), (1,)]):
        assert (weight(mp, mc), hub(mp, mc), residue_counts(mp, mc)) == (*want, (1, 2, 1))
    for held, kept in multipartition._CHECKED.values():
        assert type(held) is tuple and all(type(part) is tuple for part in held)
        assert all(type(c) is tuple for c in kept.values())


def test_kept_counts_never_reach_a_tuple_that_reuses_an_id(monkeypatch):
    # each clear drops the held tuples, and later tuples are built where
    # they lived: no kept counts may carry over
    monkeypatch.setattr(multipartition, "_CHECKED", {})
    rng = random.Random(3003)
    recent, seen, reused, clears, held = [], set(), 0, 0, 0
    for k in range(5_000):
        r = rng.randint(1, 3)
        mp = tuple(
            tuple(sorted((rng.randint(1, 9) for _ in range(rng.randint(0, 4))), reverse=True)) for _ in range(r)
        )
        mc = Multicharge(rng.choice((2, 3)), (0, 4, -1)[:r])  # few charges, so a reused id meets its old one
        reused += id(mp) in seen
        seen.add(id(mp))
        recent = [*recent[-2:], (mp, mc, _from_scratch(mp, mc))]
        first, second = (weight, hub) if k % 2 else (hub, weight)
        for (old, old_mc, (w, h)), query in ((recent[-1], first), (recent[0], second), (recent[-1], second)):
            assert query(old, old_mc) == (w if query is weight else h), (k, old, old_mc)
        clears += len(multipartition._CHECKED) < held
        held = len(multipartition._CHECKED)
    assert clears >= 2 and reused > 0, (clears, reused)


def _kept_total() -> int:
    return sum(len(kept) for _, kept in multipartition._CHECKED.values())


# the traced bytes a stream of distinct tuples at distinct charges may add (README, next to CACHE_SIZE)
CHECKED_BUDGET_MB = 2


def test_a_hostile_stream_keeps_the_checked_memo_bounded(monkeypatch):
    """1,024 tuples queried at 1,024 charges each: every query keeps new
    counts, and the memo never holds more than CACHE_SIZE tuples or
    CACHE_SIZE counts in all.  The same kind of stream at 64 charges per
    tuple, under tracemalloc, ends in the same full memo and stays under
    CHECKED_BUDGET_MB; tracing the full stream takes about 20 s (2 vCPUs,
    Python 3.11)."""
    monkeypatch.setattr(multipartition, "_CHECKED", {})
    monkeypatch.setattr(multipartition, "_KEPT", 0)
    charges = [Multicharge(e, (a,)) for e in range(2, 47) for a in range(e)][:1024]
    shapes = [p for n in range(1, 20) for p in akblocks.partitions_of(n)][:1024]
    assert len(charges) == len(shapes) == 1024
    for p in shapes:
        mp = (p,)
        for mc in charges:
            residue_counts(mp, mc)
        assert len(multipartition._CHECKED) <= blocks.CACHE_SIZE and _kept_total() <= blocks.CACHE_SIZE
    assert _kept_total() == multipartition._KEPT > 0
    monkeypatch.setattr(multipartition, "_CHECKED", {})
    monkeypatch.setattr(multipartition, "_KEPT", 0)
    tracemalloc.start()
    try:
        for p in shapes:
            mp = (p,)
            for mc in charges[:64]:
                residue_counts(mp, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(multipartition._CHECKED) == blocks.CACHE_SIZE and _kept_total() == blocks.CACHE_SIZE
    assert peak < CHECKED_BUDGET_MB * 2**20, peak


_OPTIMISED_CHECKS = """
import akblocks.blocks as blocks
import akblocks.multipartition as multipartition
from akblocks import LemmaViolation, Multicharge, core_block_of, weight

assert False, "this script must run under python -O"
mc = Multicharge(2, (0,))
anchors = []
multipartition._residue_counts = lambda mp, charge: (5, 0)
try:
    weight(((1,),), mc)
except LemmaViolation as exc:
    anchors.append(exc.lemma)
blocks._weight = lambda mp, charge: 0
try:
    core_block_of(((3, 1),), mc)
except LemmaViolation as exc:
    anchors.append(exc.lemma)
from akblocks.abacus import BetaSet, partition_of
try:
    partition_of(BetaSet._trusted(0, frozenset({-1, -2, 3})))
except LemmaViolation as exc:
    anchors.append(exc.lemma)
print(",".join(anchors))
"""


def test_load_bearing_checks_survive_optimised_mode():
    src = Path(akblocks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_CHECKS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["weight_nonnegative,weight_core_law,beta_bead_balance"]


def test_exchange_search_is_bounded(monkeypatch, capsys):
    # ((1,), (1,), (1,)) needs the breadth-first phase: no exchange of gamma
    # difference >= 3 leads from its multicore into a core block
    mc = Multicharge(3, (1, 0, 2))
    mp = ((1,), (1,), (1,))
    monkeypatch.setattr(blocks, "SEARCH_STATES", 1)
    for cached in (blocks._core_block_of,):
        cached.cache_clear()
    with pytest.raises(CapExceeded, match="visited over 1 states"):
        core_block_of(mp, mc)
    assert main(["core-block", "--e", "3", "--charge", "1,0,2", "--lambda", "[[1],[1],[1]]"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exchange search" in err and "Traceback" not in err
    monkeypatch.undo()
    assert core_block_of(mp, mc).core_multicore
