"""Checks on the sweep harness itself, small enough to run in seconds."""

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
from itertools import permutations
from pathlib import Path

import pytest

from akblocks import abacus, blocks, branching, multipartition, verify
from akblocks.cli import main
from akblocks.errors import LemmaViolation
from akblocks.multipartition import as_partition, remove_node, removable_nodes, residue, size
from akblocks.verify import (
    LemmaResult,
    SweepGrid,
    _classical_e_weight,
    check_mahonian,
    format_results,
    results_to_json,
    run_all,
)


def test_grid_charges_pinned():
    g = SweepGrid()
    assert g.charges(1, 3) == ((0,),)
    assert g.charges(2, 3) == ((0, 0), (0, 1))
    assert g.charges(3, 2) == ((0, 0, 0), (1, 0, 0))
    assert g.charges(3, 4) == ((0, 0, 0), (1, 0, 2))


def test_classical_stripper_hand_cases():
    assert _classical_e_weight((2,), 2) == 1
    assert _classical_e_weight((1, 1), 2) == 1
    assert _classical_e_weight((2, 1), 2) == 0  # hooks 3,1,1: a 2-core
    assert _classical_e_weight((2, 2), 2) == 2
    assert _classical_e_weight((3, 1), 3) == 0  # hooks 4,2,1,1: a 3-core
    assert _classical_e_weight((4, 1), 3) == 1
    assert _classical_e_weight((1,), 2) == 0
    assert _classical_e_weight((), 5) == 0


def test_result_flags_and_rendering():
    ok = LemmaResult("alpha", 10, ())
    bad = LemmaResult("beta", 3, ("first detail",))
    assert ok.ok and not bad.ok
    text = format_results([ok, bad])
    assert "alpha" in text and "FAIL" in text and "first detail" in text
    assert text.endswith("1 failed\n")


def test_results_json_shape():
    grid = SweepGrid(max_n=2, levels=(1,), es=(2,), branch_n=2)
    results = run_all(grid)
    payload = results_to_json(results, grid)
    assert payload["schema"] == 1
    assert payload["grid"]["max_n"] == 2
    assert {row["lemma"] for row in payload["results"]} >= {
        "beta_roundtrip",
        "hub_sum_law",
        "block_bijection",
    }
    assert all(row["ok"] for row in payload["results"])


def test_mahonian_sweep_alone():
    for res in check_mahonian(SweepGrid()):
        assert res.ok and res.instances == 9


TINY = SweepGrid(max_n=1, levels=(1,), es=(2,), branch_n=1)


def _declared() -> list:
    return [lemma for lemmas in verify._SWEEPS.values() for lemma in lemmas]


def test_every_anchor_declared_once_and_reported_in_order():
    anchors = _declared()
    assert len(anchors) == len(set(anchors)) == 49
    assert list(verify._SWEEPS) == [name for name in vars(verify) if name.startswith("check_")]
    assert [res.lemma for res in run_all(TINY)] == anchors


def test_run_all_looks_sweeps_up_by_name_when_it_runs(monkeypatch):
    # akbench's tracer wraps the module attributes and records one span per
    # sweep; run_all must call each once, a cell sweep with the cells it
    # built in its one walk of the grid and a reader per forked worker
    _cpus(monkeypatch, 2)
    sentinel = LemmaResult("sentinel", 1, ())
    monkeypatch.setattr(verify, "check_mahonian", lambda grid, cells=None, readers=(): [sentinel])
    calls, real = [], verify.check_enumeration
    monkeypatch.setattr(verify, "check_enumeration", lambda grid, *run: calls.append(run) or real(grid, *run))
    walks, cells_of = [], SweepGrid.cells
    monkeypatch.setattr(SweepGrid, "cells", lambda grid: walks.append(grid) or cells_of(grid))
    before = list(verify._SWEEPS).index("check_mahonian")
    at = sum(len(lemmas) for lemmas in list(verify._SWEEPS.values())[:before])
    expected = _declared()
    expected[at : at + len(verify._SWEEPS["check_mahonian"])] = ["sentinel"]
    grid = SweepGrid(max_n=1, levels=(1, 2), es=(2, 3), branch_n=1)
    results = run_all(grid)
    assert results[at] is sentinel
    assert [res.lemma for res in results] == expected
    assert walks == [grid]
    [(cells, readers)] = calls
    assert [cell.charge for cell in cells] == list(cells_of(grid)) and len(cells) == 6 and len(readers) == 1
    assert {res.lemma: res.instances for res in results}["block_partition_complete"] == 6 * 2


def _every_instance_failing(monkeypatch) -> str:
    real = verify._Recorder.count
    monkeypatch.setattr(verify._Recorder, "count", lambda self, ok, *text: real(self, False, *text))
    monkeypatch.setattr(verify._Recorder, "KEEP", float("inf"))
    return format_results(run_all(SweepGrid(max_n=2, levels=(1, 2, 3), es=(2, 3), branch_n=3)))


FORCED_SHA256 = "96091390fb05519361f71883ba7817cecb2aa50002665f5b654e3f363ff75055"


def test_every_lemma_meets_its_instances_in_the_pinned_order(monkeypatch):
    # with every instance failing and every violation kept, the output lists
    # each lemma's instances in the order the lemma met them; the digest,
    # taken when every sweep walked the grid on its own, pins that order
    text = _every_instance_failing(monkeypatch)
    assert len(text.splitlines()) == 9842
    assert hashlib.sha256(text.encode()).hexdigest() == FORCED_SHA256


def test_a_hub_disagreement_names_both_hubs(monkeypatch):
    # a read-off hub planted to reverse its entries still sums to -r: the
    # kept text must give both hubs, not only the sum
    real = verify._hub
    monkeypatch.setattr(verify, "_hub", lambda mp, mc: real(mp, mc)[::-1])
    _, hub_sum, _ = verify.check_residues(SweepGrid(max_n=2, levels=(1,), es=(2,)))
    assert hub_sum.violations[0] == "hub of ((),): (0, -1) read off its counts, (-1, 0) off its rows, which sum to -1"


# the grid of the golden case ``verify-all --max-n 3 --r 1,2 --e 2,3``: six cells
SMALL = SweepGrid(max_n=3, levels=(1, 2), es=(2, 3), branch_n=3)
SMALL_ARGV = ["verify-all", "--max-n", "3", "--r", "1,2", "--e", "2,3"]


def _small_golden() -> str:
    cases = json.loads((Path(__file__).with_name("golden") / "cli.json").read_text())
    return next(case["stdout"] for case in cases if case["argv"] == SMALL_ARGV)


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_output_is_the_same_at_any_process_count(monkeypatch, cpus):
    # run_all gives cell k to process k % cpus and each sweep merges what
    # the processes found in grid order, so every count, kept violation and
    # their order is the one-process output; no worker outlives its run
    _cpus(monkeypatch, cpus)
    assert format_results(run_all(SMALL)) == _small_golden()
    _no_child_left()
    text = _every_instance_failing(monkeypatch)  # ten cells: shares of 4, 3 and 3 at three processes
    assert hashlib.sha256(text.encode()).hexdigest() == FORCED_SHA256
    _no_child_left()


def _refused():
    raise OSError("fork refused")


@pytest.mark.parametrize("fork", [None, _refused], ids=["no fork", "fork fails"])
def test_without_a_working_fork_every_cell_runs_here(monkeypatch, fork):
    _cpus(monkeypatch, 2)
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    assert format_results(run_all(SMALL)) == _small_golden()
    _no_child_left()


def test_the_cpu_count_stands_in_for_a_missing_affinity(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    assert format_results(run_all(SMALL)) == _small_golden()
    assert len(forks) == 1
    _no_child_left()


def test_no_worker_is_forked_while_another_thread_runs(monkeypatch):
    # a forked worker would hold only the forking thread, and a lock another
    # thread held at that moment would stay locked in it
    _cpus(monkeypatch, 2)
    forks, fork, release = [], os.fork, threading.Event()
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert format_results(run_all(SMALL)) == _small_golden()
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive() and forks == []


@pytest.mark.parametrize("picklable", [True, False], ids=["pickled", "unpicklable"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failure_in_a_workers_cell_reaches_the_cli_unchanged(monkeypatch, capsys, cpus, picklable):
    # the grid's cells are (0,) at e=2, then (0, 0) and (0, 1) at r=2: at two
    # processes the second is the worker's and the third this process's; both
    # fail, and the first in grid order is reported whichever process ran it.
    # No exception crosses a pipe: a cell that raised sends no result, so it
    # runs again here and raises here, even one pickle cannot carry
    _cpus(monkeypatch, cpus)
    real = verify._hub

    def planted(mp, charge):
        if charge.entries != (0,) and size(mp) == 1:
            exc = LemmaViolation("planted_law", f"at charge {charge.entries}")
            if not picklable:
                exc.hook = lambda: None  # pickle cannot carry a local function
            raise exc
        return real(mp, charge)

    monkeypatch.setattr(verify, "_hub", planted)
    code = main(["verify-all", "--max-n", "2", "--r", "1,2", "--e", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "verification failed [planted_law]: at charge (0, 0)\n")
    _no_child_left()


def _blocks_listed_here(monkeypatch) -> set:
    """The charges of the cells whose blocks this process lists from now on."""
    here, parent, real = set(), os.getpid(), verify.enumerate_blocks

    def listed(n, charge, caps):
        if os.getpid() == parent:
            here.add(charge)
        return real(n, charge, caps)

    monkeypatch.setattr(verify, "enumerate_blocks", listed)
    return here


def test_a_worker_killed_mid_sweep_changes_no_result_and_is_reaped(monkeypatch):
    # the worker's cell (0, 0) runs again here, so the run is the one-process run
    grid = SweepGrid(max_n=2, levels=(1, 2), es=(2,), branch_n=2)
    _cpus(monkeypatch, 1)
    alone = run_all(grid)
    _cpus(monkeypatch, 2)
    parent, real = os.getpid(), verify._hub

    def planted(mp, charge):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(mp, charge)

    monkeypatch.setattr(verify, "_hub", planted)
    here = _blocks_listed_here(monkeypatch)
    assert run_all(grid) == alone
    assert here == set(grid.cells())
    _no_child_left()


def test_a_message_cut_short_reads_as_no_results(monkeypatch):
    # the worker sends its first message whole and half of its second, then
    # dies: the second and every later sweep run its cells here
    _cpus(monkeypatch, 2)
    parent, sent, real = os.getpid(), [], pickle.dumps

    def planted(obj):
        if os.getpid() != parent:
            if len(sent) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            data = real(obj)
            sent.append(data)
            return data[: len(data) // 2] if len(sent) == 2 else data
        return real(obj)

    monkeypatch.setattr(pickle, "dumps", planted)
    assert format_results(run_all(SMALL)) == _small_golden()
    _no_child_left()


def test_a_fork_that_fails_after_the_first_runs_only_its_cells_here(monkeypatch):
    # at three processes, cells 1 and 4 go to the one worker forked; cells 2
    # and 5, whose worker could not be forked, run here with cells 0 and 3
    _cpus(monkeypatch, 3)
    forks, fork = [], os.fork

    def once():
        if forks:
            raise OSError("fork refused")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", once)
    here = _blocks_listed_here(monkeypatch)
    assert format_results(run_all(SMALL)) == _small_golden()
    cells = list(SMALL.cells())
    assert here == {cells[k] for k in (0, 2, 3, 5)}
    _no_child_left()


_KILLED_WORKER = """
import os, signal
from akblocks import verify
from akblocks.verify import SweepGrid, format_results, run_all

os.sched_getaffinity = lambda pid: {0, 1}
parent, real = os.getpid(), verify._phi


def planted(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args)


verify._phi = planted
print(format_results(run_all(SweepGrid(max_n=3, levels=(1, 2), es=(2, 3), branch_n=3))), end="")
"""


def test_a_killed_worker_leaves_no_pipe_open():
    # every pipe end is closed on the path that runs a dead worker's cells
    # here: an unclosed file would print a ResourceWarning turned error
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(verify.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _KILLED_WORKER],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _small_golden()


def test_orders_sweep_still_catches_an_intransitive_dominance(monkeypatch):
    # check_orders reads dominates through a per-(r, n) table; a planted
    # order that drops one consequence of transitivity must still fail
    real = verify.dominates
    a, b, c = ((4,), (), ()), ((3,), (1,), ()), ((2,), (1,), (1,))
    assert real(a, b) and real(b, c) and real(a, c)
    monkeypatch.setattr(verify, "dominates", lambda x, y: (x, y) != (a, c) and real(x, y))
    grid = SweepGrid(max_n=4, levels=(3,), es=(2,))
    results = {res.lemma: res for res in verify.check_orders(grid)}
    partial = results["dominance_partial_order"]
    assert not partial.ok
    assert all(
        v.startswith(f"transitivity fails at {a},") and v.endswith(f",{c}") for v in partial.violations
    )
    monkeypatch.undo()
    assert all(res.ok for res in verify.check_orders(grid))


def test_exchange_sweep_still_checks_every_move(monkeypatch):
    # check_smoves sums each multicore's reference hub and weight from the
    # facts of its level rows, kept once per cell; a wrong reference weight
    # for a row that only an exchange reaches must still fail the move
    grid = SweepGrid(max_n=3, levels=(2,), es=(3,))
    m = next(verify._cells(grid)).multicores[0]
    (mv, _), *_ = verify._moves(m)
    target = next(row for row in verify.s_move(m, *mv).levels if row not in m.levels)
    real = verify._row_facts

    def planted(e, row):
        counts, h = real(e, row)
        # one more node of every residue, a rim e-hook: the weight grows by r
        return tuple(c + (row == target) for c in counts), h

    monkeypatch.setattr(verify, "_row_facts", planted)
    results = {res.lemma: res for res in verify.check_smoves(grid)}
    law = results["weight_move_formula"]
    assert not law.ok and f"move {mv} " in law.violations[0]
    monkeypatch.undo()
    assert all(res.ok for res in verify.check_smoves(grid))


def test_branching_sweep_still_fails_every_order_through_a_wrong_step(monkeypatch):
    # check_branching shares each (multipartition, node) step among the
    # orders of a member; a wrong degree at one step must fail the degree
    # law for every order that passes through it, and for no other
    grid = SweepGrid(max_n=3, levels=(1,), es=(2,), branch_n=6)
    mc = next(grid.cells())
    mp, i = ((3, 2, 1),), 0
    nds = [nd for nd in reversed(removable_nodes(mp)) if residue(nd, mc) == i]
    assert len(nds) == 3
    step = (remove_node(remove_node(mp, nds[0]), nds[1]), nds[2])
    real = branching._degree
    monkeypatch.setattr(
        branching, "_degree",
        lambda cur, charge, nd, sign: real(cur, charge, nd, sign) + ((cur, nd) == step and sign < 0),
    )
    monkeypatch.setattr(verify._Recorder, "KEEP", 10_000)

    def through(sigma):
        cur = mp
        for t in sigma:
            if (cur, nds[t - 1]) == step:
                return True
            cur = remove_node(cur, nds[t - 1])
        return False

    results = {res.lemma: res for res in verify.check_branching(grid)}
    law = results["branching_degree_law"]
    failed = {v.split(" on ")[0] for v in law.violations}
    assert failed == {f"order {sigma}" for sigma in permutations((1, 2, 3)) if through(sigma)}
    assert len(failed) == 2 and all(f" on {mp} " in v for v in law.violations)
    assert results["branching_well_defined"].ok
    monkeypatch.undo()
    assert all(res.ok for res in verify.check_branching(grid))


def test_phi_sweep_still_compares_every_image_with_its_beta_sets(monkeypatch):
    # check_phi builds the source beta-sets once per multipartition; a wrong
    # runner-swap image at one (multipartition, residue) must still fail
    grid = SweepGrid(max_n=3, levels=(2,), es=(3,))
    target, i = ((2,), (1,)), 1
    real = verify._phi
    monkeypatch.setattr(
        verify, "_phi",
        lambda mp, charge, k: real(mp, charge, (k + 1) % charge.e if (mp, k) == (target, i) else k),
    )
    results = {res.lemma: res for res in verify.check_phi(grid)}
    law = results["phi_beta_image"]
    assert law.violations == tuple(f"beta image mismatch for {target} at i={i}" for _ in grid.cells())
    monkeypatch.undo()
    assert all(res.ok for res in verify.check_phi(grid))


def test_a_small_sweep_stays_under_its_as_partition_ceiling(monkeypatch):
    # the sweeps call private kernels on the multipartitions they built, so
    # only the public entries a law is about (delta_ij, d_min, is_core_block,
    # has_forbidden_config, AbacusDisplay.from_multipartition, is_kleshchev)
    # check theirs; the rest of as_partition's calls are check_beta's beta_set
    calls = {"checked": 0, "beta_set": 0}

    def counted(name):
        def wrapper(parts):
            calls[name] += 1
            return as_partition(parts)
        return wrapper

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(multipartition, "as_partition", counted("checked"))
    monkeypatch.setattr(abacus, "as_partition", counted("beta_set"))
    for obj in vars(blocks).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    blocks._WALKS.clear()
    multipartition._CHECKED.clear()
    run_all(SweepGrid(max_n=4, branch_n=4))
    assert calls["checked"] <= 2_422 and calls["beta_set"] <= 872, calls
