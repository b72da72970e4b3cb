"""Checks on the sweep harness itself, small enough to run in seconds."""

import hashlib
from itertools import permutations

from akblocks import branching, verify
from akblocks.multipartition import remove_node, removable_nodes, residue
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
    # built in its one walk of the grid
    sentinel = LemmaResult("sentinel", 1, ())
    monkeypatch.setattr(verify, "check_mahonian", lambda grid, cells=None: [sentinel])
    calls, real = [], verify.check_enumeration
    monkeypatch.setattr(verify, "check_enumeration", lambda grid, cells: calls.append(cells) or real(grid, cells))
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
    assert len(calls) == 1 and [cell.charge for cell in calls[0]] == list(cells_of(grid)) and len(calls[0]) == 6
    assert {res.lemma: res.instances for res in results}["block_partition_complete"] == 6 * 2


def test_every_lemma_meets_its_instances_in_the_pinned_order(monkeypatch):
    # with every instance failing and every violation kept, the output lists
    # each lemma's instances in the order the lemma met them; the digest,
    # taken when every sweep walked the grid on its own, pins that order
    real = verify._Recorder.count
    monkeypatch.setattr(verify._Recorder, "count", lambda self, ok, *text: real(self, False, *text))
    monkeypatch.setattr(verify._Recorder, "KEEP", float("inf"))
    text = format_results(run_all(SweepGrid(max_n=2, levels=(1, 2, 3), es=(2, 3), branch_n=3)))
    assert len(text.splitlines()) == 9842
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "693ad45575a721de1135d17438082fe140df3f64c4d7cf79cdff27cc67e2abd0"
    )


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
    real = verify.phi
    monkeypatch.setattr(
        verify, "phi",
        lambda mp, charge, k: real(mp, charge, (k + 1) % charge.e if (mp, k) == (target, i) else k),
    )
    results = {res.lemma: res for res in verify.check_phi(grid)}
    law = results["phi_beta_image"]
    assert law.violations == tuple(f"beta image mismatch for {target} at i={i}" for _ in grid.cells())
    monkeypatch.undo()
    assert all(res.ok for res in verify.check_phi(grid))
