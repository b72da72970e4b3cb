"""Acceptance gate: twelve criteria, one test (= one pass/fail line) each.

Heavy sweeps shared by several criteria run once and are cached at module
scope.  Criteria with stated wall-clock bounds assert them.
"""

import time
from functools import lru_cache
from pathlib import Path

from akblocks import (
    AbacusDisplay,
    BetaSet,
    Multicharge,
    base_tuples,
    beta_set,
    degree_spectrum,
    is_core_block,
    k_value,
    multipartitions_of,
    partition_of,
    residue_multiset,
    same_block,
    size,
    to_multicore,
    weight,
    witness_offsets,
)
from akblocks.cli import main
from akblocks.verify import (
    DEFAULT_GRID,
    SweepGrid,
    check_branching,
    check_core_blocks,
    check_d_bounds,
    check_mahonian,
    check_scopes_maps,
    check_smoves,
    check_weights,
)

EXK_MC = Multicharge(5, (0, -2, 1))
EXK = ((4, 3, 1), (4, 2, 2, 2), (3, 2))


def _by_lemma(results):
    return {r.lemma: r for r in results}


def _assert_all_ok(results, wanted):
    table = _by_lemma(results)
    for name in wanted:
        res = table[name]
        assert res.ok, f"{name}: {res.violations[:1]}"
        assert res.instances > 0, f"{name} never ran"


@lru_cache(maxsize=None)
def _branching_results():
    return check_branching(DEFAULT_GRID)


@lru_cache(maxsize=None)
def _scopes_results():
    return check_scopes_maps(DEFAULT_GRID)


def test_c01_residue_reproduction():
    t0 = time.monotonic()
    mc = Multicharge(4, (1, 0, 2))
    a = ((1, 1), (2,), (2, 1))
    b = ((1,), (2, 1), (1, 1, 1))
    assert residue_multiset(a, mc) == (0, 0, 1, 1, 1, 2, 3)
    assert residue_multiset(b, mc) == (0, 0, 1, 1, 1, 2, 3)
    assert same_block(a, b, mc)
    assert time.monotonic() - t0 < 1.0


def test_c02_component_beta_sets():
    mp = ((1,), (), (1, 1))
    assert beta_set(mp[0], -1).beads_down_to(-4) == [-1, -3, -4]
    assert beta_set(mp[1], 0).beads_down_to(-4) == [-1, -2, -3, -4]
    assert beta_set(mp[2], 1).beads_down_to(-4) == [1, 0, -2, -3, -4]
    disp = AbacusDisplay.from_multipartition(mp, Multicharge(4, (-1, 0, 1)))
    assert disp.to_multipartition() == mp


def test_c03_k_invariants_and_base_tuples():
    t0 = time.monotonic()
    m, hooks = to_multicore(EXK, EXK_MC)
    assert hooks == 0 and is_core_block(m)
    assert witness_offsets(m) == ((0, 0, -1), (0, 0, 0))
    assert k_value(m, 0) == -1
    assert k_value(m, 1) == 1
    assert k_value(m, 3) == 0
    tuples = base_tuples(m)
    assert len(tuples) == 2
    first, second = tuples
    assert [i for i in range(5) if first[i] != second[i]] == [1]
    assert abs(first[1] - second[1]) == 1
    assert time.monotonic() - t0 < 1.0


def _every_single_hook_slide_drops_weight_by_r(mc, max_n):
    """Slide one bead up one runner-step wherever possible; the weight
    must drop by exactly r each time.  Returns the number of slides."""
    checked = 0
    for n in range(max_n + 1):
        for mp in multipartitions_of(n, mc.r):
            w = weight(mp, mc)
            for j in range(1, mc.r + 1):
                bs = beta_set(mp[j - 1], mc.entries[j - 1])
                for p in range(bs.min_gap(), bs.max_bead() + 1):
                    if p in bs and (p - mc.e) not in bs:
                        slid = BetaSet(
                            bs.charge, bs.delta ^ frozenset({p, p - mc.e})
                        )
                        comp, _ = partition_of(slid)
                        smaller = mp[: j - 1] + (comp,) + mp[j:]
                        assert weight(smaller, mc) == w - mc.r, (mp, j, p)
                        checked += 1
    return checked


def test_c04_weight_laws():
    t0 = time.monotonic()
    grid = SweepGrid(max_n=7, levels=(1, 2, 3), es=(2, 3, 4), branch_n=7, oracle_n=7)
    _assert_all_ok(
        check_weights(grid),
        ["weight_core_law", "same_hub_weight_law", "classical_e_weight"],
    )
    slides = 0
    for mc in grid.cells():
        slides += _every_single_hook_slide_drops_weight_by_r(mc, 7)
    assert slides > 1000  # the sweep actually covered the grid
    assert time.monotonic() - t0 < 120.0


def test_c05_bead_exchange_laws():
    _assert_all_ok(
        check_smoves(DEFAULT_GRID),
        ["hub_invariance", "weight_move_formula", "smove_symmetry", "smove_inverse"],
    )


def test_c06_core_block_equivalence():
    _assert_all_ok(
        check_core_blocks(DEFAULT_GRID),
        [
            "core_block_equivalence",
            "core_chain_validity",
            "base_tuple_consistency",
            "k_block_invariant",
        ],
    )


def test_c07_d_bounds():
    t0 = time.monotonic()
    results = check_d_bounds(DEFAULT_GRID)
    _assert_all_ok(
        results,
        [
            "master_d_bound",
            "d_drop_bound",
            "chain_d_bound",
            "delta_interval",
            "core_d_plus_one",
        ],
    )
    table = _by_lemma(results)
    assert table["chain_d_bound"].instances > 100  # chains really were emitted
    assert time.monotonic() - t0 < 300.0


def test_c08_no_forbidden_configuration():
    _assert_all_ok(
        _branching_results(),
        ["no_forbidden_config", "no_addable_under_condition"],
    )


def test_c09_removal_order_degrees():
    _assert_all_ok(
        _branching_results(),
        [
            "branching_degree_law",
            "branching_well_defined",
            "branching_spectrum",
            "branching_induction_spectrum",
        ],
    )


def test_c10_swap_bijections():
    _assert_all_ok(
        _scopes_results(),
        [
            "block_bijection",
            "weight_preserved",
            "lex_order_preserved",
            "kleshchev_preserved",
            "kleshchev_restricted_oracle",
        ],
    )


def test_c11_mahonian_and_palindromes():
    _assert_all_ok(
        check_mahonian(DEFAULT_GRID),
        ["mahonian_product_identity", "mahonian_symmetry"],
    )
    import math

    for delta in range(7):
        s = degree_spectrum(delta)
        assert s.is_palindromic()
        assert s.evaluate_at_one() == math.factorial(delta)


def test_c12_verify_all_default_grid(capsys):
    t0 = time.monotonic()
    code = main(["verify-all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out
    assert time.monotonic() - t0 < 600.0
    # the same 49 lemmas with the same instance counts as the golden run
    assert out == (Path(__file__).with_name("golden") / "verify_all.txt").read_text()
