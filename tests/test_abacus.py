import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import akblocks
from akblocks import (
    AbacusDisplay,
    BetaSet,
    InputError,
    Multicharge,
    Multicore,
    as_partition,
    beta_set,
    block_containing,
    block_of,
    blocks,
    branching_polynomial,
    core_block_of,
    d_min,
    delta_ij,
    gamma,
    gamma_diff,
    has_forbidden_config,
    hub,
    is_core_block,
    is_kleshchev,
    multipartition,
    order_degree,
    parse_abacus,
    partition_of,
    partitions_of,
    phi,
    phi_beta_set,
    render,
    residue_counts,
    residue_multiset,
    s_move,
    same_block,
    scopes,
    scopes_condition,
    to_multicore,
    weight,
)
from akblocks.abacus import _beta_from_beads


# --- beta sets ------------------------------------------------------------


def test_beta_set_of_empty_is_vacuum():
    bs = beta_set((), 3)
    assert bs.delta == frozenset()
    assert 2 in bs and 3 not in bs and -10 in bs


def test_every_charge_check_takes_the_same_integers():
    # a beta-set's charge is checked by one rule: any int but a bool, as a
    # multicharge's entries are
    class Charge(IntEnum):
        THREE = 3

    drawn = AbacusDisplay.from_multipartition(((1,),), Multicharge(3, (Charge.THREE,)))
    assert drawn == AbacusDisplay.from_multipartition(((1,),), Multicharge(3, (3,)))
    assert beta_set((2, 1), Charge.THREE) == BetaSet(Charge.THREE, beta_set((2, 1), 3).delta)
    for bad in (True, 1.0, "3"):
        for check in (lambda: beta_set((1,), bad), lambda: BetaSet(bad, frozenset())):
            with pytest.raises(InputError, match=f"charge must be an integer, got {bad!r}"):
                check()


def test_beta_positions_follow_first_column_hooks():
    # lam_k + a - k for lam=(3,1,1), a=0: {2, -1, -2} replacing {-1,-2,-3}
    bs = beta_set((3, 1, 1), 0)
    assert 2 in bs and -1 in bs and -2 in bs
    assert -3 not in bs and 0 not in bs and 1 not in bs


def test_beta_balance_invariant_rejected():
    with pytest.raises(InputError):
        BetaSet(0, frozenset({5}))  # adds a bead without removing one


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=7),
    st.integers(min_value=-6, max_value=6),
)
def test_beta_roundtrip(parts, charge):
    p = as_partition(sorted(parts, reverse=True))
    q, c = partition_of(beta_set(p, charge))
    assert (q, c) == (p, charge)


def test_section_fixture_beta_sets():
    """Three components at charges -1, 0, 1: the finite windows of the
    bead positions for ((1), (), (1,1))."""
    mc = Multicharge(4, (-1, 0, 1))
    mp = ((1,), (), (1, 1))
    b1 = beta_set(mp[0], -1)
    b2 = beta_set(mp[1], 0)
    b3 = beta_set(mp[2], 1)
    assert b1.beads_down_to(-4) == [-1, -3, -4]
    assert b2.beads_down_to(-4) == [-1, -2, -3, -4]
    assert b3.beads_down_to(-4) == [1, 0, -2, -3, -4]
    disp = AbacusDisplay.from_multipartition(mp, mc)
    assert tuple(disp.lowest_level(i, 3) for i in range(4)) == (0, 0, -1, -2)


# Each component row is no partition; the last row has two components
# against a one-component charge.  ((True,),) equals and hashes as ((1,),).
_BAD_COMPONENTS = [((1, 2),), ((-1,),), ((True,),), ((1.5,),), (("1",),)]
_OUTSIDE = [*_BAD_COMPONENTS, ((1,), ())]
# every entry that takes a multipartition and a charge
_ON_MULTIPARTITIONS = {
    "phi": lambda mp, mc: phi(mp, mc, 0),
    "to_multicore": to_multicore,
    "from_multipartition": AbacusDisplay.from_multipartition,
    "has_forbidden_config": lambda mp, mc: has_forbidden_config(mp, mc, 0),
    "residue_counts": residue_counts,
    "residue_multiset": residue_multiset,
    "weight": weight,
    "hub": hub,
    "delta_ij": lambda mp, mc: delta_ij(mp, mc, 0, 1),
    "d_min": lambda mp, mc: d_min(mp, mc, 0),
    "same_block_left": lambda mp, mc: same_block(mp, ((1,),), mc),
    "same_block_right": lambda mp, mc: same_block(((1,),), mp, mc),
    "block_of": block_of,
    "block_containing": block_containing,
    "core_block_of": core_block_of,
    "is_core_block": is_core_block,
    "scopes_condition": lambda mp, mc: scopes_condition(mp, mc, 0),
    "is_kleshchev": is_kleshchev,
    "branching_polynomial": lambda mp, mc: branching_polynomial(mp, mc, 0),
    "order_degree": lambda mp, mc: order_degree(mp, mc, 0, (1,)),
}


@pytest.mark.parametrize(
    "fn, mp",
    [
        pytest.param(fn, mp, id=f"{name}{mp}")
        for name, fn in _ON_MULTIPARTITIONS.items()
        for mp in _OUTSIDE
    ]
    + [
        pytest.param(lambda mp, mc: beta_set(mp[0], 0), mp, id=f"beta_set{mp}")
        for mp in _BAD_COMPONENTS
    ],
)
def test_outside_input_is_rejected(fn, mp):
    # with cold caches, and again once the caches keyed by multipartitions
    # hold ((1,),), which ((True,),) equals
    mc = Multicharge(3, (0,))
    blocks._core_block_of.cache_clear()
    scopes._is_kleshchev.cache_clear()
    multipartition._CHECKED.clear()
    with pytest.raises(InputError):
        fn(mp, mc)
    core_block_of(((1,),), mc)
    is_kleshchev(((1,),), mc)
    with pytest.raises(InputError):
        fn(mp, mc)


_OPTIMISED_REJECTS = """
from akblocks import InputError, Multicharge, core_block_of, hub

assert False, "this script must run under python -O"
mc = Multicharge(3, (0,))
core_block_of(((1,),), mc)
for query in (hub, core_block_of):
    for mp in ROWS:
        try:
            query(mp, mc)
        except InputError:
            print("rejected")
"""


def test_outside_input_is_rejected_in_optimised_mode():
    # python -O strips assert statements: the multipartition check must raise
    src = Path(akblocks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = _OPTIMISED_REJECTS.replace("ROWS", repr(_OUTSIDE))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"] * (2 * len(_OUTSIDE))


# --- displays ---------------------------------------------------------------


def test_display_roundtrip_and_level_matrix():
    mc = Multicharge(3, (2, 0))
    mp = ((4, 2), (1, 1))
    disp = AbacusDisplay.from_multipartition(mp, mc)
    assert disp.to_multipartition() == mp
    # lowest bead per runner: beads ..., -1, 2, 5 and ..., -5, -3, -1, 0
    levels = [[disp.lowest_level(i, j) for i in range(3)] for j in (1, 2)]
    assert levels == [[-1, -1, 1], [0, -2, -1]]


def test_display_json_roundtrip():
    # each JSON component rebuilds through the bead decoder parse_abacus uses
    mc = Multicharge(4, (1, 0, 2))
    disp = AbacusDisplay.from_multipartition(((1, 1), (2,), (2, 1)), mc)
    obj = disp.to_json()
    comps = tuple(
        _beta_from_beads(c["charge"], c["cutoff"], set(c["beads_above_cutoff"])) for c in obj["components"]
    )
    assert AbacusDisplay(obj["e"], comps) == disp


def test_render_and_parse_roundtrip():
    mc = Multicharge(3, (7,))
    disp = AbacusDisplay.from_multipartition(((7, 5, 5, 4, 3, 2, 1),), mc)
    text = render(disp)
    back = parse_abacus(text)
    assert back == disp
    assert back.to_multipartition() == ((7, 5, 5, 4, 3, 2, 1),)


def test_render_window_must_cover_content():
    mc = Multicharge(3, (0,))
    disp = AbacusDisplay.from_multipartition(((6, 3, 1),), mc)
    with pytest.raises(InputError):
        render(disp, window=(0, 1))


def test_render_window_may_not_reach_far_past_content():
    disp = AbacusDisplay.from_multipartition(((1,),), Multicharge(2, (0,)))
    assert render(disp, window=(-102, 101)).count("\n") == 2 + 204
    for window in ((-103, 1), (-1, 102), (-200000, 200000)):
        with pytest.raises(InputError, match="levels past"):
            render(disp, window=window)


def test_parse_rejects_imbalanced_drawing():
    mc = Multicharge(2, (0,))
    text = render(AbacusDisplay.from_multipartition(((2,),), mc))
    # claim a different charge than the beads show
    mangled = text.replace("charges=0", "charges=1")
    with pytest.raises(InputError):
        parse_abacus(mangled)


def test_is_multicore():
    mc = Multicharge(2, (0,))
    assert not AbacusDisplay.from_multipartition(((2,),), mc).is_multicore()
    assert AbacusDisplay.from_multipartition(((1,),), mc).is_multicore()


# --- multicores and bead exchanges -----------------------------------------


def test_to_multicore_strips_hooks():
    mc = Multicharge(2, (0,))
    core, hooks = to_multicore(((3, 1),), mc)
    assert hooks == 2
    assert core.to_multipartition() == ((),)


def test_multicore_charges_recovered():
    mc = Multicharge(5, (0, -2, 1))
    m, hooks = to_multicore(((4, 3, 1), (4, 2, 2, 2), (3, 2)), mc)
    assert hooks == 0
    assert m.charges == (0, -2, 1)
    assert m.to_multipartition() == ((4, 3, 1), (4, 2, 2, 2), (3, 2))


def test_s_move_rejects_identity_shapes():
    m = Multicore(3, ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(InputError):
        s_move(m, 1, 1, 1, 2)
    with pytest.raises(InputError):
        s_move(m, 0, 1, 1, 1)
    with pytest.raises(InputError):
        s_move(m, 0, 1, 1, 3)


def test_s_move_shifts_levels():
    m = Multicore(3, ((1, 0, 0), (0, 0, 2)))
    out = s_move(m, 0, 2, 1, 2)
    assert out.levels == ((0, 0, 1), (1, 0, 1))
    assert gamma(m, 0, 1, 2) == 1
    assert gamma_diff(m, 0, 2, 1, 2) == gamma(m, 0, 1, 2) - gamma(m, 2, 1, 2)


# --- runner swaps -----------------------------------------------------------


def test_phi_on_charged_row():
    mc = Multicharge(3, (7,))
    lam = ((7, 5, 5, 4, 3, 2, 1),)
    assert phi(lam, mc, 1) == ((6, 5, 5, 3, 3, 3),)
    assert phi(lam, mc, 0) == ((7, 5, 4, 4, 4, 1, 1, 1),)


def test_phi_beta_matches_partition_route():
    for e in (2, 3, 4):
        for charge in (-1, 0, 2):
            for n in range(6):
                for p in partitions_of(n):
                    for i in range(e):
                        via_beta = phi_beta_set(beta_set(p, charge), i, e)
                        img = phi((p,), Multicharge(e, (charge,)), i)
                        assert via_beta == beta_set(img[0], charge)


def test_phi_is_involution_spot():
    mc = Multicharge(4, (1, 0, 2))
    lam = ((1, 1), (2,), (2, 1))
    for i in range(4):
        assert phi(phi(lam, mc, i), mc, i) == lam


def test_forbidden_config_examples():
    # a bead with an empty slot right after it on the wrap-around runner
    mc = Multicharge(2, (0,))
    assert has_forbidden_config(((2,),), mc, 0) or has_forbidden_config(
        ((2,),), mc, 1
    )
    # the empty multipartition never shows the pattern for i != 0
    assert not has_forbidden_config(((),), mc, 1)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda m: s_move(m, 0, 3, 1, 2), id="s_move runner past e"),
        pytest.param(lambda m: s_move(m, -1, 0, 1, 2), id="s_move negative runner"),
        pytest.param(lambda m: s_move(m, 0, 1, 0, 2), id="s_move component 0"),
        pytest.param(lambda m: s_move(m, 0, 1, 1, 3), id="s_move component past r"),
        pytest.param(lambda m: s_move(m, 0, 1.0, 1, 2), id="s_move float runner"),
        pytest.param(lambda m: s_move(m, 0, 1, 1, 2.0), id="s_move float component"),
        pytest.param(lambda m: Multicore(3, ((0, 0, 0.5), (0, 0, 0))), id="Multicore float level"),
        pytest.param(lambda m: Multicore(3, ((0, 0, "1"), (0, 0, 0))), id="Multicore str level"),
        pytest.param(lambda m: Multicore(3, ((0, 0), (0, 0, 0))), id="Multicore short row"),
        pytest.param(lambda m: Multicore(1, ((0,),)), id="Multicore e=1"),
        pytest.param(lambda m: to_multicore(((1.5,),), Multicharge(3, (0,))), id="to_multicore float part"),
    ],
)
def test_built_multicores_keep_outside_checks(build):
    # the program builds its own multicores unchecked; what callers pass in
    # is still checked
    m = Multicore(3, ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(InputError):
        build(m)


_M = Multicore(3, ((1, 0, 0), (0, 0, 0)))
_VACUUM = AbacusDisplay.from_multipartition(((),), Multicharge(3, (0,)))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: BetaSet(True, frozenset()), id="BetaSet bool charge"),
        pytest.param(lambda: BetaSet(0, frozenset({True, -1})), id="BetaSet bool in delta"),
        pytest.param(lambda: beta_set((1,), True), id="beta_set bool charge"),
        pytest.param(lambda: beta_set((1,), 1.0), id="beta_set float charge"),
        pytest.param(lambda: _VACUUM.lowest_level(True, 1), id="lowest_level bool runner"),
        pytest.param(lambda: _VACUUM.lowest_level(0, True), id="lowest_level bool component"),
        pytest.param(lambda: Multicore(3, ((True, 0, 0),)), id="Multicore bool level"),
        pytest.param(lambda: s_move(_M, True, 0, 1, 2), id="s_move bool runner"),
        pytest.param(lambda: s_move(_M, 0, 1, True, 2), id="s_move bool component"),
        pytest.param(lambda: gamma(_M, True, 1, 2), id="gamma bool runner"),
        pytest.param(lambda: gamma(_M, 0.5, 1, 2), id="gamma float runner"),
        pytest.param(lambda: gamma(_M, 0, True, 2), id="gamma bool component"),
        pytest.param(lambda: phi(((1,),), Multicharge(3, (0,)), True), id="phi bool residue"),
        pytest.param(
            lambda: has_forbidden_config(((1,),), Multicharge(3, (0,)), True), id="forbidden bool residue"
        ),
        pytest.param(lambda: render(_VACUUM, (False, True)), id="render bool window"),
        pytest.param(lambda: render(_VACUUM, (1,)), id="render one-level window"),
        pytest.param(lambda: render(_VACUUM, (1, 2, 3)), id="render three-level window"),
        pytest.param(lambda: render(_VACUUM, 5), id="render int window"),
    ],
)
def test_abacus_entry_points_reject_values_that_only_look_like_integers(build):
    # JSON true and 1.0 must not pass as integers, and a bad field is an
    # InputError, not a TypeError from deeper down
    with pytest.raises(InputError):
        build()
