import pytest
from hypothesis import given, strategies as st

from akblocks import (
    AbacusDisplay,
    BetaSet,
    InputError,
    Multicharge,
    Multicore,
    as_multicore,
    as_partition,
    beta_set,
    gamma,
    gamma_diff,
    has_forbidden_config,
    parse_abacus,
    partition_of,
    partitions_of,
    phi,
    phi_beta_set,
    render,
    s_move,
    to_multicore,
)


# --- beta sets ------------------------------------------------------------


def test_beta_set_of_empty_is_vacuum():
    bs = beta_set((), 3)
    assert bs.delta == frozenset()
    assert 2 in bs and 3 not in bs and -10 in bs


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


_BAD_COMPONENTS = [((1, 2),), ((-1,),)]
_ON_MULTIPARTITIONS = {
    "phi": lambda mp, mc: phi(mp, mc, 0),
    "to_multicore": to_multicore,
    "as_multicore": as_multicore,
    "has_forbidden_config": lambda mp, mc: has_forbidden_config(mp, mc, 0),
}


@pytest.mark.parametrize(
    "fn, mp",
    [
        pytest.param(fn, mp, id=f"{name}{mp}")
        for name, fn in _ON_MULTIPARTITIONS.items()
        for mp in (*_BAD_COMPONENTS, ((1,), ()))
    ]
    + [
        pytest.param(lambda mp, mc: beta_set(mp[0], 0), mp, id=f"beta_set{mp}")
        for mp in _BAD_COMPONENTS
    ],
)
def test_outside_input_is_rejected(fn, mp):
    with pytest.raises(InputError):
        fn(mp, Multicharge(3, (0,)))


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
    mc = Multicharge(4, (1, 0, 2))
    disp = AbacusDisplay.from_multipartition(((1, 1), (2,), (2, 1)), mc)
    assert AbacusDisplay.from_json(disp.to_json()) == disp


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


def test_as_multicore_rejects_non_core():
    mc = Multicharge(2, (0,))
    with pytest.raises(InputError):
        as_multicore(((2,),), mc)


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
