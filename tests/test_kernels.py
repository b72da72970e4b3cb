"""The row-wise kernels against independent references.

The residue and hub references in ``akblocks.verify`` visit every node (or
every removable and addable node) one by one; the kernels read the same
data off the rows.  The beta-number codec (``phi``, ``to_multicore``,
``Multicore.to_multipartition``) is checked against the beta-set route
(``beta_set``, ``phi_beta_set``, ``partition_of``, ``AbacusDisplay``), the
weight, and rim-hook stripping straight off the diagram.
"""

import random

import pytest

from akblocks import (
    AbacusDisplay,
    InputError,
    Multicharge,
    beta_set,
    d_min,
    delta_ij,
    hub,
    multipartitions_of,
    partition_of,
    phi,
    phi_beta_set,
    residue_counts,
    residue_multiset,
    to_multicore,
    weight,
)
from akblocks.verify import _classical_e_weight, _node_hub_matrix, _node_residue_counts


def _charges(r: int):
    """Seven charges per level that put every value of -3..3 in every component."""
    return [tuple((k + 3 * j) % 7 - 3 for j in range(r)) for k in range(7)]


def _assert_kernels_match(mp, mc: Multicharge) -> None:
    counts = _node_residue_counts(mp, mc)
    matrix = _node_hub_matrix(mp, mc)
    assert residue_counts(mp, mc) == counts
    assert residue_multiset(mp, mc) == tuple(
        k for k, c in enumerate(counts) for _ in range(c)
    )
    assert hub(mp, mc) == tuple(map(sum, zip(*matrix)))
    for i in range(mc.e):
        for j in range(1, mc.r + 1):
            assert delta_ij(mp, mc, i, j) == matrix[j - 1][i]
        assert d_min(mp, mc, i) == min(row[i] for row in matrix)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernels_match_node_walks_exhaustively(r):
    multis = [mp for n in range(9) for mp in multipartitions_of(n, r)]
    for e in range(2, 6):
        for charge in _charges(r):
            mc = Multicharge(e, charge)
            for mp in multis:
                _assert_kernels_match(mp, mc)


def _random_partition(rng: random.Random, m: int) -> tuple:
    if m == 0:
        return ()
    cuts = sorted(rng.sample(range(1, m), rng.randint(1, min(m, 150)) - 1))
    return tuple(sorted((b - a for a, b in zip([0, *cuts], [*cuts, m])), reverse=True))


def _random_inputs(seed: int):
    """40 seeded multipartitions of up to 10^4 nodes with r 1..3, e 2..5."""
    rng = random.Random(seed)
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(0, 10_000)
        cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
        mp = tuple(_random_partition(rng, b - a) for a, b in zip([0, *cuts], [*cuts, n]))
        yield mp, Multicharge(rng.randint(2, 5), tuple(rng.randint(-3, 3) for _ in range(r)))


def test_kernels_match_node_walks_on_large_random_inputs():
    for mp, mc in _random_inputs(2301):
        _assert_kernels_match(mp, mc)


def _assert_codec_matches(mp, mc: Multicharge) -> None:
    e, r = mc.e, mc.r
    for i in range(e):
        assert phi(mp, mc, i) == tuple(
            partition_of(phi_beta_set(beta_set(c, a), i, e))[0] for c, a in zip(mp, mc.entries)
        )
    core, hooks = to_multicore(mp, mc)
    core_mp = core.to_multipartition()
    disp = AbacusDisplay.from_multipartition(core_mp, mc)
    assert disp.is_multicore()
    for j in range(1, r + 1):
        for i in range(e):
            assert disp.lowest_level(i, j) == core.levels[j - 1][i]
    assert to_multicore(core_mp, mc) == (core, 0)
    assert r * hooks == weight(mp, mc) - weight(core_mp, mc)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_codec_matches_beta_set_route_exhaustively(r):
    multis = [mp for n in range(7) for mp in multipartitions_of(n, r)]
    for e in range(2, 6):
        for charge in _charges(r):
            mc = Multicharge(e, charge)
            for mp in multis:
                _assert_codec_matches(mp, mc)
                if r == 1:
                    assert to_multicore(mp, mc)[1] == _classical_e_weight(mp[0], e)


def test_codec_matches_beta_set_route_on_large_random_inputs():
    for mp, mc in _random_inputs(2302):
        _assert_codec_matches(mp, mc)


def test_kernels_reject_level_mismatch_and_bad_residues():
    mc = Multicharge(3, (0, 1))
    for fn in (residue_counts, residue_multiset, hub):
        with pytest.raises(InputError):
            fn(((1,),), mc)
    with pytest.raises(InputError):
        delta_ij(((1,), ()), mc, 3, 1)
    with pytest.raises(InputError):
        delta_ij(((1,), ()), mc, 0, 3)
    with pytest.raises(InputError):
        d_min(((1,), ()), mc, -1)
