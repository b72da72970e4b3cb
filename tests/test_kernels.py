"""The row-wise residue and hub kernels against node-walking references.

The references in ``akblocks.verify`` visit every node (or every removable
and addable node) one by one; the kernels read the same data off the rows.
"""

import random

import pytest

from akblocks import (
    InputError,
    Multicharge,
    d_min,
    delta_ij,
    hub,
    multipartitions_of,
    residue_counts,
    residue_multiset,
)
from akblocks.verify import _node_hub_matrix, _node_residue_counts


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


def test_kernels_match_node_walks_on_large_random_inputs():
    rng = random.Random(2301)
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(0, 10_000)
        cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
        mp = tuple(_random_partition(rng, b - a) for a, b in zip([0, *cuts], [*cuts, n]))
        mc = Multicharge(rng.randint(2, 5), tuple(rng.randint(-3, 3) for _ in range(r)))
        _assert_kernels_match(mp, mc)


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
