"""The row-wise kernels against independent references.

The residue and hub references below visit every node (or every
removable and addable node) one by one; the kernels read the same
data off the rows.  The beta-number codec (``phi``, ``to_multicore``,
``Multicore.to_multipartition``) is checked against the beta-set route
(``beta_set``, ``phi_beta_set``, ``partition_of``, ``AbacusDisplay``), the
weight, and rim-hook stripping straight off the diagram.  Block
enumeration, a join of per-component residue tables, is checked against
grouping every multipartition of n by residue counts, and the tables
(one walk at charge residue 0, rotated for the others) against tabling
``partitions_of`` by ``residue_counts`` and against a walk at each
residue.  The level-matrix reads of a multicore (residue
counts, weight, per-component hub) are checked against its decoded
multipartition.  The one-residue signature is checked against the row
ends, and good nodes against cancelling node lists one pair at a time.
``render`` is checked against drawing every cell of the window by bead
membership, ``_beta_set`` (which that drawing and the codec route read)
against the literal bead set, ``BetaSet.min_gap`` and ``max_bead``
against a scan, the pruned exchange enumeration and the greedy phase's
move against the definition of gamma difference, and the level-matrix
residue counts against the decoded counts on every state of seeded
core-block chains.
The core-block kernels (``witness_offsets``, ``k_value``, and the weight
of residue counts) are checked against their definitions written with
generators: all-pairs level spreads, the literal max of min - max over
the witnesses, and the weight formula.
"""

import random
import tracemalloc
from itertools import product

import pytest

import akblocks
from akblocks import (
    AbacusDisplay,
    BetaSet,
    Caps,
    InputError,
    LemmaViolation,
    Multicharge,
    Multicore,
    beta_set,
    block_containing,
    block_of,
    core_block_of,
    d_min,
    delta_ij,
    enumerate_blocks,
    hub,
    k_value,
    multipartitions_of,
    partition_of,
    partitions_of,
    phi,
    phi_beta_set,
    render,
    residue_counts,
    residue_multiset,
    to_multicore,
    weight,
)
from akblocks import blocks, multipartition
from akblocks.abacus import _WINDOW_SLACK, _exchange
from akblocks.blocks import _greedy_move, _hub_matrix, _level_counts, _level_hub_matrix, _level_weight, _moves
from akblocks.multipartition import _node_of, _row_ends, _signature, addable_nodes, nodes, removable_nodes, residue
from akblocks.scopes import _good_nodes
from akblocks import verify
from akblocks.verify import (
    DEFAULT_GRID,
    SweepGrid,
    _beta_images,
    _classical_e_weight,
    _decoded_hub_weight,
)


def _node_residue_counts(mp, charge: Multicharge) -> tuple:
    """Reference residue counts: the residue of every node, one by one."""
    out = [0] * charge.e
    for nd in nodes(mp):
        out[residue(nd, charge)] += 1
    return tuple(out)


def _node_hub_matrix(mp, charge: Multicharge) -> tuple:
    """Reference per-component hub from the removable and addable node lists."""
    out = [[0] * charge.e for _ in mp]
    for nd in removable_nodes(mp):
        out[nd.comp - 1][residue(nd, charge)] += 1
    for nd in addable_nodes(mp):
        out[nd.comp - 1][residue(nd, charge)] -= 1
    return tuple(map(tuple, out))


def _blocks_grouped(n: int, e: int, kappa: tuple) -> tuple:
    """Reference block enumeration: every multipartition of n grouped by
    residue counts, as (key, lex-descending members) sorted by lex-least
    member."""
    charge = Multicharge(e, kappa)
    groups: dict = {}
    for mp in multipartitions_of(n, len(kappa)):
        groups.setdefault(residue_counts(mp, charge), []).append(mp)
    out = [(key, tuple(sorted(members, reverse=True))) for key, members in groups.items()]
    return tuple(sorted(out, key=lambda item: item[1][-1]))


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


def _column_sums(matrix) -> tuple:
    return tuple(map(sum, zip(*matrix)))


def test_hub_read_off_the_counts_matches_node_walks_exhaustively():
    """The hub read off the residue counts (2c_i - c_{i-1} - c_{i+1} minus
    the charges at i) against the removable and addable node lists, for
    every multipartition with n <= 7 at e = 2..6, with charges below 0 and
    at or past e."""
    for r in (1, 2, 3):
        multis = [mp for n in range(8) for mp in multipartitions_of(n, r)]
        for e in range(2, 7):
            for charge in [(-e - 1, e, 2 * e + 1)[:r], (3 * e - 1, -2, -2 * e)[:r], (e, e, -e)[:r]]:
                mc = Multicharge(e, charge)
                for mp in multis:
                    assert blocks._hub(mp, mc) == _column_sums(_node_hub_matrix(mp, mc)), (mp, mc)


def test_hub_read_off_the_counts_matches_the_row_route_on_large_inputs():
    """The same read-off against the row-wise hub matrix on 2,000 seeded
    multipartitions of 100 to 10^4 nodes."""
    rng = random.Random(3001)
    for _ in range(2_000):
        r, n = rng.randint(1, 3), rng.randint(100, 10_000)
        cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
        mp = tuple(_random_partition(rng, b - a) for a, b in zip([0, *cuts], [*cuts, n]))
        mc = Multicharge(rng.randint(2, 7), tuple(rng.randint(-20, 20) for _ in range(r)))
        assert blocks._hub(mp, mc) == _column_sums(_hub_matrix(mp, mc)), (mp, mc)


def _wraps(mp, mc: Multicharge) -> bool:
    """Whether some row's leftover residues run from its start up past
    e - 1 and back to 0: row b of width w (charge a) starts at residue
    (a - b + 1) mod e and holds w mod e residues past its full cycles."""
    e = mc.e
    return any(
        (a - b + 1) % e + w % e >= e
        for a, comp in zip(mc.entries, mp)
        for b, w in enumerate(comp, start=1)
    )


# (multipartition, e, charge) with wrapping rows
_WRAPPING = [
    (((3,),), 5, (4,)),  # starts at 4, and 4 + 3 > 5: residues 4, 0, 1
    (((7, 3, 1), (5,)), 2, (1, 0)),  # e = 2
    (((17, 16, 2), (13,)), 5, (-3, 2)),  # rows longer than 3e, a negative charge
    (((11, 9, 9, 4), (), (20, 1)), 3, (-7, -1, -5)),
    (((1,) * 9, (6, 6)), 4, (-2, -9)),
]


def test_residue_counts_match_node_walks_where_rows_wrap():
    """The difference-array count against the node walk, on rows whose
    leftover residues wrap back to 0, and on one seeded input of about
    10^4 nodes with negative charges at every e."""
    for mp, e, charge in _WRAPPING:
        mc = Multicharge(e, charge)
        assert _wraps(mp, mc), mp
        assert residue_counts(mp, mc) == _node_residue_counts(mp, mc)
    rng = random.Random(2303)
    mp = tuple(_random_partition(rng, m) for m in (4_100, 3_500, 2_400))
    assert max(map(len, mp)) > 15 and sum(map(sum, mp)) == 10_000
    for e in range(2, 6):
        mc = Multicharge(e, (-4, 3, -1))
        assert _wraps(mp, mc)
        assert residue_counts(mp, mc) == _node_residue_counts(mp, mc)


def _reference_render(disp: AbacusDisplay, lo: int, hi: int) -> str:
    """The drawing of levels lo..hi, cell by cell: 'o' where a bead is."""
    e = disp.e
    width = max(len("level"), len(str(lo)), len(str(hi)))
    runners = "".join(str(i % 10) for i in range(e))
    lines = [
        "e=%d charges=%s" % (e, ",".join(str(bs.charge) for bs in disp.components)),
        "level".rjust(width) + "  " + "  ".join([runners] * disp.r),
    ]
    for lv in range(lo, hi + 1):
        cells = range(lv * e, lv * e + e)
        groups = ["".join("o" if p in bs else "." for p in cells) for bs in disp.components]
        lines.append(str(lv).rjust(width) + "  " + "  ".join(groups))
    return "\n".join(lines) + "\n"


def _default_window(mp, mc: Multicharge) -> tuple:
    """One level above the lowest gap a - len(parts) and one below the
    highest bead a + parts[0] - 1 (a - 1 for the empty partition)."""
    e = mc.e
    lo = min((a - len(p)) // e for a, p in zip(mc.entries, mp)) - 1
    hi = max((a + (p[0] if p else 0) - 1) // e for a, p in zip(mc.entries, mp)) + 1
    return lo, hi


def _seeded_displays(seed: int):
    """Two multipartitions of 10^2 to 10^4 nodes per e = 2..5 and r = 1..3,
    with charges in -9..4."""
    rng = random.Random(seed)
    for e in range(2, 6):
        for r in range(1, 4):
            for _ in range(2):
                n = round(100 * 100 ** rng.random())
                cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
                sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
                mp = tuple(_random_partition(rng, m) for m in sizes)
                yield mp, Multicharge(e, tuple(rng.randint(-9, 4) for _ in range(r)))


def test_render_matches_cell_by_cell_drawing():
    charges = set()
    for mp, mc in _seeded_displays(1101):
        disp = AbacusDisplay.from_multipartition(mp, mc)
        assert render(disp) == _reference_render(disp, *_default_window(mp, mc))
        charges.update(mc.entries)
    assert min(charges) < 0


def _wide_displays(seed: int):
    """3,000 displays with e = 2..13 (runner labels wrap at 10) and r = 1..4,
    of 10 to 10^3 nodes, with charges near 0 or shifted together down to
    -120,000 (labels wider than "level")."""
    rng = random.Random(seed)
    for _ in range(3000):
        e, r = rng.randint(2, 13), rng.randint(1, 4)
        n = round(10 * 100 ** rng.random())
        cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
        mp = tuple(_random_partition(rng, b - a) for a, b in zip([0, *cuts], [*cuts, n]))
        shift = rng.choice((0, rng.randint(-120_000, 0)))
        yield mp, Multicharge(e, tuple(shift + rng.randint(-9, 4) for _ in range(r)))


def test_render_matches_cell_by_cell_drawing_on_wide_labels():
    """The default window, and on every third display a random window within
    the slack, drawn cell by cell."""
    rng = random.Random(1104)
    widths = set()
    for k, (mp, mc) in enumerate(_wide_displays(1103)):
        disp = AbacusDisplay.from_multipartition(mp, mc)
        lo0, hi0 = _default_window(mp, mc)
        drawn = render(disp)
        assert drawn == _reference_render(disp, lo0, hi0)
        widths.add(drawn.splitlines()[1].index("level") + len("level"))
        if k % 3 == 0:
            lo = rng.randint(lo0 - _WINDOW_SLACK, lo0 + 1)
            hi = rng.randint(max(lo, hi0 - 1), hi0 + _WINDOW_SLACK)
            assert render(disp, window=(lo, hi)) == _reference_render(disp, lo, hi)
    assert min(widths) == len("level") and max(widths) > len("level")


def test_render_windows_at_their_limits():
    """Windows exactly at the limits draw cell by cell; one level past any
    limit is an InputError."""
    for mp, mc in _seeded_displays(1102):
        disp = AbacusDisplay.from_multipartition(mp, mc)
        lo0, hi0 = _default_window(mp, mc)
        for lo, hi in ((lo0 - _WINDOW_SLACK, hi0 + _WINDOW_SLACK), (lo0 + 1, hi0 - 1)):
            assert render(disp, window=(lo, hi)) == _reference_render(disp, lo, hi)
        for window in (
            (lo0 - _WINDOW_SLACK - 1, hi0),
            (lo0, hi0 + _WINDOW_SLACK + 1),
            (lo0 + 2, hi0),
            (lo0, hi0 - 2),
        ):
            with pytest.raises(InputError):
                render(disp, window=window)


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


def _assert_beta_set_is_the_bead_set(parts: tuple, a: int, e: int, lo: int, hi: int) -> None:
    """_beta_set of parts at charge a against the literal bead set
    {parts_k + a - k} and every p < a - len(parts), on every position of
    levels lo..hi; its perturbation lies inside those levels."""
    beads = {w + a - k for k, w in enumerate(parts, 1)}
    bs = akblocks.abacus._beta_set(parts, a)
    cells = range(lo * e, hi * e + e)
    assert [p in bs for p in cells] == [p in beads or p < a - len(parts) for p in cells], (parts, a)
    assert not bs.delta or cells[0] <= min(bs.delta) and max(bs.delta) in cells, (parts, a)


def test_beta_set_is_the_literal_bead_set():
    """On the default window of render: on the seeded displays, and on every
    partition with n <= 6 at charges -9..4 and e = 2..5."""
    for mp, mc in _seeded_displays(1101):
        lo, hi = _default_window(mp, mc)
        for parts, a in zip(mp, mc.entries):
            _assert_beta_set_is_the_bead_set(parts, a, mc.e, lo, hi)
    small = [p for n in range(7) for p in partitions_of(n)]
    for e in range(2, 6):
        for a in range(-9, 5):
            for parts in small:
                _assert_beta_set_is_the_bead_set(parts, a, e, *_default_window((parts,), Multicharge(e, (a,))))


def test_level_counts_match_the_decoded_counts_on_every_chain_state():
    """On each seeded input's multicore and every state of its core_block_of
    chain, replayed one exchange at a time, down to the core multicore."""
    states = 0
    for mp, mc in _random_inputs(2302):
        res = core_block_of(mp, mc)
        cur = to_multicore(mp, mc)[0]
        for step in (None, *res.chain):
            if step is not None:
                cur = _exchange(cur, step.i, step.l, step.j, step.k)
            assert _level_counts(cur) == residue_counts(cur.to_multipartition(), mc), (mp, mc, step)
            states += 1
        assert cur == res.core_multicore
    assert states == 140, states  # 40 multicores and 100 exchanges


@pytest.mark.parametrize("r", [1, 2, 3])
def test_block_join_matches_grouping_exhaustively(r):
    caps = Caps(max_n=7, max_r=3, max_e=5, max_delta=6)
    for e in range(2, 6):
        for charge in _charges(r):
            mc = Multicharge(e, charge)
            for n in range(8):
                reference = _blocks_grouped(n, e, mc.kappa)
                got = enumerate_blocks(n, mc, caps)
                assert [b.members for b in got] == [members for _, members in reference]
                for blk, (_, members) in zip(got, reference):
                    descriptor = block_of(members[-1], mc)
                    assert blk.descriptor == descriptor
                    for mp in members:
                        one = block_containing(mp, mc, caps)
                        assert one.members == members and one.descriptor == descriptor


def test_block_containing_never_lists_all_multipartitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("multipartitions_of called")

    for module in (akblocks, blocks, multipartition):
        monkeypatch.setattr(module, "multipartitions_of", refuse, raising=False)
    for obj in vars(blocks).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    mc = Multicharge(5, (0, -2, 1))
    lam = ((4, 3, 1), (4, 2, 2, 2), (3, 2))
    caps = Caps(max_n=24, max_r=3, max_e=5, max_delta=6)
    blk = block_containing(lam, mc, caps)
    assert len(blk.members) == 4 and lam in blk.members
    image = phi(lam, mc, 1)
    target = block_containing(image, mc, caps)
    assert set(target.members) == {phi(mp, mc, 1) for mp in blk.members}


# the traced bytes the two lru_caches may hold on invariants-scale inputs (README, next to CACHE_SIZE)
CACHES_BUDGET_MB = 4


def test_the_caches_hold_a_bounded_footprint_on_large_inputs(monkeypatch):
    """1,080 distinct seeded inputs of up to 10^4 nodes through core_block_of,
    under tracemalloc: both caches fill, evict, and end at CACHE_SIZE
    entries, and the traced peak (the inputs included, since the caches
    keep them) stays under CACHES_BUDGET_MB.  About 3 s on 2 vCPUs (Python 3.11)."""
    caches = (blocks._core_block_of, blocks.witness_offsets)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(multipartition, "_CHECKED", {})
    tracemalloc.start()
    try:
        for seed in range(27):
            for mp, mc in _random_inputs(4100 + seed):
                core_block_of(mp, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for cached in caches:
        info = cached.cache_info()
        assert info.misses > info.currsize == blocks.CACHE_SIZE, (cached, info)
    assert peak < CACHES_BUDGET_MB * 2**20, peak


# the traced bytes the residue-table walks in blocks._WALKS may hold at akbench's max_n (README, next to CACHE_SIZE)
WALKS_BUDGET_MB = 4


def test_the_residue_table_walks_hold_a_bounded_footprint(monkeypatch):
    """Every table a block listing can ask for at top 24 (akbench's max_n):
    one walk per e = 2..5 and a rotation of it per other charge residue,
    14 entries in all.  Under tracemalloc the traced peak stays under
    WALKS_BUDGET_MB.  About 0.5 s on 2 vCPUs (Python 3.11)."""
    monkeypatch.setattr(blocks, "_WALKS", {})
    tracemalloc.start()
    try:
        for e in range(2, 6):
            for a in range(e):
                blocks._component_tables(24, e, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(blocks._WALKS) == [(e, a) for e in range(2, 6) for a in range(e)]
    assert all(len(tables) == 25 for tables in blocks._WALKS.values())
    assert peak < WALKS_BUDGET_MB * 2**20, peak


def test_core_block_of_checks_each_exchange_state_once(monkeypatch):
    """The exchange search hands core_block_of the states it reached: on an
    all-greedy chain of 8 steps it makes one exchange per step, and reads
    residue counts once per state, the start and the core included."""
    calls = dict.fromkeys(("_exchange", "_level_counts"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(blocks, name, counted(name, getattr(blocks, name)))
    blocks._core_block_of.cache_clear()
    mc = Multicharge(3, (-2, -2, 1))
    res = core_block_of(((2, 1, 1), (8, 6, 4, 2, 1, 1), (7, 5, 3, 1, 1)), mc)
    assert len(res.chain) >= 8
    assert calls == {"_exchange": len(res.chain), "_level_counts": len(res.chain) + 1}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_node_moves_follow_the_row_end_lists_exhaustively(r):
    """remove_node and add_node read one or two rows; they must accept
    exactly the nodes removable_nodes and addable_nodes list, and move
    them as a part-list edit would, on every position around the diagram."""
    for n in range(7):
        for mp in multipartitions_of(n, r):
            movable = {-1: set(multipartition.removable_nodes(mp)), 1: set(multipartition.addable_nodes(mp))}
            for j in range(-1, r + 2):
                for b in range(-1, n + 3):
                    for c in range(-1, n + 3):
                        nd = multipartition.Node(b, c, j)
                        for sign, move in ((-1, multipartition.remove_node), (1, multipartition.add_node)):
                            if nd not in movable[sign]:
                                with pytest.raises(InputError):
                                    move(mp, nd)
                                continue
                            parts = list(mp[j - 1]) + [0]
                            parts[b - 1] += sign
                            want = mp[: j - 1] + (tuple(x for x in parts if x),) + mp[j:]
                            assert move(mp, nd) == want


def _is_diagram(cells) -> bool:
    """Whether a set of (row, col) cells is the Young diagram of a weakly
    decreasing part list: each row's cells fill columns 1..length."""
    rows = max((b for b, _ in cells), default=0)
    parts = [sum(1 for b, _ in cells if b == row) for row in range(1, rows + 1)]
    return all(x >= y for x, y in zip(parts, parts[1:])) and cells == {
        (b, c) for b, w in enumerate(parts, start=1) for c in range(1, w + 1)
    }


@pytest.mark.parametrize("r", [1, 2, 3])
def test_row_ends_match_the_definition_exhaustively(r):
    """A node is removable when it lies in the diagram and taking it out
    leaves a diagram; a cell is addable when it lies outside and putting it
    in leaves one.  Every cell up to one row and one column past each
    component is tried, in order: components first, rows top down, columns
    right to left."""
    for n in range(8):
        for mp in multipartitions_of(n, r):
            want = []
            for j, comp in enumerate(mp, start=1):
                cells = {(b, c) for b, w in enumerate(comp, start=1) for c in range(1, w + 1)}
                for b in range(1, len(comp) + 2):
                    for c in range((comp[0] if comp else 0) + 1, 0, -1):
                        if (b, c) in cells and _is_diagram(cells - {(b, c)}):
                            want.append((multipartition.Node(b, c, j), -1))
                        elif (b, c) not in cells and _is_diagram(cells | {(b, c)}):
                            want.append((multipartition.Node(b, c, j), 1))
            assert _row_ends(mp) == want, mp


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


def _reached_multicores():
    """Per cell of the default grid, every multicore reached by sliding a
    multipartition with n <= 8, and every exchange from one of those."""
    for mc in DEFAULT_GRID.cells():
        cores = {to_multicore(mp, mc)[0] for n in range(9) for mp in multipartitions_of(n, mc.r)}
        reached = set(cores)
        for m in cores:
            reached.update(_exchange(m, *mv) for mv, _ in _moves(m))
        yield mc, sorted(reached, key=lambda m: m.levels)


def test_level_kernels_match_the_decoded_route_exhaustively():
    """The exchange sweeps and core_block_of read residue counts, weight
    and per-component hub off level matrices; each must equal its value
    on the decoded multipartition, and a multicore the program built
    must equal the validated one."""
    seen = 0
    for mc, reached in _reached_multicores():
        for m in reached:
            mp = m.to_multipartition()
            assert _level_counts(m) == residue_counts(mp, mc)
            assert _level_weight(m, mc.kappa) == weight(mp, mc)
            assert _level_hub_matrix(m) == _hub_matrix(mp, mc)
            validated = Multicore(m.e, m.levels)
            assert m == validated and hash(m) == hash(validated)
            seen += 1
    assert seen > 10_000


def _reference_moves(m: Multicore, minimum: int) -> list:
    """Every exchange of gamma difference >= minimum, from the definition."""
    lv = m.levels
    out = []
    for j in range(m.r):
        for k in range(j + 1, m.r):
            for i in range(m.e):
                for l in range(m.e):
                    g = (lv[j][i] - lv[k][i]) - (lv[j][l] - lv[k][l])
                    if i != l and g >= minimum:
                        out.append(((i, l, j + 1, k + 1), g))
    return out


def test_pruned_moves_match_the_definition():
    """_moves skips a component pair whose level differences span less than
    the minimum; the moves left, and their order, are those of the
    definition, and the greedy phase's move is the first of them at 3."""
    rng = random.Random(2001)
    grid = [m for cell in verify._cells(DEFAULT_GRID) for m in cell.multicores]
    drawn = []
    for _ in range(2000):
        e, r = rng.randint(2, 8), rng.randint(1, 4)
        drawn.append(Multicore(e, [[rng.randint(-30, 30) for _ in range(e)] for _ in range(r)]))
    for m in grid + drawn:
        for minimum in (2, 3):
            assert list(_moves(m, minimum)) == _reference_moves(m, minimum), (m, minimum)
        first = _reference_moves(m, 3)[:1]
        assert _greedy_move(m) == (first[0][0] if first else None), m
    assert len(grid) > 1000


def test_min_gap_and_max_bead_match_a_scan():
    rng = random.Random(2002)
    for _ in range(20_000):
        a, k = rng.randint(-40, 40), rng.randint(0, 6)
        bs = BetaSet(a, frozenset(rng.sample(range(a - 12, a), k) + rng.sample(range(a, a + 12), k)))
        cells = range(a - 14, a + 14)
        assert bs.min_gap() == min(p for p in cells if p not in bs)
        assert bs.max_bead() == max(p for p in cells if p in bs)


def test_exchange_reference_sums_row_facts_exactly():
    """check_smoves sums hub and residue counts over level rows; on every
    multicore one exchange away from the default grid's multicores, and on
    those multicores, the sums give hub and weight of the decoded
    multipartition."""
    seen = 0
    for cell in verify._cells(DEFAULT_GRID):
        mc, facts = cell.charge, {}
        for m in cell.multicores:
            for x in [m, *(_exchange(m, *mv) for mv, _ in _moves(m))]:
                mp = x.to_multipartition()
                assert _decoded_hub_weight(x, mc.kappa, facts) == (hub(mp, mc), weight(mp, mc)), x
                seen += 1
    assert seen > 25_000


def test_beta_route_images_match_phi_per_component():
    """check_phi keeps the beta-set route's image per (component, charge,
    residue) for a cell; on every grid (multipartition, residue) the kept
    images are, component by component, phi's image."""
    for mc in DEFAULT_GRID.cells():
        images: dict = {}
        for n in range(DEFAULT_GRID.max_n + 1):
            for mp in multipartitions_of(n, mc.r):
                for i in range(mc.e):
                    assert _beta_images(mp, mc, i, images) == phi(mp, mc, i), (mp, i)


def _reference_witnesses(m: Multicore) -> tuple:
    """Every offset vector t with t_1 = 0 under which every runner's levels
    differ pairwise by at most 1, from the definition: t_j lies within 1 of
    l_{1,0} - l_{j,0} (the pair 1, j on runner 0), and each such t is
    tested on every pair and runner; in lex order."""
    lv = m.levels
    spans = [range(lv[0][0] - row[0] - 1, lv[0][0] - row[0] + 2) for row in lv[1:]]
    return tuple(
        t
        for t in ((0, *tail) for tail in product(*spans))
        if all(
            abs(lv[j][i] + t[j] - lv[k][i] - t[k]) <= 1
            for j in range(m.r) for k in range(j + 1, m.r) for i in range(m.e)
        )
    )


def _reference_k(m: Multicore, i: int, witnesses: tuple) -> int:
    """K_i literally: the max over the witnesses of min_j l'_{j,i} - max_j l'_{j,i-1} - [i = 0]."""
    lv, prev = m.levels, (i - 1) % m.e
    return max(
        min(lv[j][i] + t[j] for j in range(m.r)) - max(lv[j][prev] + t[j] for j in range(m.r)) - (i == 0)
        for t in witnesses
    )


def _reference_weight(c: tuple, charges: tuple) -> int:
    """The weight formula with generators: sum_j c_{a_j mod e} - (1/2) sum_i (c_i - c_{i+1})^2."""
    e = len(c)
    return (2 * sum(c[a % e] for a in charges) - sum((c[i] - c[(i + 1) % e]) ** 2 for i in range(e))) // 2


def _assert_core_kernels_match(m: Multicore) -> bool:
    """witness_offsets (uncached) and k_value at every residue against the
    references; whether m lies in a core block."""
    witnesses = _reference_witnesses(m)
    assert blocks.witness_offsets.__wrapped__(m) == witnesses, m
    for i in range(m.e):
        if witnesses:
            assert k_value(m, i) == _reference_k(m, i, witnesses), (m, i)
        else:
            with pytest.raises(InputError, match="K is only defined on core blocks"):
                k_value(m, i)
    return bool(witnesses)


def _assert_weight_matches(counts: tuple, charges: tuple, m: Multicore) -> bool:
    """_counts_weight against the reference, a negative weight by its
    LemmaViolation text; whether the weight is negative."""
    w = _reference_weight(counts, charges)
    if w < 0:
        with pytest.raises(LemmaViolation) as exc:
            blocks._counts_weight(counts, charges, m.levels, "levels ")
        assert str(exc.value) == f"weight_nonnegative: negative weight {w} for levels {m.levels}"
    else:
        assert blocks._counts_weight(counts, charges, m.levels, "levels ") == w, (counts, charges)
    return w < 0


def test_core_block_kernels_match_their_definitions_on_the_grid():
    """Every multicore of the default grid, the weight at its own residue counts."""
    pairs = cores = 0
    for cell in verify._cells(DEFAULT_GRID):
        for m in cell.multicores:
            core = _assert_core_kernels_match(m)
            assert not _assert_weight_matches(_level_counts(m), cell.charge.entries, m)
            cores += core
            pairs += core * m.e
    assert pairs == 2465, pairs


def test_core_block_kernels_match_their_definitions_on_seeded_levels():
    """20,000 seeded level matrices (e 2..6, r 1..4, levels -3..3); the
    weight at each one's own residue counts, at its charges reduced mod e,
    as they are, and shifted by drawn multiples of e (so often negative),
    and at drawn counts, which are often no multipartition's."""
    rng = random.Random(3101)
    cores = negative = unreduced = 0
    for _ in range(20_000):
        e, r = rng.randint(2, 6), rng.randint(1, 4)
        m = Multicore(e, [[rng.randint(-3, 3) for _ in range(e)] for _ in range(r)])
        shifted = tuple(a + e * rng.randint(-5, 5) for a in m.charges)
        cores += _assert_core_kernels_match(m)
        for charges in (tuple(a % e for a in m.charges), m.charges, shifted):
            assert not _assert_weight_matches(_level_counts(m), charges, m)
        negative += _assert_weight_matches(tuple(rng.randint(0, 6) for _ in range(e)), shifted, m)
        unreduced += min(shifted) < 0 and max(shifted) >= e
    assert cores > 2000 and negative > 2000 and unreduced > 2000, (cores, negative, unreduced)


def test_reference_routes_stay_off_the_paths_they_check(monkeypatch):
    """The exchange sweep's reference reads no level kernel and not the hub
    read off the residue counts, the beta-set route of the swap sweep
    never calls phi, by its public name or its private kernel's, and the
    witness, K and weight references call none of the kernels they check."""

    def boom(*args):
        raise AssertionError("a reference route called the code it checks")

    for module, name in [
        (blocks, "level_hub"), (blocks, "_level_weight"), (blocks, "_level_counts"),
        (verify, "level_hub"), (verify, "_level_weight"), (blocks, "_hub"), (verify, "_hub"),
        (akblocks.abacus, "phi"), (akblocks.abacus, "_phi"), (verify, "_phi"),
    ]:
        monkeypatch.setattr(module, name, boom)
    grid = SweepGrid(max_n=4, levels=(2, 3), es=(2, 3))
    assert all(res.ok and res.instances for res in verify.check_smoves(grid))
    mc = Multicharge(3, (0, 1))
    assert _beta_images(((2, 1), (1,)), mc, 1, {}) == ((1, 1, 1), ())
    # nor do the references of the core-block kernels call those kernels
    m = Multicore(3, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    want = (blocks.witness_offsets(m), k_value(m, 0), blocks._counts_weight((1, 2, 1), (0, 1), m))
    for name in ("witness_offsets", "k_value", "_counts_weight"):
        monkeypatch.setattr(blocks, name, boom)
    witnesses = _reference_witnesses(m)
    assert (witnesses, _reference_k(m, 0, witnesses), _reference_weight((1, 2, 1), (0, 1))) == want


def _reference_good_nodes(mp, mc: Multicharge) -> tuple:
    """Per residue, the i-nodes from the node lists, highest first, with
    adjacent (removable, addable) pairs deleted until none is left; the
    highest removable that survives is good."""
    nds = [(nd, -1) for nd in removable_nodes(mp)] + [(nd, 1) for nd in multipartition.addable_nodes(mp)]
    out = []
    for i in range(mc.e):
        word = sorted(((nd, s) for nd, s in nds if residue(nd, mc) == i), key=lambda x: (x[0].comp, x[0].row))
        while True:
            pair = next((k for k in range(len(word) - 1) if word[k][1] < 0 < word[k + 1][1]), None)
            if pair is None:
                break
            del word[pair : pair + 2]
        good = next((nd for nd, s in word if s < 0), None)
        if good is not None:
            out.append(good)
    return tuple(out)


def test_one_residue_signature_and_good_nodes_match_references():
    for mc in DEFAULT_GRID.cells():
        for n in range(7):
            for mp in multipartitions_of(n, mc.r):
                ends = _row_ends(mp)
                for i in range(mc.e):
                    want = [(nd, s) for nd, s in ends if residue(nd, mc) == i]
                    word = _signature(mp, mc, i)
                    assert word == [(nd.comp - 1, nd.row - 1, s) for nd, s in want]
                    assert [(_node_of(mp, entry), entry[2]) for entry in word] == want
                assert tuple(_good_nodes(mp, mc)) == _reference_good_nodes(mp, mc)


def test_residue_tables_match_tabling_every_partition():
    """One walk per (top, e, a) tables every size up to top; each size's
    table, keys and lists in order, equals the partitions of that size
    tabled one by one."""
    for e in range(2, 6):
        for a in range(e):
            mc = Multicharge(e, (a,))
            tables = blocks._component_tables(12, e, a)
            assert len(tables) >= 13
            for s, table in enumerate(tables[:13]):
                want: dict = {}
                for p in partitions_of(s):
                    want.setdefault(residue_counts((p,), mc), []).append(p)
                assert list(table.items()) == [(key, tuple(ps)) for key, ps in want.items()]
            # the largest walk made at (e, a) serves every smaller top
            assert blocks._component_tables(5, e, a) is tables


def test_rotated_residue_tables_equal_a_fresh_walk():
    """Only charge residue 0 is walked; the table at residue a is its
    rotation, which equals a walk made at a, keys and lists in order, for
    e = 2..6 and top 12, and shares the walk's partition lists."""
    for e in range(2, 7):
        blocks._WALKS.clear()
        walked = blocks._component_tables(12, e, 0)
        for a in range(e):
            rotated = blocks._component_tables(12, e, a)
            fresh = blocks._walk(12, e, a)
            assert [list(table.items()) for table in rotated] == [list(table.items()) for table in fresh], (e, a)
            for table, base in zip(rotated, walked):
                assert [id(ps) for ps in table.values()] == [id(ps) for ps in base.values()]
        assert set(blocks._WALKS) == {(e, a) for a in range(e)}
