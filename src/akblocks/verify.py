"""Exhaustive desk-scale sweeps certifying every combinatorial law.

Each sweep quantifies a law over a finite grid of (n, r, e, charge)
cells and reports a LemmaResult keyed by a stable anchor name.  The
sweeps prefer independent routes: reference values come from direct
definitions (diagram walks, permutation enumeration, generating-function
counting), never from the code path under test.
"""

from collections import Counter
from contextlib import ExitStack, suppress
from functools import cached_property, partial
from itertools import chain, combinations, permutations, takewhile
from typing import NamedTuple

from .abacus import (
    AbacusDisplay,
    BetaSet,
    Multicore,
    _beta_set,
    _exchange,
    _phi,
    _to_multicore,
    beta_set,
    gamma_diff,
    has_forbidden_config,
    partition_of,
    phi_beta_set,
    s_move,
)
from .blocks import (
    _block_containing,
    _core_block_of,
    _counts_weight,
    _hub,
    _hub_matrix,
    _level_hub_matrix,
    _level_weight,
    _moves,
    _scopes_condition,
    _weight,
    d_min,
    enumerate_blocks,
    is_core_block,
    k_value,
    base_tuples,
    level_hub,
)
from .branching import (
    LaurentPolynomial,
    _swap_context,
    _walk,
    degree_spectrum,
    inversions,
    mahonian,
)
from .caps import Caps
from .errors import LemmaViolation
from .multipartition import (
    Multicharge,
    _residue,
    _residue_counts,
    add_node,
    addable_nodes,
    dominates,
    lex_cmp,
    multipartitions_of,
    node_above,
    nodes,
    partitions_of,
    remove_node,
    removable_nodes,
    residue,
    size,
)
from .scopes import (
    _kleshchev_flags,
    _kleshchev_mismatches,
    _lex_violations,
    is_kleshchev,
    scopes_pairing,
)

__all__ = ["SweepGrid", "DEFAULT_GRID", "LemmaResult", "run_all", "format_results", "results_to_json"]

# the largest delta whose delta! removal orders the branching sweep walks
_MAX_DELTA = 6


class SweepGrid(NamedTuple):
    """The enumeration ranges a verification run covers.

    max_n bounds most sweeps; branch_n the branching/forbidden-config/
    preservation sweeps (which only visit condition-satisfying blocks)
    and the r=1 Kleshchev oracle.  ``to_json`` writes branch_n under both
    the branch_n and oracle_n keys, and the branching sweep's delta bound
    as max_delta.
    """

    max_n: int = 6
    levels: tuple = (1, 2, 3)
    es: tuple = (2, 3, 4)
    branch_n: int = 8

    def charges(self, r: int, e: int) -> tuple:
        if r == 1:
            return ((0,),)
        if r == 2:
            return ((0, 0), (0, 1))
        if r == 3:
            return ((0, 0, 0), (1, 0, 2 % e))
        return (tuple(0 for _ in range(r)),)

    def cells(self):
        for r in self.levels:
            for e in self.es:
                for entries in self.charges(r, e):
                    yield Multicharge(e, entries)

    def to_json(self) -> dict:
        lists = {"levels": list(self.levels), "es": list(self.es)}
        return {**self._asdict(), **lists, "oracle_n": self.branch_n, "max_delta": _MAX_DELTA}


DEFAULT_GRID = SweepGrid()


class LemmaResult(NamedTuple):
    lemma: str
    instances: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class _Recorder:
    """Counts instances of a law and keeps the first few violations."""

    KEEP = 4

    def __init__(self, lemma: str):
        self.lemma = lemma
        self.instances = 0
        self.violations = []

    def count(self, ok: bool, text: str = "violation", *args) -> None:
        """Count one instance; keep a failed one's text, formatted with args
        when there are any, while fewer than KEEP are kept.  Only a kept
        text is formatted."""
        self.instances += 1
        if not ok and len(self.violations) < self.KEEP:
            self.violations.append(text.format(*args) if args else text)

    def result(self) -> LemmaResult:
        return LemmaResult(self.lemma, self.instances, tuple(self.violations))


_SWEEPS: dict = {}  # sweep name -> lemma anchors; definition order is output order
_UNITS: dict = {}  # cell sweep name -> its units runner, which a forked worker calls on its cells


def _sweep(*lemmas: str, per_cell: bool = False):
    """Declare a sweep by its lemma anchors, in output order; its body takes
    one _Recorder per anchor after its first argument, a _Cell for a cell
    sweep and the grid for any other.  The sweep takes the grid, and from
    ``run_all`` its cells and a reader per forked worker that returns the
    results of the worker's cells; it returns its LemmaResults in anchor
    order, merged in grid order, and runs here each cell whose result did
    not arrive, in its turn."""

    def declare(body):
        def unit(arg) -> list:  # fresh recorders' (instances, kept) for one cell, or the grid
            recorders = [_Recorder(lemma) for lemma in lemmas]
            body(arg, *recorders)
            return [(rec.instances, rec.violations) for rec in recorders]

        def units(args) -> list:  # each unit's result, up to the first that raises: the sweep reruns that one
            out = []
            with suppress(Exception):
                for arg in args:
                    out.append(unit(arg))
            return out

        def sweep(grid: SweepGrid, cells: tuple | None = None, readers=()) -> list:
            if not per_cell:  # the grid is the one unit: workers send messages for cell sweeps only
                cells, readers = (grid,), ()
            args = tuple(_cells(grid)) if cells is None else cells
            jobs = 1 + len(readers)
            shares = [units(args[::jobs]), *(read() for read in readers)]  # this process's share first
            recorders = [_Recorder(lemma) for lemma in lemmas]
            for k, arg in enumerate(args):
                i, share = k // jobs, shares[k % jobs]  # unit k is item i of process k % jobs's share
                for rec, (instances, kept) in zip(recorders, share[i] if i < len(share) else unit(arg)):
                    rec.instances += instances - len(kept)
                    for text in kept:  # kept again by count's own rule
                        rec.count(False, text)
            return [rec.result() for rec in recorders]

        _SWEEPS[body.__name__] = lemmas
        if per_cell:
            _UNITS[body.__name__] = units
        sweep.__name__ = sweep.__qualname__ = body.__name__
        return sweep

    return declare


def _caps_for(grid: SweepGrid) -> Caps:
    top = max(grid.max_n, grid.branch_n)
    return Caps(
        max_n=top,
        max_r=max(grid.levels),
        max_e=max(grid.es),
        max_delta=_MAX_DELTA,
    )


class _Cell:
    """What the cell sweeps read of one (r, e, charge) cell of the grid: the
    multipartitions of each n <= max_n, shared by the cells of one level,
    and what is built from them when a sweep first reads it."""

    def __init__(self, grid: SweepGrid, caps: Caps, charge: Multicharge, multis: tuple):
        self.grid, self.caps, self.charge, self.multis = grid, caps, charge, multis

    @cached_property
    def blocks(self) -> tuple:
        """The blocks of each n <= max_n."""
        return tuple(enumerate_blocks(n, self.charge, self.caps) for n in range(self.grid.max_n + 1))

    @cached_property
    def multicores(self) -> tuple:
        """The multicores among the multipartitions, sorted by levels."""
        decoded = (_to_multicore(mp, self.charge) for mp in chain.from_iterable(self.multis))
        cores = {core.levels: core for core, hooks in decoded if hooks == 0}
        return tuple(cores[k] for k in sorted(cores))

    @cached_property
    def condition(self) -> tuple:
        """(block, i, report) for each block of n <= branch_n with the weight
        condition and delta_i >= 0."""
        grid, mc = self.grid, self.charge
        more = (enumerate_blocks(n, mc, self.caps) for n in range(grid.max_n + 1, grid.branch_n + 1))
        found = (
            (blk, i, _scopes_condition(blk.lex_least, mc, i))
            for blist in chain(self.blocks[: grid.branch_n + 1], more) for blk in blist for i in range(mc.e)
        )
        return tuple((blk, i, rep) for blk, i, rep in found if rep.holds and rep.delta >= 0)


def _cells(grid: SweepGrid):
    """Each cell's _Cell in grid order, built when it is reached."""
    caps = _caps_for(grid)
    level = multis = None
    for mc in grid.cells():
        if mc.r != level:
            level, multis = mc.r, tuple(tuple(multipartitions_of(n, mc.r)) for n in range(grid.max_n + 1))
        yield _Cell(grid, caps, mc, multis)


# ---------------------------------------------------------------------------
# node counts and orders


@_sweep("addable_removable_count", "lex_total_order", "dominance_partial_order",
        "dominance_implies_lex", "node_order_strict")
def check_orders(grid: SweepGrid, counts, lex_total, dom_partial, dom_lex, node_order):
    for r in grid.levels:
        for n in range(grid.max_n + 1):
            multis = tuple(multipartitions_of(n, r))
            # dominates once per ordered pair; the checks below read the table
            dom = [[dominates(a, b) for b in multis] for a in multis]
            for x, mp in enumerate(multis):
                counts.count(
                    len(addable_nodes(mp)) - len(removable_nodes(mp)) == r,
                    "addable-removable != r for {}", mp,
                )
                dom_partial.count(dom[x][x], "not reflexive at {}", mp)
            for x, y in combinations(range(len(multis)), 2):
                a, b = multis[x], multis[y]
                c, c_back = lex_cmp(a, b), lex_cmp(b, a)
                lex_total.count(
                    c != 0 and c == -c_back,
                    "trichotomy/antisymmetry fails for {} vs {}", a, b,
                )
                dab, dba = dom[x][y], dom[y][x]
                dom_partial.count(
                    not (dab and dba),
                    "antisymmetry fails for {} vs {}", a, b,
                )
                if dab:
                    dom_lex.count(
                        c > 0,
                        "{} dominates {} but is not lex-greater", a, b,
                    )
                if dba:
                    dom_lex.count(
                        c_back > 0,
                        "{} dominates {} but is not lex-greater", b, a,
                    )
            if n <= 4:
                for x, row in enumerate(dom):
                    for y in (y for y, ok in enumerate(row) if ok):
                        for z in (z for z, ok in enumerate(dom[y]) if ok):
                            dom_partial.count(
                                row[z],
                                "transitivity fails at {},{},{}", multis[x], multis[y], multis[z],
                            )
                for nds in map(nodes, multis):
                    for x in nds:
                        node_order.count(not node_above(x, x), "irreflexivity at {}", x)
                    for x, y in combinations(nds, 2):
                        node_order.count(
                            not (node_above(x, y) and node_above(y, x)),
                            "antisymmetry at {},{}", x, y,
                        )
                        for z in nds:
                            if node_above(x, y) and node_above(y, z):
                                node_order.count(
                                    node_above(x, z),
                                    "transitivity at {},{},{}", x, y, z,
                                )


# ---------------------------------------------------------------------------
# residues, hubs, block criterion


@_sweep("residue_count_shift", "hub_sum_law", "residue_block_criterion", per_cell=True)
def check_residues(cell: _Cell, shift, hub_sum, criterion):
    mc = cell.charge
    e = mc.e
    bumped = Multicharge(e, tuple(a + 1 for a in mc.entries))
    for multis in cell.multis:
        hub_to_counts: dict = {}
        counts_to_hub: dict = {}
        for mp in multis:
            c = _residue_counts(mp, mc)
            c2 = _residue_counts(mp, bumped)
            shift.count(
                c2 == tuple(c[(i - 1) % e] for i in range(e)),
                "shift law fails for {}: {} -> {}", mp, c, c2,
            )
            h = tuple(map(sum, zip(*_hub_matrix(mp, mc))))  # the row hub
            total = sum(h)
            read = _hub(mp, mc)
            hub_sum.count(
                total == -mc.r and read == h,
                "hub of {}: {} read off its counts, {} off its rows, which sum to {}", mp, read, h, total,
            )
            hub_to_counts.setdefault(h, set()).add(c)
            counts_to_hub.setdefault(c, set()).add(h)
        for h, cs in hub_to_counts.items():
            criterion.count(
                len(cs) == 1,
                "hub {} has several residue-count vectors {}", h, sorted(cs),
            )
        for c, hs in counts_to_hub.items():
            criterion.count(
                len(hs) == 1,
                "counts {} have several hubs {}", c, sorted(hs),
            )


# ---------------------------------------------------------------------------
# beta-sets and displays


@_sweep("beta_roundtrip", "runner_step_adds_residue", "vacuum_levels")
def check_beta(grid: SweepGrid, roundtrip, step, vacuum):
    for a in range(-5, 6):
        for n in range(9):
            for p in partitions_of(n):
                bs = beta_set(p, a)
                q, a2 = partition_of(bs)
                roundtrip.count(
                    (q, a2) == (p, a),
                    "{} at charge {} decoded to {}", p, a, q,
                )
    for e in grid.es:
        for a in (-2, 0, 3):
            mc = Multicharge(e, (a,))
            for n in range(min(grid.max_n, 5) + 1):
                for p in partitions_of(n):
                    bs = beta_set(p, a)
                    for b in range(bs.min_gap() - 1, bs.max_bead() + 2):
                        if b not in bs or (b + 1) in bs:
                            continue
                        moved = BetaSet(a, bs.delta ^ frozenset({b, b + 1}))
                        q, _ = partition_of(moved)
                        grown = [nd for nd in addable_nodes((p,)) if add_node((p,), nd) == (q,)]
                        step.count(
                            len(grown) == 1 and remove_node((q,), grown[0]) == (p,)
                            and residue(grown[0], mc) == (b + 1) % e,
                            "bumping bead {} of {} gave {}", b, p, q,
                        )
        for a in range(-4, 5):
            disp = AbacusDisplay(e, (beta_set((), a),))
            for i in range(e):
                vacuum.count(
                    disp.lowest_level(i, 1) == (a - 1 - i) // e,
                    "vacuum charge {} runner {}", a, i,
                )


# ---------------------------------------------------------------------------
# weight laws and multicores


def _strip_one_rim_hook(parts: list, e: int) -> bool:
    for i in range(len(parts)):
        for j in range(parts[i]):
            arm = parts[i] - (j + 1)
            leg = sum(1 for b in range(i + 1, len(parts)) if parts[b] > j)
            if arm + leg + 1 != e:
                continue
            m = i + leg
            replacement = [parts[b + 1] - 1 for b in range(i, m)] + [j]
            parts[i : m + 1] = replacement
            while parts and parts[-1] == 0:
                parts.pop()
            return True
    return False


def _classical_e_weight(p, e: int) -> int:
    """Rim-hook stripping straight off the Young diagram (no abacus)."""
    work = list(p)
    count = 0
    while _strip_one_rim_hook(work, e):
        count += 1
    return count


@_sweep("weight_core_law", "multicore_fixpoint", "level_hub_bridge", "same_hub_weight_law",
        "classical_e_weight", per_cell=True)
def check_weights(cell: _Cell, core_law, fixpoint, bridge, same_hub, classical):
    mc = cell.charge
    e, r = mc.e, mc.r
    hub_index: dict = {}
    cores: dict = {}  # core levels -> (weight, fixed point?); a third of a cell's multipartitions
    for n, multis in enumerate(cell.multis):
        for mp in multis:
            core, hooks = _to_multicore(mp, mc)
            if core.levels not in cores:
                core_mp = core.to_multipartition()
                again, hooks2 = _to_multicore(core_mp, mc)
                disp = AbacusDisplay.from_multipartition(core_mp, mc)
                cores[core.levels] = (_weight(core_mp, mc), hooks2 == 0 and again == core and disp.is_multicore())
            wc, fixed = cores[core.levels]
            w = _weight(mp, mc)
            core_law.count(
                w == wc + r * hooks,
                "{}: w={}, core w={}, hooks={}", mp, w, wc, hooks,
            )
            fixpoint.count(fixed, "core of {} is not a fixed point", mp)
            h = _hub(mp, mc)
            if hooks == 0:
                ok = level_hub(core) == h and _hub_matrix(mp, mc) == _level_hub_matrix(core)
                bridge.count(ok, "level/hub bridge fails for multicore {}", mp)
            hub_index.setdefault(h, set()).add((n, w))
    for h, pairs in hub_index.items():
        for (n1, w1), (n2, w2) in combinations(sorted(pairs), 2):
            same_hub.count(
                (n1 - n2) % e == 0 and e * (w1 - w2) == r * (n1 - n2),
                "hub {}: sizes {},{} carry weights {},{}", h, n1, n2, w1, w2,
            )
    if r == 1:
        for n in range(cell.grid.max_n + 1):
            for p in partitions_of(n):
                classical.count(
                    _weight((p,), mc) == _classical_e_weight(p, e),
                    "weight of {} differs from stripping e={} rim hooks", p, e,
                )


# ---------------------------------------------------------------------------
# bead exchanges


def _columns(matrix) -> list:
    """(min_j, max_j) of a hub matrix's delta_i^j over the components, for each residue i."""
    return [(min(col), max(col)) for col in zip(*matrix)]


def _row_facts(e: int, row: tuple) -> tuple:
    """Residue counts and hub of the partition one level row decodes to,
    at the row's own charge e + sum(row); the hub is read by rows."""
    one = Multicore(e, (row,))
    mp, charge = one.to_multipartition(), Multicharge(e, one.charges)
    return _residue_counts(mp, charge), tuple(_hub_matrix(mp, charge)[0])


def _decoded_hub_weight(x: Multicore, kappa: tuple, facts: dict) -> tuple:
    """Hub and weight of x's decoded multipartition, kappa its charges mod
    e: the exchange sweep's reference route, which reads no level kernel.
    Hubs and residue counts are sums over components, and a component's
    decode, counts and hub depend on its level row alone, so both are
    summed from ``_row_facts``; facts keeps them per row, for one e, as
    one vector of counts then hub."""
    rows = []
    for row in x.levels:
        got = facts.get(row)
        if got is None:
            counts, h = _row_facts(x.e, row)
            got = facts[row] = counts + h
        rows.append(got)
    summed = tuple(map(sum, zip(*rows)))
    return summed[x.e :], _counts_weight(summed[: x.e], kappa, x.levels, "levels ")


@_sweep("hub_invariance", "weight_move_formula", "smove_symmetry", "smove_inverse",
        "gamma_shift_invariance", per_cell=True)
def check_smoves(cell: _Cell, hub_inv, w_move, symmetry, inverse, g_shift):
    mc = cell.charge
    if mc.r == 1:
        return
    kappa, facts = mc.kappa, {}  # facts lives for this cell only
    for m in cell.multicores:
        h0, w0 = _decoded_hub_weight(m, kappa, facts)
        shifted = Multicore(
            m.e, (tuple(x + 1 for x in m.levels[0]),) + m.levels[1:]
        )
        for mv, g in _moves(m):
            nxt = s_move(m, *mv)
            h, w = _decoded_hub_weight(nxt, kappa, facts)
            hub_inv.count(
                h == h0,
                "hub changed by move {} at levels {}", mv, m.levels,
            )
            w_move.count(
                w == w0 - mc.r * (g - 2),
                "weight law fails for move {} (gamma {}) at {}", mv, g, m.levels,
            )
            i, l, j, k = mv
            symmetry.count(
                nxt == s_move(m, l, i, k, j),
                "s_il^jk != s_li^kj at {}", mv,
            )
            inverse.count(
                s_move(nxt, l, i, j, k) == m,
                "move {} is not undone by its inverse", mv,
            )
            g_shift.count(
                gamma_diff(shifted, *mv) == g,
                "gamma difference not shift-invariant at {}", mv,
            )


# ---------------------------------------------------------------------------
# core blocks


@_sweep("core_block_equivalence", "core_chain_validity", "core_delta_spread",
        "base_tuple_consistency", "k_block_invariant", "k_below_delta", per_cell=True)
def check_core_blocks(cell: _Cell, equivalence, chain_ok, spread, tuple_inv, k_inv, k_below):
    mc = cell.charge
    e = mc.e
    hub_blocks: dict = {}
    for n, blist in enumerate(cell.blocks):
        for blk in blist:
            hub_blocks.setdefault(blk.descriptor.hub, []).append(
                (n, blk.descriptor.weight)
            )
    for n, blist in enumerate(cell.blocks):
        for blk in blist:
            rep = blk.lex_least
            members_cores = all(
                _to_multicore(mp, mc)[1] == 0 for mp in blk.members
            )
            witness_def = is_core_block(rep, mc)
            minimal_def = not any(
                w2 < blk.descriptor.weight
                for (n2, w2) in hub_blocks[blk.descriptor.hub]
                if n2 < n
            )
            equivalence.count(
                witness_def == minimal_def == members_cores,
                "block of {}: witness={} minimal={} all-cores={}",
                blk.lex_least, witness_def, minimal_def, members_cores,
            )
            res = _core_block_of(rep, mc)
            weights = [_weight(rep, mc)] + [st.weight_after for st in res.chain]
            chain_ok.count(
                res.core.hub == blk.descriptor.hub
                and res.core.weight <= blk.descriptor.weight
                and (res.core.weight == blk.descriptor.weight) == witness_def
                and all(a >= b for a, b in zip(weights, weights[1:]))
                and is_core_block(res.core_multicore),
                "bad core chain for block of {}", blk.lex_least,
            )
            if not witness_def:
                continue
            ks = None
            tuples_seen = set()
            for mp in blk.members:
                m = _to_multicore(mp, mc)[0]
                for i, (lo, hi) in enumerate(_columns(_hub_matrix(mp, mc))):
                    spread.count(
                        hi - lo <= 2,
                        "delta spread over components exceeds 2 at {}, i={}", mp, i,
                    )
                tuples_seen.add(base_tuples(m))
                kv = tuple(k_value(m, i) for i in range(e))
                ks = kv if ks is None else ks
                k_inv.count(
                    kv == ks,
                    "K varies across members: {} vs {} at {}", kv, ks, mp,
                )
                for i in range(e):
                    k_below.count(
                        kv[i] <= d_min(mp, mc, i),
                        "K_{}={} exceeds d_min at {}", i, kv[i], mp,
                    )
            tuple_inv.count(
                len(tuples_seen) == 1,
                "base tuples differ across members of block of {}", blk.lex_least,
            )


# ---------------------------------------------------------------------------
# d-bounds


@_sweep("master_d_bound", "d_drop_bound", "chain_d_bound", "delta_interval", "core_d_plus_one", per_cell=True)
def check_d_bounds(cell: _Cell, master, drop, chain_bound, interval, plus_one):
    mc = cell.charge
    e, r = mc.e, mc.r
    for m in cell.multicores:
        mp = m.to_multipartition()
        res = _core_block_of(mp, mc)
        kv = tuple(k_value(res.core_multicore, i) for i in range(e))
        w = _weight(mp, mc)
        h, rem = divmod(w - res.core.weight, r)
        if rem:
            raise LemmaViolation("core_weight_drop", f"{mp} is {w - res.core.weight} over its core")
        cols = _columns(_hub_matrix(mp, mc))
        ds = tuple(lo for lo, _ in cols)
        for i in range(e):
            if 0 <= h <= kv[i]:
                master.count(
                    ds[i] >= kv[i] - h,
                    "d_min={} < K-h={} at {}, i={}", ds[i], kv[i] - h, mp, i,
                )
        if r >= 2:
            tame = True
            for mv, g in _moves(m):
                if abs(g) > 2:
                    tame = False
                for i, (d2, _) in enumerate(_columns(_level_hub_matrix(_exchange(m, *mv)))):
                    drop.count(
                        d2 >= ds[i] - 2 and (g != 1 or d2 >= ds[i] - 1),
                        "d drop too large for move {} (gamma {}) at {}, i={}", mv, g, mp, i,
                    )
            if tame:
                for i, (lo, hi) in enumerate(cols):
                    interval.count(
                        hi - lo <= 2,
                        "delta interval exceeded at {}, i={}", mp, i,
                    )
                core_mp0 = res.core_multicore.to_multipartition()
                if size(core_mp0) <= cell.grid.max_n:
                    for mu in _block_containing(core_mp0, mc, cell.caps).members:
                        for i, (d_mu, _) in enumerate(_columns(_hub_matrix(mu, mc))):
                            plus_one.count(
                                d_mu <= ds[i] + 1,
                                "core member {} has d_min more than d({})+1 at i={}", mu, mp, i,
                            )
        strict = list(takewhile(lambda st: st.gamma_difference >= 3, res.chain))
        if strict:
            cur = m
            for st in strict:
                cur = _exchange(cur, st.i, st.l, st.j, st.k)
            h2, rem2 = divmod(w - _level_weight(cur, mc.kappa), r)
            if rem2:
                raise LemmaViolation("core_weight_drop", f"strict exchanges from {mp}, r={r}")
            for i, (d_end, _) in enumerate(_columns(_level_hub_matrix(cur))):
                chain_bound.count(
                    ds[i] >= d_end - h2,
                    "chain bound fails from {} after {} strict steps, i={}", mp, h2, i,
                )


# ---------------------------------------------------------------------------
# the runner swap


def _beta_images(mp, charge: Multicharge, i: int, images: dict) -> tuple:
    """The runner swap of mp at residue i by the beta-set route, which never
    calls ``phi``.  It acts on each component alone, so each component's
    image is what phi_beta_set of its beta-set decodes to; images keeps
    those per (component, charge, residue), for one e."""
    out = []
    for comp, a in zip(mp, charge.entries):
        got = images.get((comp, a, i))
        if got is None:
            got = images[comp, a, i] = partition_of(phi_beta_set(_beta_set(comp, a), i, charge.e))[0]
        out.append(got)
    return tuple(out)


@_sweep("phi_involution", "phi_beta_image", "phi_size_shift", per_cell=True)
def check_phi(cell: _Cell, involution, beta_image, size_shift):
    mc = cell.charge
    images: dict = {}  # lives for this cell only
    for n, multis in enumerate(cell.multis):
        for mp in multis:
            h = _hub(mp, mc)
            for i in range(mc.e):
                img = _phi(mp, mc, i)
                involution.count(
                    _phi(img, mc, i) == mp,
                    "swap at residue {} is not an involution on {}", i, mp,
                )
                k = size(img)
                size_shift.count(k == n - h[i], "size of image of {} at i={} is {}", mp, i, k)
                beta_image.count(
                    _beta_images(mp, mc, i, images) == img,
                    "beta image mismatch for {} at i={}", mp, i,
                )


# ---------------------------------------------------------------------------
# branching under the weight condition


@_sweep("branching_degree_law", "branching_well_defined", "branching_spectrum",
        "branching_induction_spectrum", "no_addable_under_condition", "no_forbidden_config", per_cell=True)
def check_branching(cell: _Cell, degree_law, well_defined, spectrum, induction_spectrum,
                    no_addable, no_config):
    mc = cell.charge
    for blk, i, report in cell.condition:
        delta = report.delta
        if delta > _MAX_DELTA:
            continue
        ell = delta * (delta - 1) // 2
        expected = degree_spectrum(delta)
        for mp in blk.members:
            no_addable.count(
                not any(_residue(nd, mc) == i for nd in addable_nodes(mp)),
                "{} has an addable {}-node under the condition", mp, i,
            )
            no_config.count(
                not has_forbidden_config(mp, mc, i),
                "{} shows the forbidden bead pattern at i={}", mp, i,
            )
            degrees, idegrees = Counter(), Counter()
            orders = list(permutations(range(1, delta + 1)))
            down, up = {}, {}  # steps shared by the orders of (mp, i), as in branching._polynomial
            try:
                ascending, image, adds = _swap_context(mp, mc, i, cell.caps, report)
            except LemmaViolation as exc:  # fails every order: count each one
                for _ in orders:
                    well_defined.count(False, str(exc))
                orders = []
            for sigma in orders:
                try:
                    d = _walk(mc, mp, ascending, -1, sigma, image, f"stripping {mp}", down)
                    well_defined.count(True)
                except LemmaViolation as exc:
                    well_defined.count(False, str(exc))
                    continue
                want = ell - 2 * inversions(sigma)
                degree_law.count(
                    d == want, "order {} on {} gave degree {}, expected {}", sigma, mp, d, want
                )
                degrees[d] += 1
                try:
                    di = _walk(mc, image, adds, 1, sigma, mp, f"rebuilding {mp}", up)
                    well_defined.count(True)
                except LemmaViolation as exc:
                    well_defined.count(False, str(exc))
                    continue
                idegrees[di] += 1
            poly, ipoly = LaurentPolynomial(degrees), LaurentPolynomial(idegrees)
            spectrum.count(
                poly == expected,
                "restriction spectrum of {} at i={} is {!r}, expected {!r}", mp, i, poly, expected,
            )
            induction_spectrum.count(
                ipoly == expected,
                "induction spectrum of {} at i={} is {!r}, expected {!r}", mp, i, ipoly, expected,
            )


# ---------------------------------------------------------------------------
# block pairing, lex and Kleshchev preservation


@_sweep("block_bijection", "weight_preserved", "lex_order_preserved", "kleshchev_preserved", per_cell=True)
def check_scopes_maps(cell: _Cell, bijection, weight_pres, lex_pres, kle_pres):
    mc, grid = cell.charge, cell.grid
    # an image gains at most the n + r addable nodes of its source (a component of size s has s + 1)
    wide = cell.caps._replace(max_n=2 * grid.max_n + max(grid.levels))
    for blist in cell.blocks:
        for blk in blist:
            weights = [_weight(mp, mc) for mp in blk.members]
            for i in range(mc.e):
                pairs = scopes_pairing(blk, i)
                images = [img for _, img in pairs]
                target = _block_containing(images[0], mc, wide)
                bijection.count(
                    len(set(images)) == len(images)
                    and set(images) == set(target.members),
                    "pairing of block of {} at i={} is not a bijection", blk.lex_least, i,
                )
                weight_pres.count(
                    all(_weight(img, mc) == w for (_, img), w in zip(pairs, weights)),
                    "weight not preserved on block of {} at i={}", blk.lex_least, i,
                )
    # checked on the pairs directly: the verify_*_preserved reports would
    # recompute the weight condition that the cell holds already
    for blk, i, _ in cell.condition:
        pairs = scopes_pairing(blk, i)
        lex_pres.count(
            not _lex_violations(pairs),
            "lex order broken on block of {} at i={}", blk.lex_least, i,
        )
        kle_pres.count(
            not _kleshchev_mismatches(_kleshchev_flags(pairs, mc)),
            "kleshchev flag not preserved on block of {} at i={}", blk.lex_least, i,
        )


@_sweep("kleshchev_restricted_oracle")
def check_kleshchev_oracle(grid: SweepGrid, oracle):
    for e in grid.es:
        mc = Multicharge(e, (0,))
        for n in range(grid.branch_n + 1):
            for p in partitions_of(n):
                padded = p + (0,)
                restricted = all(padded[b] - padded[b + 1] < e for b in range(len(p)))
                oracle.count(
                    is_kleshchev((p,), mc) == restricted,
                    "good-node recursion disagrees with e-restriction at {}, e={}", p, e,
                )


# ---------------------------------------------------------------------------
# Mahonian numbers and counting


@_sweep("mahonian_product_identity", "mahonian_symmetry")
def check_mahonian(grid: SweepGrid, identity, symmetry):
    for delta in range(9):
        counts = mahonian(delta)
        ell = delta * (delta - 1) // 2
        spectrum = degree_spectrum(delta)
        expected = tuple(spectrum.coefficient(ell - 2 * k) for k in range(ell + 1))
        identity.count(
            counts == expected,
            "mahonian({}) = {} but the product gives {}", delta, counts, expected,
        )
        symmetry.count(
            counts == counts[::-1],
            "mahonian({}) is not palindromic", delta,
        )


def _partition_counts(top: int) -> list:
    dp = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            dp[total] += dp[total - part]
    return dp


@_sweep("block_partition_complete", per_cell=True)
def check_enumeration(cell: _Cell, complete):
    mc, top = cell.charge, cell.grid.max_n
    single = _partition_counts(top)
    level_counts = [1] + [0] * top
    for _ in range(mc.r):
        level_counts = [
            sum(level_counts[m] * single[t - m] for m in range(t + 1))
            for t in range(top + 1)
        ]
    for n, blocks in enumerate(cell.blocks):
        complete.count(
            sum(len(b.members) for b in blocks) == level_counts[n]
            and len({mp for b in blocks for mp in b.members}) == level_counts[n],
            "blocks of n={}, charge {} do not partition", n, mc.entries,
        )


# ---------------------------------------------------------------------------
# driver


def run_all(grid: SweepGrid = DEFAULT_GRID):
    """Build each cell's record once, in one walk of the grid, then run every
    sweep in definition order on the grid and those records.  Each sweep is
    looked up by name as it runs, not captured at import, so a wrapper
    installed on the module attribute (akbench's tracer) sees its one call.
    Cell k runs in process k % jobs: 0 is this one, the rest workers forked
    one per usable CPU (none without os.fork or with other threads)."""
    import os
    import pickle
    import signal
    import threading

    def work(cells, read, write):  # a worker ends here, skipping the exit handlers and buffers it inherited
        try:
            read.close()
            for units in _UNITS.values():  # one message per cell sweep
                write.write(pickle.dumps(units(cells)))
                write.flush()
        finally:
            os._exit(0)

    def load(read) -> list:  # a worker's next message, or no results if it died before sending it whole
        with suppress(EOFError, pickle.UnpicklingError):
            return pickle.load(read)
        return []

    cells = tuple(_cells(grid))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(cpus, len(cells)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    readers = []
    with ExitStack() as ends:  # closes each pipe and ends each worker, however the run ends
        with suppress(OSError):  # once a fork fails, no more are tried
            for w in range(1, jobs):
                read, write = map(open, os.pipe(), ("rb", "wb"))
                ends.enter_context(read)
                with write:
                    pid = os.fork()
                    if not pid:
                        work(cells[w::jobs], read, write)
                ends.callback(os.waitpid, pid, 0)
                ends.callback(os.kill, pid, signal.SIGKILL)  # first: one may not have sent all it had
                readers.append(partial(load, read))
        readers += [list] * (jobs - 1 - len(readers))  # a worker never forked reads as one that sent nothing
        return tuple(res for name in _SWEEPS for res in globals()[name](grid, cells, readers))


def format_results(results) -> str:
    width = max(len(r.lemma) for r in results)
    lines = ["%-*s  %10s  %s" % (width, "lemma", "instances", "status")]
    for r in results:
        lines.append(
            "%-*s  %10d  %s" % (width, r.lemma, r.instances, "ok" if r.ok else "FAIL")
        )
        for v in r.violations:
            lines.append("    ! %s" % v)
    bad = [r for r in results if not r.ok]
    lines.append(
        "%d lemmas checked, %d failed" % (len(results), len(bad))
    )
    return "\n".join(lines) + "\n"


def results_to_json(results, grid: SweepGrid) -> dict:
    return {
        "schema": 1,
        "grid": grid.to_json(),
        "results": [{**r._asdict(), "ok": r.ok, "violations": list(r.violations)} for r in results],
    }
