"""Exhaustive desk-scale sweeps certifying every combinatorial law.

Each sweep quantifies a law over a finite grid of (n, r, e, charge)
cells and reports a LemmaResult keyed by a stable anchor name.  The
sweeps prefer independent routes: reference values come from direct
definitions (diagram walks, permutation enumeration, generating-function
counting), never from the code path under test.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from .abacus import (
    AbacusDisplay,
    BetaSet,
    Multicore,
    beta_set,
    gamma_diff,
    has_forbidden_config,
    partition_of,
    phi,
    phi_beta_set,
    s_move,
    to_multicore,
)
from .blocks import (
    _moves,
    block_containing,
    core_block_of,
    d_min,
    delta_ij,
    enumerate_blocks,
    hub,
    is_core_block,
    k_value,
    base_tuples,
    level_hub,
    residue_counts,
    scopes_condition,
    weight,
)
from .branching import (
    LaurentPolynomial,
    degree_spectrum,
    induction_order_degree,
    inversions,
    mahonian,
    order_degree,
)
from .caps import Caps
from .errors import LemmaViolation
from .multipartition import (
    Multicharge,
    addable_nodes,
    dominates,
    lex_cmp,
    multipartitions_of,
    node_above,
    nodes,
    partitions_of,
    removable_nodes,
    residue,
    size,
)
from .scopes import (
    is_kleshchev,
    scopes_pairing,
    verify_kleshchev_preserved,
    verify_lex_preserved,
)

__all__ = ["SweepGrid", "LemmaResult", "run_all", "format_results", "results_to_json"]


@dataclass(frozen=True)
class SweepGrid:
    """The enumeration ranges a verification run covers.

    max_n bounds most sweeps; branch_n the branching/forbidden-config/
    preservation sweeps (which only visit condition-satisfying blocks);
    oracle_n the r=1 Kleshchev oracle.
    """

    max_n: int = 6
    levels: tuple = (1, 2, 3)
    es: tuple = (2, 3, 4)
    branch_n: int = 8
    oracle_n: int = 8
    max_delta: int = 6

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
        return {
            "max_n": self.max_n,
            "levels": list(self.levels),
            "es": list(self.es),
            "branch_n": self.branch_n,
            "oracle_n": self.oracle_n,
            "max_delta": self.max_delta,
        }


DEFAULT_GRID = SweepGrid()


@dataclass(frozen=True)
class LemmaResult:
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

    def count(self, ok: bool, detail=None) -> None:
        self.instances += 1
        if not ok and len(self.violations) < self.KEEP:
            text = detail() if callable(detail) else (detail or "violation")
            self.violations.append(text)

    def result(self) -> LemmaResult:
        return LemmaResult(self.lemma, self.instances, tuple(self.violations))


def _caps_for(grid: SweepGrid) -> Caps:
    top = max(grid.max_n, grid.branch_n, grid.oracle_n)
    return Caps(
        max_n=top,
        max_r=max(grid.levels),
        max_e=max(grid.es),
        max_delta=grid.max_delta,
    )


@lru_cache(maxsize=None)
def _multis(n: int, r: int) -> tuple:
    return tuple(multipartitions_of(n, r))


# ---------------------------------------------------------------------------
# node counts and orders


def check_orders(grid: SweepGrid):
    counts = _Recorder("addable_removable_count")
    lex_total = _Recorder("lex_total_order")
    dom_partial = _Recorder("dominance_partial_order")
    dom_lex = _Recorder("dominance_implies_lex")
    node_order = _Recorder("node_order_strict")
    for r in grid.levels:
        for n in range(grid.max_n + 1):
            multis = _multis(n, r)
            for mp in multis:
                counts.count(
                    len(addable_nodes(mp)) - len(removable_nodes(mp)) == r,
                    lambda mp=mp: f"addable-removable != r for {mp}",
                )
                dom_partial.count(dominates(mp, mp), lambda mp=mp: f"not reflexive at {mp}")
            for a, b in combinations(multis, 2):
                c = lex_cmp(a, b)
                lex_total.count(
                    c != 0 and c == -lex_cmp(b, a),
                    lambda a=a, b=b: f"trichotomy/antisymmetry fails for {a} vs {b}",
                )
                dab, dba = dominates(a, b), dominates(b, a)
                dom_partial.count(
                    not (dab and dba),
                    lambda a=a, b=b: f"antisymmetry fails for {a} vs {b}",
                )
                if dab:
                    dom_lex.count(
                        lex_cmp(a, b) > 0,
                        lambda a=a, b=b: f"{a} dominates {b} but is not lex-greater",
                    )
                if dba:
                    dom_lex.count(
                        lex_cmp(b, a) > 0,
                        lambda a=a, b=b: f"{b} dominates {a} but is not lex-greater",
                    )
            if n <= 4:
                for a, b, c in product(multis, repeat=3):
                    if dominates(a, b) and dominates(b, c):
                        dom_partial.count(
                            dominates(a, c),
                            lambda a=a, b=b, c=c: f"transitivity fails at {a},{b},{c}",
                        )
        for n in range(min(grid.max_n, 4) + 1):
            for mp in _multis(n, r):
                nds = nodes(mp)
                for x in nds:
                    node_order.count(not node_above(x, x), lambda x=x: f"irreflexivity at {x}")
                for x, y in combinations(nds, 2):
                    node_order.count(
                        not (node_above(x, y) and node_above(y, x)),
                        lambda x=x, y=y: f"antisymmetry at {x},{y}",
                    )
                    for z in nds:
                        if node_above(x, y) and node_above(y, z):
                            node_order.count(
                                node_above(x, z),
                                lambda x=x, y=y, z=z: f"transitivity at {x},{y},{z}",
                            )
    return [counts.result(), lex_total.result(), dom_partial.result(), dom_lex.result(), node_order.result()]


# ---------------------------------------------------------------------------
# residues, hubs, block criterion


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


def check_residues(grid: SweepGrid):
    shift = _Recorder("residue_count_shift")
    hub_sum = _Recorder("hub_sum_law")
    criterion = _Recorder("residue_block_criterion")
    for mc in grid.cells():
        e = mc.e
        bumped = Multicharge(e, tuple(a + 1 for a in mc.entries))
        for n in range(grid.max_n + 1):
            hub_to_counts: dict = {}
            counts_to_hub: dict = {}
            for mp in _multis(n, mc.r):
                c = residue_counts(mp, mc)
                c2 = residue_counts(mp, bumped)
                shift.count(
                    c2 == tuple(c[(i - 1) % e] for i in range(e)),
                    lambda mp=mp, c=c, c2=c2: f"shift law fails for {mp}: {c} -> {c2}",
                )
                h = hub(mp, mc)
                hub_sum.count(
                    sum(h) == -mc.r,
                    lambda mp=mp, h=h: f"hub of {mp} sums to {sum(h)}",
                )
                hub_to_counts.setdefault(h, set()).add(c)
                counts_to_hub.setdefault(c, set()).add(h)
            for h, cs in hub_to_counts.items():
                criterion.count(
                    len(cs) == 1,
                    lambda h=h, cs=cs: f"hub {h} has several residue-count vectors {sorted(cs)}",
                )
            for c, hs in counts_to_hub.items():
                criterion.count(
                    len(hs) == 1,
                    lambda c=c, hs=hs: f"counts {c} have several hubs {sorted(hs)}",
                )
    return [shift.result(), hub_sum.result(), criterion.result()]


# ---------------------------------------------------------------------------
# beta-sets and displays


def check_beta(grid: SweepGrid):
    roundtrip = _Recorder("beta_roundtrip")
    step = _Recorder("runner_step_adds_residue")
    vacuum = _Recorder("vacuum_levels")
    for a in range(-5, 6):
        for n in range(9):
            for p in partitions_of(n):
                bs = beta_set(p, a)
                q, a2 = partition_of(bs)
                roundtrip.count(
                    (q, a2) == (p, a),
                    lambda p=p, a=a, q=q: f"{p} at charge {a} decoded to {q}",
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
                        grown = [
                            nd
                            for nd in nodes((q,))
                            if nd not in nodes((p,))
                        ]
                        step.count(
                            sum(q) == sum(p) + 1
                            and len(grown) == 1
                            and residue(grown[0], mc) == (b + 1) % e,
                            lambda p=p, b=b, q=q: f"bumping bead {b} of {p} gave {q}",
                        )
        for a in range(-4, 5):
            disp = AbacusDisplay(e, (beta_set((), a),))
            for i in range(e):
                vacuum.count(
                    disp.lowest_level(i, 1) == (a - 1 - i) // e,
                    lambda a=a, i=i: f"vacuum charge {a} runner {i}",
                )
    return [roundtrip.result(), step.result(), vacuum.result()]


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


def check_weights(grid: SweepGrid):
    core_law = _Recorder("weight_core_law")
    fixpoint = _Recorder("multicore_fixpoint")
    bridge = _Recorder("level_hub_bridge")
    same_hub = _Recorder("same_hub_weight_law")
    classical = _Recorder("classical_e_weight")
    for mc in grid.cells():
        e, r = mc.e, mc.r
        hub_index: dict = {}
        for n in range(grid.max_n + 1):
            for mp in _multis(n, r):
                core, hooks = to_multicore(mp, mc)
                core_mp = core.to_multipartition()
                w = weight(mp, mc)
                wc = weight(core_mp, mc)
                core_law.count(
                    w == wc + r * hooks,
                    lambda mp=mp, w=w, wc=wc, hooks=hooks: f"{mp}: w={w}, core w={wc}, hooks={hooks}",
                )
                again, hooks2 = to_multicore(core_mp, mc)
                fixpoint.count(
                    hooks2 == 0
                    and again == core
                    and AbacusDisplay.from_multipartition(core_mp, mc).is_multicore(),
                    lambda mp=mp: f"core of {mp} is not a fixed point",
                )
                if hooks == 0:
                    ok = level_hub(core) == hub(mp, mc) and all(
                        delta_ij(mp, mc, i, j)
                        == core.levels[j - 1][i] - core.levels[j - 1][i - 1] - (1 if i == 0 else 0)
                        for j in range(1, r + 1)
                        for i in range(e)
                    )
                    bridge.count(ok, lambda mp=mp: f"level/hub bridge fails for multicore {mp}")
                hub_index.setdefault(hub(mp, mc), set()).add((n, w))
        for h, pairs in hub_index.items():
            for (n1, w1), (n2, w2) in combinations(sorted(pairs), 2):
                same_hub.count(
                    (n1 - n2) % e == 0 and e * (w1 - w2) == r * (n1 - n2),
                    lambda h=h, n1=n1, n2=n2, w1=w1, w2=w2: (
                        f"hub {h}: sizes {n1},{n2} carry weights {w1},{w2}"
                    ),
                )
        if r == 1:
            for n in range(grid.max_n + 1):
                for p in partitions_of(n):
                    classical.count(
                        weight((p,), mc) == _classical_e_weight(p, e),
                        lambda p=p, e=e: f"weight of {p} differs from stripping e={e} rim hooks",
                    )
    return [core_law.result(), fixpoint.result(), bridge.result(), same_hub.result(), classical.result()]


# ---------------------------------------------------------------------------
# bead exchanges


def _grid_multicores(grid: SweepGrid, mc: Multicharge, top_n: int | None = None) -> tuple:
    found = {}
    for n in range((top_n if top_n is not None else grid.max_n) + 1):
        for mp in _multis(n, mc.r):
            core, hooks = to_multicore(mp, mc)
            if hooks == 0:
                found[core.levels] = core
    return tuple(found[k] for k in sorted(found))


def check_smoves(grid: SweepGrid):
    hub_inv = _Recorder("hub_invariance")
    w_move = _Recorder("weight_move_formula")
    symmetry = _Recorder("smove_symmetry")
    inverse = _Recorder("smove_inverse")
    g_shift = _Recorder("gamma_shift_invariance")
    for mc in grid.cells():
        if mc.r == 1:
            continue
        for m in _grid_multicores(grid, mc):
            mp0 = m.to_multipartition()
            h0 = hub(mp0, mc)
            w0 = weight(mp0, mc)
            shifted = Multicore(
                m.e, (tuple(x + 1 for x in m.levels[0]),) + m.levels[1:]
            )
            for mv in _moves(m):
                g = gamma_diff(m, *mv)
                nxt = s_move(m, *mv)
                nxt_mp = nxt.to_multipartition()
                hub_inv.count(
                    hub(nxt_mp, mc) == h0,
                    lambda m=m, mv=mv: f"hub changed by move {mv} at levels {m.levels}",
                )
                w_move.count(
                    weight(nxt_mp, mc) == w0 - mc.r * (g - 2),
                    lambda m=m, mv=mv, g=g: f"weight law fails for move {mv} (gamma {g}) at {m.levels}",
                )
                i, l, j, k = mv
                symmetry.count(
                    nxt == s_move(m, l, i, k, j),
                    lambda mv=mv: f"s_il^jk != s_li^kj at {mv}",
                )
                inverse.count(
                    s_move(nxt, l, i, j, k) == m,
                    lambda mv=mv: f"move {mv} is not undone by its inverse",
                )
                g_shift.count(
                    gamma_diff(shifted, *mv) == g,
                    lambda mv=mv: f"gamma difference not shift-invariant at {mv}",
                )
    return [hub_inv.result(), w_move.result(), symmetry.result(), inverse.result(), g_shift.result()]


# ---------------------------------------------------------------------------
# core blocks


def check_core_blocks(grid: SweepGrid):
    equivalence = _Recorder("core_block_equivalence")
    chain_ok = _Recorder("core_chain_validity")
    spread = _Recorder("core_delta_spread")
    tuple_inv = _Recorder("base_tuple_consistency")
    k_inv = _Recorder("k_block_invariant")
    k_below = _Recorder("k_below_delta")
    caps = _caps_for(grid)
    for mc in grid.cells():
        e, r = mc.e, mc.r
        hub_blocks: dict = {}
        per_n = {}
        for n in range(grid.max_n + 1):
            blist = enumerate_blocks(n, mc, caps)
            per_n[n] = blist
            for blk in blist:
                hub_blocks.setdefault(blk.descriptor.hub, []).append(
                    (n, blk.descriptor.weight)
                )
        for n, blist in per_n.items():
            for blk in blist:
                rep = blk.lex_least
                members_cores = all(
                    to_multicore(mp, mc)[1] == 0 for mp in blk.members
                )
                witness_def = is_core_block(rep, mc)
                minimal_def = not any(
                    w2 < blk.descriptor.weight
                    for (n2, w2) in hub_blocks[blk.descriptor.hub]
                    if n2 < n
                )
                equivalence.count(
                    witness_def == minimal_def == members_cores,
                    lambda blk=blk, a=witness_def, b=minimal_def, c=members_cores: (
                        f"block of {blk.lex_least}: witness={a} minimal={b} all-cores={c}"
                    ),
                )
                res = core_block_of(rep, mc)
                weights = [weight(rep, mc)] + [st.weight_after for st in res.chain]
                chain_ok.count(
                    res.core.hub == blk.descriptor.hub
                    and res.core.weight <= blk.descriptor.weight
                    and (res.core.weight == blk.descriptor.weight) == witness_def
                    and all(a >= b for a, b in zip(weights, weights[1:]))
                    and is_core_block(res.core_multicore),
                    lambda blk=blk: f"bad core chain for block of {blk.lex_least}",
                )
                if not witness_def:
                    continue
                ks = None
                tuples_seen = set()
                for mp in blk.members:
                    m = to_multicore(mp, mc)[0]
                    for i in range(e):
                        lo = min(delta_ij(mp, mc, i, j) for j in range(1, r + 1))
                        hi = max(delta_ij(mp, mc, i, j) for j in range(1, r + 1))
                        spread.count(
                            hi - lo <= 2,
                            lambda mp=mp, i=i: f"delta spread over components exceeds 2 at {mp}, i={i}",
                        )
                    tuples_seen.add(base_tuples(m))
                    kv = tuple(k_value(m, i) for i in range(e))
                    if ks is None:
                        ks = kv
                    k_inv.count(
                        kv == ks,
                        lambda mp=mp, kv=kv, ks=ks: f"K varies across members: {kv} vs {ks} at {mp}",
                    )
                    for i in range(e):
                        k_below.count(
                            kv[i] <= d_min(mp, mc, i),
                            lambda mp=mp, i=i, kv=kv: f"K_{i}={kv[i]} exceeds d_min at {mp}",
                        )
                tuple_inv.count(
                    len(tuples_seen) == 1,
                    lambda blk=blk, t=tuples_seen: f"base tuples differ across members of block of {blk.lex_least}",
                )
    return [
        equivalence.result(),
        chain_ok.result(),
        spread.result(),
        tuple_inv.result(),
        k_inv.result(),
        k_below.result(),
    ]


# ---------------------------------------------------------------------------
# d-bounds


def check_d_bounds(grid: SweepGrid):
    master = _Recorder("master_d_bound")
    drop = _Recorder("d_drop_bound")
    chain_bound = _Recorder("chain_d_bound")
    interval = _Recorder("delta_interval")
    plus_one = _Recorder("core_d_plus_one")
    caps = _caps_for(grid)
    for mc in grid.cells():
        e, r = mc.e, mc.r
        for m in _grid_multicores(grid, mc):
            mp = m.to_multipartition()
            res = core_block_of(mp, mc)
            kv = tuple(k_value(res.core_multicore, i) for i in range(e))
            w = weight(mp, mc)
            h, rem = divmod(w - res.core.weight, r)
            if rem:
                raise LemmaViolation("core_weight_drop", f"{mp} is {w - res.core.weight} over its core")
            ds = tuple(d_min(mp, mc, i) for i in range(e))
            for i in range(e):
                if 0 <= h <= kv[i]:
                    master.count(
                        ds[i] >= kv[i] - h,
                        lambda mp=mp, i=i, h=h, kv=kv, ds=ds: (
                            f"d_min={ds[i]} < K-h={kv[i]-h} at {mp}, i={i}"
                        ),
                    )
            if r >= 2:
                tame = True
                for mv in _moves(m):
                    g = gamma_diff(m, *mv)
                    if abs(g) > 2:
                        tame = False
                    nxt_mp = s_move(m, *mv).to_multipartition()
                    for i in range(e):
                        d2 = d_min(nxt_mp, mc, i)
                        drop.count(
                            d2 >= ds[i] - 2 and (g != 1 or d2 >= ds[i] - 1),
                            lambda mp=mp, mv=mv, i=i, g=g: (
                                f"d drop too large for move {mv} (gamma {g}) at {mp}, i={i}"
                            ),
                        )
                if tame:
                    for i in range(e):
                        lo = min(delta_ij(mp, mc, i, j) for j in range(1, r + 1))
                        hi = max(delta_ij(mp, mc, i, j) for j in range(1, r + 1))
                        interval.count(
                            hi - lo <= 2,
                            lambda mp=mp, i=i: f"delta interval exceeded at {mp}, i={i}",
                        )
                    core_mp0 = res.core_multicore.to_multipartition()
                    if size(core_mp0) <= grid.max_n:
                        for mu in block_containing(core_mp0, mc, caps).members:
                            for i in range(e):
                                plus_one.count(
                                    d_min(mu, mc, i) <= ds[i] + 1,
                                    lambda mp=mp, mu=mu, i=i: (
                                        f"core member {mu} has d_min more than d({mp})+1 at i={i}"
                                    ),
                                )
            strict = []
            for st in res.chain:
                if st.gamma_difference >= 3:
                    strict.append(st)
                else:
                    break
            if strict:
                cur = m
                for st in strict:
                    cur = s_move(cur, st.i, st.l, st.j, st.k)
                end_mp = cur.to_multipartition()
                h2, rem2 = divmod(w - weight(end_mp, mc), r)
                if rem2:
                    raise LemmaViolation("core_weight_drop", f"strict exchanges from {mp}, r={r}")
                for i in range(e):
                    chain_bound.count(
                        ds[i] >= d_min(end_mp, mc, i) - h2,
                        lambda mp=mp, i=i, h2=h2: (
                            f"chain bound fails from {mp} after {h2} strict steps, i={i}"
                        ),
                    )
    return [master.result(), drop.result(), chain_bound.result(), interval.result(), plus_one.result()]


# ---------------------------------------------------------------------------
# the runner swap


def check_phi(grid: SweepGrid):
    involution = _Recorder("phi_involution")
    beta_image = _Recorder("phi_beta_image")
    size_shift = _Recorder("phi_size_shift")
    for mc in grid.cells():
        e = mc.e
        for n in range(grid.max_n + 1):
            for mp in _multis(n, mc.r):
                h = hub(mp, mc)
                for i in range(e):
                    img = phi(mp, mc, i)
                    involution.count(
                        phi(img, mc, i) == mp,
                        lambda mp=mp, i=i: f"swap at residue {i} is not an involution on {mp}",
                    )
                    size_shift.count(
                        size(img) == n - h[i],
                        lambda mp=mp, i=i, img=img: f"size of image of {mp} at i={i} is {size(img)}",
                    )
                    beta_image.count(
                        all(
                            phi_beta_set(beta_set(comp, a), i, e)
                            == beta_set(img_comp, a)
                            for comp, img_comp, a in zip(mp, img, mc.entries)
                        ),
                        lambda mp=mp, i=i: f"beta image mismatch for {mp} at i={i}",
                    )
    return [involution.result(), beta_image.result(), size_shift.result()]


# ---------------------------------------------------------------------------
# branching under the weight condition


def _condition_blocks(grid: SweepGrid, mc: Multicharge, caps: Caps):
    """Yield (block, i, delta) with the weight condition and delta_i >= 0."""
    for n in range(grid.branch_n + 1):
        for blk in enumerate_blocks(n, mc, caps):
            for i in range(mc.e):
                report = scopes_condition(blk.lex_least, mc, i)
                if report.holds and report.delta >= 0:
                    yield blk, i, report.delta


def check_branching(grid: SweepGrid):
    degree_law = _Recorder("branching_degree_law")
    well_defined = _Recorder("branching_well_defined")
    spectrum = _Recorder("branching_spectrum")
    induction_spectrum = _Recorder("branching_induction_spectrum")
    no_addable = _Recorder("no_addable_under_condition")
    no_config = _Recorder("no_forbidden_config")
    caps = _caps_for(grid)
    for mc in grid.cells():
        for blk, i, delta in _condition_blocks(grid, mc, caps):
            if delta > grid.max_delta:
                continue
            ell = delta * (delta - 1) // 2
            expected = degree_spectrum(delta)
            for mp in blk.members:
                no_addable.count(
                    not any(residue(nd, mc) == i for nd in addable_nodes(mp)),
                    lambda mp=mp, i=i: f"{mp} has an addable {i}-node under the condition",
                )
                no_config.count(
                    not has_forbidden_config(mp, mc, i),
                    lambda mp=mp, i=i: f"{mp} shows the forbidden bead pattern at i={i}",
                )
                poly = LaurentPolynomial.zero()
                ipoly = LaurentPolynomial.zero()
                for sigma in permutations(range(1, delta + 1)):
                    try:
                        d = order_degree(mp, mc, i, sigma, caps)
                        well_defined.count(True)
                    except LemmaViolation as exc:
                        well_defined.count(False, str(exc))
                        continue
                    degree_law.count(
                        d == ell - 2 * inversions(sigma),
                        lambda mp=mp, sigma=sigma, d=d, ell=ell: (
                            f"order {sigma} on {mp} gave degree {d}, expected {ell - 2 * inversions(sigma)}"
                        ),
                    )
                    poly = poly + LaurentPolynomial.monomial(d)
                    try:
                        di = induction_order_degree(mp, mc, i, sigma, caps)
                        well_defined.count(True)
                    except LemmaViolation as exc:
                        well_defined.count(False, str(exc))
                        continue
                    ipoly = ipoly + LaurentPolynomial.monomial(di)
                spectrum.count(
                    poly == expected,
                    lambda mp=mp, i=i, poly=poly, expected=expected: (
                        f"restriction spectrum of {mp} at i={i} is {poly!r}, expected {expected!r}"
                    ),
                )
                induction_spectrum.count(
                    ipoly == expected,
                    lambda mp=mp, i=i, ipoly=ipoly, expected=expected: (
                        f"induction spectrum of {mp} at i={i} is {ipoly!r}, expected {expected!r}"
                    ),
                )
    return [
        degree_law.result(),
        well_defined.result(),
        spectrum.result(),
        induction_spectrum.result(),
        no_addable.result(),
        no_config.result(),
    ]


# ---------------------------------------------------------------------------
# block pairing, lex and Kleshchev preservation


def check_scopes_maps(grid: SweepGrid):
    bijection = _Recorder("block_bijection")
    weight_pres = _Recorder("weight_preserved")
    lex_pres = _Recorder("lex_order_preserved")
    kle_pres = _Recorder("kleshchev_preserved")
    oracle = _Recorder("kleshchev_restricted_oracle")
    caps = _caps_for(grid)
    # the runner swap can grow a multipartition well past the grid bound,
    # so image-block lookups get a generous ceiling of their own
    wide = Caps(
        max_n=8 * (grid.max_n + 2),
        max_r=max(grid.levels),
        max_e=max(grid.es),
        max_delta=grid.max_delta,
    )
    for mc in grid.cells():
        for n in range(grid.max_n + 1):
            for blk in enumerate_blocks(n, mc, caps):
                for i in range(mc.e):
                    pairs = scopes_pairing(blk, i)
                    images = [img for _, img in pairs]
                    target = block_containing(images[0], mc, wide)
                    bijection.count(
                        len(set(images)) == len(images)
                        and set(images) == set(target.members),
                        lambda blk=blk, i=i: (
                            f"pairing of block of {blk.lex_least} at i={i} is not a bijection"
                        ),
                    )
                    weight_pres.count(
                        all(weight(img, mc) == weight(src, mc) for src, img in pairs),
                        lambda blk=blk, i=i: (
                            f"weight not preserved on block of {blk.lex_least} at i={i}"
                        ),
                    )
        for blk, i, _delta in _condition_blocks(grid, mc, caps):
            lex_pres.count(
                verify_lex_preserved(blk, i).holds,
                lambda blk=blk, i=i: (
                    f"lex order broken on block of {blk.lex_least} at i={i}"
                ),
            )
            kle_pres.count(
                verify_kleshchev_preserved(blk, i).holds,
                lambda blk=blk, i=i: (
                    f"kleshchev flag not preserved on block of {blk.lex_least} at i={i}"
                ),
            )
    for e in grid.es:
        mc = Multicharge(e, (0,))
        for n in range(grid.oracle_n + 1):
            for p in partitions_of(n):
                padded = p + (0,)
                restricted = all(padded[b] - padded[b + 1] < e for b in range(len(p)))
                oracle.count(
                    is_kleshchev((p,), mc) == restricted,
                    lambda p=p, e=e: f"good-node recursion disagrees with e-restriction at {p}, e={e}",
                )
    return [
        bijection.result(),
        weight_pres.result(),
        lex_pres.result(),
        kle_pres.result(),
        oracle.result(),
    ]


# ---------------------------------------------------------------------------
# Mahonian numbers and counting


def check_mahonian(grid: SweepGrid):
    identity = _Recorder("mahonian_product_identity")
    symmetry = _Recorder("mahonian_symmetry")
    for delta in range(9):
        counts = mahonian(delta)
        prod = LaurentPolynomial.one()
        for m in range(1, delta + 1):
            prod = prod * LaurentPolynomial({d: 1 for d in range(m)})
        expected = tuple(prod.coefficient(k) for k in range(delta * (delta - 1) // 2 + 1))
        identity.count(
            counts == expected,
            lambda delta=delta, counts=counts, expected=expected: (
                f"mahonian({delta}) = {counts} but the product gives {expected}"
            ),
        )
        symmetry.count(
            counts == counts[::-1],
            lambda delta=delta: f"mahonian({delta}) is not palindromic",
        )
    return [identity.result(), symmetry.result()]


def _partition_counts(top: int) -> list:
    dp = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            dp[total] += dp[total - part]
    return dp


def check_enumeration(grid: SweepGrid):
    complete = _Recorder("block_partition_complete")
    caps = _caps_for(grid)
    single = _partition_counts(grid.max_n)
    for mc in grid.cells():
        level_counts = [1] + [0] * grid.max_n
        for _ in range(mc.r):
            level_counts = [
                sum(level_counts[m] * single[t - m] for m in range(t + 1))
                for t in range(grid.max_n + 1)
            ]
        for n in range(grid.max_n + 1):
            blocks = enumerate_blocks(n, mc, caps)
            complete.count(
                sum(len(b.members) for b in blocks) == level_counts[n]
                and len({mp for b in blocks for mp in b.members}) == level_counts[n],
                lambda n=n, mc=mc: f"blocks of n={n}, charge {mc.entries} do not partition",
            )
    return [complete.result()]


# ---------------------------------------------------------------------------
# driver


def run_all(grid: SweepGrid = DEFAULT_GRID):
    """Run every sweep; returns LemmaResults in a fixed order."""
    results = []
    results += check_orders(grid)
    results += check_residues(grid)
    results += check_beta(grid)
    results += check_weights(grid)
    results += check_smoves(grid)
    results += check_core_blocks(grid)
    results += check_d_bounds(grid)
    results += check_phi(grid)
    results += check_branching(grid)
    results += check_scopes_maps(grid)
    results += check_mahonian(grid)
    results += check_enumeration(grid)
    return tuple(results)


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
        "results": [
            {
                "lemma": r.lemma,
                "instances": r.instances,
                "ok": r.ok,
                "violations": list(r.violations),
            }
            for r in results
        ],
    }
