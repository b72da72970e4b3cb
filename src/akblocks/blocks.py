"""Blocks: residue counts, weight, hub, core blocks, and the K invariant.

Two multipartitions of the same size lie in the same block exactly when
their residue multisets agree; the pair (hub, size) carries the same
information.  Every block has a nonnegative integer weight; blocks of
minimal weight among all blocks with their hub are the *core blocks*, and
every block reaches one along hub-preserving bead exchanges.  Core blocks
carry the K invariant that feeds the runner-swap condition.

Block enumeration never lists all multipartitions of n.  A block's
residue counts are the sum of its components' counts, and each of those
depends on one partition and one charge mod e.  So per charge residue the
partitions of every size up to n are tabled by residue counts in one
walk, and a block is a join of these tables: ``block_containing`` splits
the target counts over the components, ``enumerate_blocks`` groups every
composition of n by summed counts.
"""

from collections import deque
from functools import lru_cache
from itertools import chain, combinations, product
from operator import sub
from typing import NamedTuple

from .abacus import Multicore, _exchange, _to_multicore
from .caps import Caps, default_caps
from .errors import CapExceeded, InputError, LemmaViolation
from .multipartition import (
    CACHE_SIZE,
    Multicharge,
    Multipartition,
    _check_range,
    _checked,
    _counts,
    _is_int,
    residue_counts,
    size,
)

__all__ = [
    "BlockDescriptor",
    "Block",
    "SMoveStep",
    "CoreBlockResult",
    "ScopesReport",
    "residue_counts",
    "weight",
    "delta_ij",
    "hub",
    "level_hub",
    "block_of",
    "same_block",
    "enumerate_blocks",
    "block_containing",
    "witness_offsets",
    "is_core_block",
    "base_tuples",
    "k_value",
    "d_min",
    "core_block_of",
    "scopes_condition",
]

# A function is cached only where a workload re-reads it, at most CACHE_SIZE entries.  Its comment gives
# cache_info() hits / misses after verify.run_all on the default grid ("sweep") or 300 README point queries.


# ---------------------------------------------------------------------------
# residue counts, weight, hub


def weight(mp: Multipartition, charge: Multicharge) -> int:
    """Block weight: sum_j c_{kappa_j} - (1/2) sum_i (c_i - c_{i+1})^2.

    Computed in integer arithmetic.  The quadratic term is always even
    (the cyclic differences c_i - c_{i+1} sum to zero, and x^2 has the
    parity of x), so the halving is exact.  Bad input is an InputError, a negative weight a LemmaViolation.
    """
    return _weight(_checked(mp, charge), charge)


def _weight(mp: Multipartition, charge: Multicharge) -> int:
    """``weight`` of a checked multipartition."""
    return _counts_weight(_counts(mp, charge), charge.entries, mp)


def _counts_weight(c: tuple, charges: tuple, subject, label: str = "") -> int:
    """The weight of residue counts c at these charges, reduced here mod
    e = len(c) (see ``weight``); a negative one raises, naming ``label`` +
    ``subject`` only then.  The cyclic differences are taken as
    c[i - 1] - c[i], which squares the same."""
    e = len(c)
    lin = 0
    for a in charges:
        lin += c[a % e]
    quad = 0
    prev = c[-1]
    for x in c:
        quad += (prev - x) * (prev - x)
        prev = x
    w = (2 * lin - quad) // 2
    if w < 0:
        raise LemmaViolation("weight_nonnegative", f"negative weight {w} for {label}{subject}")
    return w


def _level_counts(m: Multicore) -> tuple:
    """Residue counts of a multicore's multipartition, read off its levels
    in O(r*e) without decoding.

    Per component of charge a, the vacuum's lowest bead on runner i is at
    level v_i = (a - 1 - i) // e, so runner i holds N_i = l_i - v_i beads
    more than the vacuum; moving a bead from runner i-1 to i adds an
    i-node, so N_i = c_i - c_{i+1}.  The beta-numbers sum to the size more
    than the vacuum's.  With c_i = c_0 - (N_0 + ... + N_{i-1}) the size
    fixes c_0.  v_i is (a - 1) // e up to runner (a - 1) mod e and one less
    after it, so it is stepped down once, not divided out per runner.
    """
    e = m.e
    dropped = [0] * e  # per runner, the drops summed over the rows
    c0 = 0  # the rows' c_0 summed
    for row in m.levels:
        a = e + sum(row)
        v = (a - 1) // e
        cut = (a - 1) % e + 1  # the runner where v steps down
        n = drop = drops = 0
        for i, l in enumerate(row):
            if i == cut:
                v -= 1
            d = l - v  # N_i
            n += e * (d * (l + v + 1) // 2) + i * d  # l(l + 1) - v(v + 1) = d(l + v + 1), always even
            dropped[i] += drop
            drops += drop
            drop += d
        c0 += (n + drops) // e
    return tuple([c0 - d for d in dropped])


def _level_weight(m: Multicore, charges: tuple) -> int:
    """``weight`` of a multicore's multipartition, from ``_level_counts``;
    charges are its charges, or any congruent to them mod e, which no
    exchange changes."""
    return _counts_weight(_level_counts(m), charges, m.levels, "levels ")


def _hub_matrix(mp: Multipartition, charge: Multicharge) -> list:
    """Per-component hub: row j-1 holds delta_i^j for i in Z/eZ.

    Read off the rows in O(rows + r*e), with no test of which row ends
    are removable or addable: row b of width w (charge a) marks +1 at
    residue a + w - b, its last node, and -1 at a + w - b + 1, one past
    it, and the empty row past the last one marks -1 at a - (number of
    rows).  Between two rows of equal width the lower row's -1 falls on
    the upper row's +1, so in a run of equal rows only the top -1 (the
    addable node past the run) and the bottom +1 (its removable node)
    survive.
    """
    e = charge.e
    out = []
    for a, comp in zip(charge.entries, mp):
        row = [0] * e
        for b, w in enumerate(comp, start=1):
            end = a + w - b
            row[end % e] += 1
            row[(end + 1) % e] -= 1
        row[(a - len(comp)) % e] -= 1
        out.append(row)
    return out


def delta_ij(mp: Multipartition, charge: Multicharge, i: int, j: int) -> int:
    """Removable minus addable i-nodes of component j (1-based)."""
    _check_range("component index", 1, len(mp), j)
    _check_range("residue", 0, charge.e - 1, i)
    return _hub_matrix(_checked(mp, charge), charge)[j - 1][i]


def hub(mp: Multipartition, charge: Multicharge) -> tuple:
    """The hub: for each residue i, removable minus addable i-nodes.

    Entries sum to -r; together with the size it determines the block.
    """
    return _hub(_checked(mp, charge), charge)


def _hub(mp: Multipartition, charge: Multicharge) -> tuple:
    """``hub`` of a checked multipartition, read off its residue counts c in
    O(e): delta_i = 2c_i - c_{i-1} - c_{i+1} - #{j : kappa_j = i}, minus the
    pairing of the coroot h_i with Lambda - sum_k c_k alpha_k.  The column
    sums of ``_hub_matrix`` are its independent route."""
    c = _counts(mp, charge)
    e = charge.e
    out = [2 * x - c[i - 1] - c[(i + 1) % e] for i, x in enumerate(c)]
    for a in charge.entries:
        out[a % e] -= 1
    return tuple(out)


def level_hub(m: Multicore) -> tuple:
    """Hub of a multicore read off its level matrix.

    Per component, delta_i = l_i - l_{i-1} for i != 0 and
    delta_0 = l_0 - l_{e-1} - 1; summed over components, that is
    s_i - s_{i-1} - r[i = 0] for the column sums s.  This bridge is
    specific to multicores; it fails for general multipartitions.
    """
    s = tuple(map(sum, zip(*m.levels)))  # the column sums of the level matrix
    return (s[0] - s[-1] - m.r, *map(sub, s[1:], s))


def _level_hub_matrix(m: Multicore) -> list:
    """Per-component hub of a multicore, as ``_hub_matrix`` lays it out:
    delta_i^j = l_{j,i} - l_{j,i-1} - [i = 0]."""
    return [[row[0] - row[-1] - 1, *map(sub, row[1:], row)] for row in m.levels]


# ---------------------------------------------------------------------------
# block descriptors and enumeration


class BlockDescriptor(NamedTuple):
    """Invariants that pin down a block: size, level, e, charges mod e, hub, weights."""

    n: int
    r: int
    e: int
    kappa: tuple
    hub: tuple
    weight: int
    core_weight: int

    def to_json(self) -> dict:
        return {**self._asdict(), "kappa": list(self.kappa), "hub": list(self.hub)}

    @property
    def is_core(self) -> bool:
        return self.weight == self.core_weight


class Block(NamedTuple):
    """A block together with its full membership list, lex-descending."""

    descriptor: BlockDescriptor
    charge: Multicharge
    members: tuple

    @property
    def lex_least(self) -> Multipartition:
        return self.members[-1]


def block_of(mp: Multipartition, charge: Multicharge) -> BlockDescriptor:
    """Descriptor of the block containing mp."""
    return _block_of(_checked(mp, charge), charge)


def _block_of(mp: Multipartition, charge: Multicharge) -> BlockDescriptor:
    """``block_of`` of a checked multipartition: its core block's descriptor, at mp's size and weight."""
    core = _core_block_of(mp, charge)
    return core.core._replace(n=size(mp), weight=_start_weight(core))


def same_block(lam: Multipartition, mu: Multipartition, charge: Multicharge) -> bool:
    """Same-block test via residue multisets; sizes must agree."""
    lam, mu = _checked(lam, charge), _checked(mu, charge)
    if size(lam) != size(mu):
        raise InputError("same_block compares multipartitions of equal size")
    return _counts(lam, charge) == _counts(mu, charge)


# (e, a) -> the tables of the largest walk (a = 0) or rotation of one (a != 0) made there, which
# serve every smaller top: 5,332 lookups make 36 walks and 17 rotations in the sweep, 6 make 1 and 2 in certify
_WALKS: dict = {}


def _component_tables(top: int, e: int, a: int) -> tuple:
    """Per size s up to at least top, the partitions of s keyed by residue
    counts at charge residue a (an entry of ``Multicharge.kappa``), each
    list lex-descending.  Only residue 0 is walked (``_walk``): a node's
    residue is a + col - row, so the key at a is the key at 0 rotated by a,
    c^a[x] = c^0[x - a], and the rotated tables share the partition lists."""
    if len(_WALKS.get((e, a), ())) > top:
        return _WALKS[e, a]
    if a:
        walked = _component_tables(top, e, 0)
        tables = tuple([{key[-a:] + key[:-a]: ps for key, ps in table.items()} for table in walked])
    else:
        tables = _walk(top, e, 0)
    if len(_WALKS) >= CACHE_SIZE:
        _WALKS.clear()
    _WALKS[e, a] = tables
    return tables


def _walk(top: int, e: int, a: int) -> tuple:
    """The tables of ``_component_tables`` from scratch: one depth-first walk
    appends rows widest first, row b growing by one node of residue
    a - b + w at a time."""
    tables = [{} for _ in range(top + 1)]
    stack = [((), (0,) * e, 0)]
    while stack:
        parts, counts, s = stack.pop()
        tables[s].setdefault(counts, []).append(parts)
        b = len(parts) + 1
        row = list(counts)
        for w in range(1, min(parts[-1] if parts else top, top - s) + 1):  # the widest pops first
            row[(a - b + w) % e] += 1
            stack.append((parts + (w,), tuple(row), s + w))
    return tuple([{key: tuple(ps) for key, ps in table.items()} for table in tables])


def _split(target: tuple, e: int, kappa: tuple) -> list:
    """Every way to write the residue counts target as a sum of one table
    key per component, as one partition list per component: components
    1..r-1 take keys that leave no count negative, and the last
    component's key is what remains."""
    tables = [_component_tables(sum(target), e, a) for a in kappa]
    states = [((), target)]
    for table in tables[:-1]:
        nxt = []
        for lists, rem in states:
            for s in range(sum(rem) + 1):
                for key, parts in table[s].items():
                    left = tuple(map(sub, rem, key))
                    if min(left) >= 0:
                        nxt.append((lists + (parts,), left))
        states = nxt
    last = ((lists, tables[-1][sum(rem)].get(rem)) for lists, rem in states)
    return [lists + (parts,) for lists, parts in last if parts]


def _members(splits) -> tuple:
    """The multipartitions with one partition from each list of a split,
    lex-descending."""
    return tuple(sorted(chain.from_iterable(product(*lists) for lists in splits), reverse=True))


def enumerate_blocks(n: int, charge: Multicharge, caps: Caps | None = None) -> tuple:
    """All blocks of size n, sorted by lexicographically least member."""
    caps = caps or default_caps()
    if not _is_int(n) or n < 0:
        raise InputError("block enumeration needs n >= 0")
    caps.check(n=n, r=charge.r, e=charge.e)
    # the table entries of every composition of n, grouped by summed key
    e, kappa = charge.e, charge.kappa
    sums: dict = {(0,) * e: [()]}
    last = len(kappa) - 1
    for j, tables in enumerate(_component_tables(n, e, a) for a in kappa):
        nxt: dict = {}
        for total, splits in sums.items():
            left = n - sum(total)
            for s in (left,) if j == last else range(left + 1):
                for key, parts in tables[s].items():
                    acc = nxt.setdefault(tuple(map(sum, zip(total, key))), [])
                    acc.extend(lists + (parts,) for lists in splits)
        sums = nxt
    return tuple(
        Block(descriptor=_block_of(members[-1], charge), charge=charge, members=members)
        for members in sorted(map(_members, sums.values()), key=lambda members: members[-1])
    )


def block_containing(mp: Multipartition, charge: Multicharge, caps: Caps | None = None) -> Block:
    """The full block (with members) containing mp.

    Only the block's own residue counts are split over the components, so
    the cost follows the per-component tables, not the number of all
    multipartitions of the same size.
    """
    return _block_containing(_checked(mp, charge), charge, caps or default_caps())


def _block_containing(mp: Multipartition, charge: Multicharge, caps: Caps) -> Block:
    """``block_containing`` of a checked multipartition."""
    caps.check(n=size(mp), r=charge.r, e=charge.e)
    members = _members(_split(_counts(mp, charge), charge.e, charge.kappa))
    return Block(descriptor=_block_of(members[-1], charge), charge=charge, members=members)


# ---------------------------------------------------------------------------
# core blocks: witnesses, base tuples, K


@lru_cache(maxsize=CACHE_SIZE)  # sweep 12,789 / 1,052, point queries 905 / 309
def witness_offsets(m: Multicore) -> tuple:
    """All offset vectors t (t_1 = 0) adjusting component charges by t_j * e
    so that every runner's levels pairwise differ by at most 1.

    Nonempty exactly when m belongs to a core block.  Each component's
    offset is confined to a window of at most three integers, so the
    search is exact and cheap.  Each candidate is checked one runner at a
    time, up to the first runner whose adjusted levels spread over 1.
    """
    lv = m.levels
    e, r = m.e, m.r
    if r == 1:
        return ((0,),)
    top = lv[0]
    windows = []
    for j in range(1, r):
        row = lv[j]
        most = least = top[0] - row[0]  # of the level differences d_i = l_{1,i} - l_{j,i}
        for i in range(1, e):
            d = top[i] - row[i]
            if d > most:
                most = d
            elif d < least:
                least = d
        if most - least > 2:
            return ()
        windows.append(range(most - 1, least + 2))
    out = []
    for tail in product(*windows):
        t = (0,) + tail
        for i in range(e):  # runner i's adjusted levels may spread over at most 1
            low = high = top[i]
            for j in range(1, r):
                x = lv[j][i] + t[j]
                if x < low:
                    low = x
                elif x > high:
                    high = x
            if high - low > 1:
                break
        else:
            out.append(t)
    return tuple(out)


def is_core_block(obj, charge: Multicharge | None = None) -> bool:
    """Whether the block of the given multicore/multipartition is a core block.

    A multipartition needs its multicharge.  A non-multicore multipartition
    never lies in a core block, so it answers False rather than erroring.
    """
    if isinstance(obj, Multicore):
        return bool(witness_offsets(obj))
    if charge is None:
        raise InputError("a multipartition needs an accompanying multicharge")
    core, hooks = _to_multicore(_checked(obj, charge), charge)
    return hooks == 0 and bool(witness_offsets(core))


def _canonical_witness(m: Multicore) -> tuple:
    """Most runners forced to a single level, ties broken lex-least."""
    ws = witness_offsets(m)
    if not ws:
        raise InputError("not a member of a core block")
    lv = m.levels

    def singletons(t):
        return sum(
            1 for i in range(m.e) if len({lv[j][i] + t[j] for j in range(m.r)}) == 1
        )

    return min(ws, key=lambda t: (-singletons(t), t))


def base_tuples(m: Multicore) -> tuple:
    """All base tuples of the core block, for the canonical witness.

    Under a witness, runner i's levels occupy {b_i, b_i + 1} for the base
    values b_i: a two-level runner forces b_i, a flat runner allows two
    choices.  Tuples are returned sorted; only differences b_i - b_l are
    meaningful, and all arise from the same witness normalisation.
    """
    t = _canonical_witness(m)
    lv = m.levels
    choices = []
    for i in range(m.e):
        vals = sorted({lv[j][i] + t[j] for j in range(m.r)})
        if vals[-1] - vals[0] > 1:
            raise LemmaViolation("witness_level_spread", f"witness {t} puts runner {i} at {vals}")
        choices.append((vals[0],) if len(vals) == 2 else (vals[0] - 1, vals[0]))
    return tuple(sorted(product(*choices)))


def k_value(m: Multicore, i: int) -> int:
    """The K invariant of a core block at residue i.

    For one witness, the extreme base-tuple choice gives
    K_i = min_j l'_ij - max_j l'_(i-1)j - [i = 0]; the invariant is the
    maximum over all witnesses (distinct witnesses can disagree).
    """
    _check_range("residue", 0, m.e - 1, i)
    ws = witness_offsets(m)
    if not ws:
        raise InputError("K is only defined on core blocks")
    lv = m.levels
    top, rows = lv[0], range(1, m.r)
    best = None
    for t in ws:  # t_1 = 0, so the first component's levels start the running min and max
        low, high = top[i], top[i - 1]
        for j in rows:
            row, tj = lv[j], t[j]
            x = row[i] + tj
            if x < low:
                low = x
            x = row[i - 1] + tj
            if x > high:
                high = x
        if best is None or low - high > best:
            best = low - high
    return best - 1 if i == 0 else best


def d_min(mp: Multipartition, charge: Multicharge, i: int) -> int:
    """Smallest per-component hub entry: min_j delta_i^j."""
    _check_range("residue", 0, charge.e - 1, i)
    return min(row[i] for row in _hub_matrix(_checked(mp, charge), charge))


# ---------------------------------------------------------------------------
# reaching the core block


class SMoveStep(NamedTuple):
    """One recorded bead exchange along a core-block chain."""

    i: int
    l: int
    j: int
    k: int
    gamma_difference: int
    weight_before: int
    weight_after: int

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "l": self.l,
            "j": self.j,
            "k": self.k,
            "gamma": self.gamma_difference,
            "weight_before": self.weight_before,
            "weight_after": self.weight_after,
        }


class CoreBlockResult(NamedTuple):
    """Where a block's weight goes when all of it is stripped away."""

    core: BlockDescriptor
    chain: tuple
    core_multicore: Multicore
    hooks_removed: int


def _moves(m: Multicore, minimum: int | None = None):
    """All genuine exchanges as ((i, l, j, k), gamma difference), with
    gamma difference >= minimum when one is given, in fixed order."""
    lv, e = m.levels, m.e
    for j, k in combinations(range(len(lv)), 2):
        g = [x - y for x, y in zip(lv[j], lv[k])]
        if minimum is not None and max(g) - min(g) < minimum:
            continue  # no move of this pair reaches the minimum
        for i in range(e):
            for l in range(e):
                if l != i and (minimum is None or g[i] - g[l] >= minimum):
                    yield (i, l, j + 1, k + 1), g[i] - g[l]


def _greedy_move(m: Multicore):
    """The first exchange of ``_moves(m, 3)``, as (i, l, j, k), or None,
    found with plain loops: the first pair j < k whose level differences g
    span 3 or more, the first runner i with g_i >= min(g) + 3, and the
    first runner l with g_l <= g_i - 3."""
    lv = m.levels
    r = len(lv)
    for j in range(r):
        top = lv[j]
        for k in range(j + 1, r):
            g = [x - y for x, y in zip(top, lv[k])]
            low = min(g)
            if max(g) - low < 3:
                continue
            for i, x in enumerate(g):
                if x - low >= 3:
                    for l, y in enumerate(g):
                        if x - y >= 3:
                            return i, l, j + 1, k + 1
    return None


# Most states the breadth-first phase of _core_search may visit; past it
# the search raises CapExceeded rather than running on.  The largest search
# seen visits 21 states: 10 over every multipartition with n <= 8 on the
# default verification grid, 21 over 36,000 seeded multipartitions of 100
# to 10^4 nodes.
SEARCH_STATES = 5000


def _core_search(m: Multicore) -> tuple:
    """A hub-preserving, weight-non-increasing move sequence into a core block,
    as (move, multicore it reaches) pairs.

    Phase one greedily takes any exchange with gamma difference >= 3
    (each strictly lowers the weight).  If the result is not yet in a
    core block, phase two breadth-first searches all non-increasing
    exchanges; same hub plus bounded weight keeps the state space finite,
    a path always exists, and at most SEARCH_STATES states are visited.
    """
    moves = []
    cur = m
    while True:
        mv = _greedy_move(cur)
        if mv is None:
            break
        cur = _exchange(cur, *mv)
        moves.append((mv, cur))
    if witness_offsets(cur):
        return tuple(moves)
    prev = {cur: None}
    queue = deque([cur])
    while queue:
        node = queue.popleft()
        for mv, _ in _moves(node, 2):
            nxt = _exchange(node, *mv)
            if nxt in prev:
                continue
            prev[nxt] = (node, mv)
            if witness_offsets(nxt):
                back = []
                walk = nxt
                while prev[walk] is not None:
                    parent, step = prev[walk]
                    back.append((step, walk))
                    walk = parent
                return tuple(moves) + tuple(reversed(back))
            if len(prev) > SEARCH_STATES:
                raise CapExceeded(
                    f"exchange search from levels {m.levels} visited over {SEARCH_STATES} states"
                )
            queue.append(nxt)
    raise LemmaViolation(
        "core_block_reachability",
        f"no weight-non-increasing exchange path from levels {m.levels} reaches a core block",
    )


def core_block_of(mp: Multipartition, charge: Multicharge) -> CoreBlockResult:
    """Strip rim hooks, then walk bead exchanges down to the core block.

    The recorded chain keeps the hub constant and never increases the
    weight; both facts are checked step by step, along with the exchange
    weight law w(next) = w(cur) - r*(gamma_difference - 2).  A failed
    check raises LemmaViolation under the anchor of the law it broke.
    The steps are checked on level matrices: each state the search
    reached is checked once, and its residue counts (``_level_counts``)
    give its weight and, for the core, its size.  No multicore is decoded.
    mp is checked before the cache is read, so a True part is never taken for a 1.
    """
    return _core_block_of(_checked(mp, charge), charge)


@lru_cache(maxsize=CACHE_SIZE)  # sweep 4,530 / 1,837, point queries 600 / 300
def _core_block_of(mp: Multipartition, charge: Multicharge) -> CoreBlockResult:
    """``core_block_of`` of a checked multipartition."""
    m0, hooks = _to_multicore(mp, charge)
    h0 = _hub(mp, charge)
    r, charges = charge.r, charge.entries
    cur, counts = m0, _level_counts(m0)
    cur_w = _counts_weight(counts, charges, cur.levels, "levels ")
    if cur_w != _weight(mp, charge) - r * hooks:
        raise LemmaViolation(
            "weight_core_law", f"the {hooks} rim hooks of {mp} do not carry weight {r} each"
        )
    chain = []
    for mv, nxt in _core_search(m0):
        i, l, j, k = mv
        lj, lk = cur.levels[j - 1], cur.levels[k - 1]
        g = lj[i] - lk[i] - (lj[l] - lk[l])  # gamma(i;j,k) - gamma(l;j,k)
        counts = _level_counts(nxt)
        nxt_w = _counts_weight(counts, charges, nxt.levels, "levels ")
        if level_hub(nxt) != h0:
            raise LemmaViolation("hub_invariance", f"exchange {mv} changed the hub of levels {cur.levels}")
        if nxt_w != cur_w - r * (g - 2):
            raise LemmaViolation("weight_move_formula", f"exchange {mv} (gamma {g}) on levels {cur.levels}")
        chain.append(SMoveStep(i, l, j, k, g, cur_w, nxt_w))
        cur, cur_w = nxt, nxt_w
    if not witness_offsets(cur):
        raise LemmaViolation(
            "core_block_reachability", f"the exchange chain from {mp} ends outside a core block"
        )
    descriptor = BlockDescriptor(sum(counts), r, charge.e, charge.kappa, h0, cur_w, cur_w)
    return CoreBlockResult(descriptor, tuple(chain), cur, hooks)


def _start_weight(res: CoreBlockResult) -> int:
    """w(mp) for res = core_block_of(mp): its multicore's weight plus r per
    rim hook, which core_block_of checks against ``weight`` (weight_core_law)."""
    return (res.chain[0].weight_before if res.chain else res.core.weight) + res.core.r * res.hooks_removed


# ---------------------------------------------------------------------------
# the runner-swap condition


class ScopesReport(NamedTuple):
    """Verdict of the weight-versus-K condition for one block and residue."""

    holds: bool
    w_b: int
    w_c: int
    k: int
    delta: int

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "wB": self.w_b,
            "wC": self.w_c,
            "K": self.k,
            "delta": self.delta,
        }


def scopes_condition(mp: Multipartition, charge: Multicharge, i: int) -> ScopesReport:
    """Evaluate w(B) <= w(C) + K_i * r for the block of mp.

    Evaluated literally, including K_i < 0 (where it can fail even for the
    core block itself); holds=False is a report, not an error.
    """
    return _scopes_condition(_checked(mp, charge), charge, i)


def _scopes_condition(mp: Multipartition, charge: Multicharge, i: int) -> ScopesReport:
    """``scopes_condition`` of a checked multipartition."""
    res = _core_block_of(mp, charge)
    w_b = _start_weight(res)
    k = k_value(res.core_multicore, i)
    w_c = res.core.weight
    return ScopesReport(w_b <= w_c + k * charge.r, w_b, w_c, k, res.core.hub[i])
