"""Abacus displays on e runners: beta-sets, multicores, bead moves.

A partition with charge a is encoded by its beta-set
B = {lambda_k + a - k : k >= 1}, an infinite down-closed set of integers.
We store it finitely as the symmetric difference from the vacuum
{x : x < a}.  Position p sits on runner p mod e at level p // e; levels
grow downward in drawings, so the "lowest" bead on a runner is the one
with the largest level.

A multipartition is a multicore when every bead has a bead immediately
above it (p in B implies p - e in B); sliding one bead up one level
removes one rim e-hook.  Multicores are stored as the matrix of lowest
occupied levels per runner and component.
"""

from dataclasses import dataclass

from .errors import InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    Multipartition,
    Partition,
    _check_level,
    _signatures,
    as_partition,
)

_WINDOW_SLACK = 100  # levels a drawing may reach past its default window; it is built in memory

__all__ = [
    "BetaSet",
    "AbacusDisplay",
    "Multicore",
    "beta_set",
    "partition_of",
    "to_multicore",
    "as_multicore",
    "s_move",
    "gamma",
    "gamma_diff",
    "phi_int",
    "phi_beta_set",
    "phi",
    "has_forbidden_config",
    "render",
    "parse_abacus",
]


@dataclass(frozen=True)
class BetaSet:
    """An infinite down-closed bead set, stored as (charge, delta).

    ``delta`` is the finite symmetric difference from the vacuum
    {x : x < charge}.  Membership: p is a bead iff (p < charge) XOR
    (p in delta).  Down-closedness of the encoded set is NOT implied --
    arbitrary finite perturbations are allowed -- but the bead counts must
    balance: |delta below charge| == |delta at or above charge|.
    """

    charge: int
    delta: frozenset

    def __post_init__(self):
        if not isinstance(self.charge, int):
            raise InputError(f"charge must be an integer, got {self.charge!r}")
        d = frozenset(self.delta)
        if not all(isinstance(p, int) for p in d):
            raise InputError("beta-set perturbation must contain integers")
        removed = sum(1 for p in d if p < self.charge)
        added = len(d) - removed
        if removed != added:
            raise InputError(
                f"unbalanced beta-set: {removed} beads removed vs {added} added relative to charge {self.charge}"
            )
        object.__setattr__(self, "delta", d)

    def __contains__(self, p: int) -> bool:
        return (p < self.charge) != (p in self.delta)

    def min_gap(self) -> int:
        """Smallest position that is NOT a bead."""
        below = [p for p in self.delta if p < self.charge]
        if below:
            return min(below)
        p = self.charge
        while p in self.delta:
            p += 1
        return p

    def max_bead(self) -> int:
        """Largest position that IS a bead."""
        above = [p for p in self.delta if p >= self.charge]
        if above:
            return max(above)
        p = self.charge - 1
        while p in self.delta:
            p -= 1
        return p

    def beads_down_to(self, cutoff: int):
        """All beads >= cutoff, descending."""
        hi = max(self.max_bead(), cutoff)
        return [p for p in range(hi, cutoff - 1, -1) if p in self]


def beta_set(partition: Partition, charge: int) -> BetaSet:
    """Beta-set of a partition: {part_k + charge - k} padded by the vacuum."""
    parts = as_partition(partition)
    top = {w + charge - k for k, w in enumerate(parts, 1)}
    vac = set(range(charge - len(parts), charge))
    return BetaSet(charge, frozenset(top ^ vac))


def _decode(betas: list, charge: int) -> Partition:
    """The partition with beads ``betas`` (descending) at or above some t and
    every bead below t, where len(betas) == charge - t: valid by construction."""
    parts = [b - charge + k for k, b in enumerate(betas, 1)]
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts)


def partition_of(bs: BetaSet):
    """Decode a beta-set back to (partition, charge)."""
    low = bs.min_gap()
    betas = bs.beads_down_to(low)
    if len(betas) != bs.charge - low:
        raise LemmaViolation("beta_bead_balance", f"{bs} has {len(betas)} beads from {low} up")
    return _decode(betas, bs.charge), bs.charge


@dataclass(frozen=True)
class AbacusDisplay:
    """One beta-set per component, drawn on a common set of e runners."""

    e: int
    components: tuple

    def __post_init__(self):
        if not isinstance(self.e, int) or self.e < 2:
            raise InputError(f"e must be an integer >= 2, got {self.e!r}")
        comps = tuple(self.components)
        if not comps or not all(isinstance(c, BetaSet) for c in comps):
            raise InputError("components must be a nonempty tuple of BetaSet")
        object.__setattr__(self, "components", comps)

    @property
    def r(self) -> int:
        return len(self.components)

    @classmethod
    def from_multipartition(cls, mp: Multipartition, charge: Multicharge) -> "AbacusDisplay":
        _check_level(mp, charge)
        return cls(charge.e, tuple(beta_set(c, a) for c, a in zip(mp, charge.entries)))

    @property
    def charge(self) -> Multicharge:
        return Multicharge(self.e, tuple(c.charge for c in self.components))

    def to_multipartition(self) -> Multipartition:
        return tuple(partition_of(c)[0] for c in self.components)

    def lowest_level(self, i: int, j: int) -> int:
        """Level of the lowest bead on runner i of component j (1-based j)."""
        if not isinstance(i, int) or not 0 <= i < self.e:
            raise InputError(f"runner index {i} out of range 0..{self.e - 1}")
        if not 1 <= j <= self.r:
            raise InputError(f"component index {j} out of range 1..{self.r}")
        bs = self.components[j - 1]
        beads = [p for p in bs.beads_down_to(bs.min_gap() - self.e) if p % self.e == i]
        if not beads:
            raise LemmaViolation("runner_has_bead", f"runner {i} of component {j} is empty")
        return beads[0] // self.e

    def is_multicore(self) -> bool:
        """Every bead has a bead immediately above it on its runner."""
        for bs in self.components:
            for p in range(bs.min_gap(), bs.max_bead() + 1):
                if p in bs and (p - self.e) not in bs:
                    return False
        return True

    def to_json(self) -> dict:
        comps = []
        for bs in self.components:
            cutoff = min(bs.min_gap(), bs.charge, *(bs.delta or {bs.charge}))
            comps.append(
                {
                    "charge": bs.charge,
                    "cutoff": cutoff,
                    "beads_above_cutoff": sorted(p for p in bs.beads_down_to(cutoff)),
                }
            )
        return {"e": self.e, "components": comps}

    @classmethod
    def from_json(cls, obj) -> "AbacusDisplay":
        if not isinstance(obj, dict) or "e" not in obj or "components" not in obj:
            raise InputError("abacus JSON needs keys 'e' and 'components'")
        comps = []
        for entry in obj["components"]:
            try:
                a = entry["charge"]
                cutoff = entry["cutoff"]
                beads = set(entry["beads_above_cutoff"])
            except (TypeError, KeyError) as exc:
                raise InputError(f"bad abacus component entry: {entry!r}") from exc
            if not all(isinstance(p, int) and p >= cutoff for p in beads):
                raise InputError("beads_above_cutoff must be integers >= cutoff")
            comps.append(_beta_from_beads(a, cutoff, beads))
        return cls(obj["e"], tuple(comps))


def _beta_from_beads(charge: int, cutoff: int, beads) -> BetaSet:
    """The beta-set of this charge holding exactly these beads at or above
    cutoff and every position below it."""
    span = range(min(cutoff, charge), max(max(beads, default=cutoff), charge - 1) + 1)
    return BetaSet(charge, frozenset(p for p in span if (p < cutoff or p in beads) != (p < charge)))


@dataclass(frozen=True)
class Multicore:
    """A multicore, stored as lowest occupied levels: levels[j][i].

    Component charges are recovered as a_j = e + sum_i levels[j][i].
    Any integer matrix is a valid multicore; the decoded multipartition
    never has a removable rim e-hook.
    """

    e: int
    levels: tuple

    def __post_init__(self):
        if not isinstance(self.e, int) or self.e < 2:
            raise InputError(f"e must be an integer >= 2, got {self.e!r}")
        rows = tuple(tuple(row) for row in self.levels)
        if not rows or any(len(row) != self.e for row in rows):
            raise InputError(f"levels must be rows of length e={self.e}")
        if not all(isinstance(x, int) for row in rows for x in row):
            raise InputError("levels must be integers")
        object.__setattr__(self, "levels", rows)

    @property
    def r(self) -> int:
        return len(self.levels)

    @property
    def charges(self) -> tuple:
        return tuple(self.e + sum(row) for row in self.levels)

    def to_multipartition(self) -> Multipartition:
        out = []
        for row in self.levels:
            base = min(row) + 1  # every position below base * e is a bead
            betas = [x * self.e + i for i, top in enumerate(row) for x in range(base, top + 1)]
            out.append(_decode(sorted(betas, reverse=True), self.e + sum(row)))
        return tuple(out)


def to_multicore(mp: Multipartition, charge: Multicharge):
    """Slide all beads up as far as they go.

    Returns (multicore, hooks) where hooks is the number of single-level
    slides performed, i.e. the number of rim e-hooks removed.  The hub is
    unchanged and the weight drops by r per hook.

    Level base = (a - len(parts)) // e - 1 lies in the vacuum, so each runner
    keeps c >= 1 beads from it on, which slide up to levels base..base+c-1.
    """
    _check_level(mp, charge)
    e = charge.e
    rows = []
    hooks = 0
    for comp, a in zip(mp, charge.entries):
        parts = as_partition(comp)
        base = (a - len(parts)) // e - 1
        counts = [0] * e
        for p in [*range(base * e, a - len(parts)), *[w + a - k for k, w in enumerate(parts, 1)]]:
            level, i = divmod(p, e)
            counts[i] += 1
            hooks += level
        hooks -= sum(c * base + c * (c - 1) // 2 for c in counts)
        rows.append(tuple([base + c - 1 for c in counts]))
    core = Multicore(e, tuple(rows))
    if core.charges != charge.entries:
        raise LemmaViolation("multicore_charges", f"sliding {mp} gave charges {core.charges}")
    return core, hooks


def as_multicore(mp: Multipartition, charge: Multicharge) -> Multicore:
    """The multicore encoding of mp; InputError if mp is not a multicore."""
    disp = AbacusDisplay.from_multipartition(mp, charge)
    if not disp.is_multicore():
        raise InputError(f"{mp} is not a multicore for {charge.entries} (mod {charge.e})")
    core, hooks = to_multicore(mp, charge)
    if hooks:
        raise LemmaViolation("multicore_fixpoint", f"multicore {mp} has {hooks} rim hooks")
    return core


def s_move(m: Multicore, i: int, l: int, j: int, k: int) -> Multicore:
    """Move the lowest bead from runner i to l on component j and from l to i on component k.

    After renormalising (each transplanted bead slides to the top of its
    new runner) this is the unique multicore-preserving exchange; on level
    matrices it is levels[j][i]-=1, levels[j][l]+=1, levels[k][l]-=1,
    levels[k][i]+=1.  Degenerate indices (i == l or j == k) would make it
    the identity, where the weight law fails, so they are rejected.
    """
    for idx in (i, l):
        if not isinstance(idx, int) or not 0 <= idx < m.e:
            raise InputError(f"runner index {idx} out of range 0..{m.e - 1}")
    for idx in (j, k):
        if not isinstance(idx, int) or not 1 <= idx <= m.r:
            raise InputError(f"component index {idx} out of range 1..{m.r}")
    if i == l or j == k:
        raise InputError("bead exchange needs two distinct runners and two distinct components")
    rows = [list(row) for row in m.levels]
    rows[j - 1][i] -= 1
    rows[j - 1][l] += 1
    rows[k - 1][l] -= 1
    rows[k - 1][i] += 1
    return Multicore(m.e, tuple(tuple(row) for row in rows))


def gamma(m: Multicore, i: int, j: int, k: int) -> int:
    """Level difference of runner i between components j and k."""
    if not 0 <= i < m.e:
        raise InputError(f"runner index {i} out of range 0..{m.e - 1}")
    if not (1 <= j <= m.r and 1 <= k <= m.r):
        raise InputError(f"component indices {j},{k} out of range 1..{m.r}")
    return m.levels[j - 1][i] - m.levels[k - 1][i]


def gamma_diff(m: Multicore, i: int, l: int, j: int, k: int) -> int:
    """gamma(i;j,k) - gamma(l;j,k); invariant under per-component charge shifts by e."""
    return gamma(m, i, j, k) - gamma(m, l, j, k)


def phi_int(x: int, i: int, e: int) -> int:
    """The position map swapping runners i-1 and i (mod e): x+1, x-1, or x."""
    mod = x % e
    if mod == (i - 1) % e:
        return x + 1
    if mod == i % e:
        return x - 1
    return x


def phi_beta_set(bs: BetaSet, i: int, e: int) -> BetaSet:
    """Image of a beta-set under the runner swap, charge unchanged.

    On the finite encoding: map the perturbation pointwise, then correct
    at the charge boundary -- the vacuum itself moves exactly when the
    charge is congruent to i mod e, by the pair {charge-1, charge}.
    """
    nd = frozenset(phi_int(x, i, e) for x in bs.delta)
    if bs.charge % e == i % e:
        nd = nd ^ frozenset({bs.charge - 1, bs.charge})
    return BetaSet(bs.charge, nd)


def phi(mp: Multipartition, charge: Multicharge, i: int) -> Multipartition:
    """Simultaneously remove all removable i-nodes and add all addable i-nodes.

    Read off the i-signature; on beta-sets this is ``phi_beta_set``, the swap
    of runners (i-1) mod e and i.
    """
    if not isinstance(i, int) or not 0 <= i < charge.e:
        raise InputError(f"residue {i} out of range 0..{charge.e - 1}")
    _check_level(mp, charge)
    mp = tuple(as_partition(c) for c in mp)
    rows = [[*c, 0] for c in mp]
    for nd, sign in _signatures(mp, charge)[i]:
        rows[nd.comp - 1][nd.row - 1] += sign
    return tuple(tuple(filter(None, row)) for row in rows)


def has_forbidden_config(mp: Multipartition, charge: Multicharge, i: int) -> bool:
    """Whether some component's beta-set blocks the runner swap.

    For i != 0: some bead b with b = i-1 (mod e) whose successor b+1 is
    empty.  For i == 0: some bead b with b = e-1 (mod e) such that both
    b+1 and b+e+1 are empty.
    """
    if not isinstance(i, int) or not 0 <= i < charge.e:
        raise InputError(f"residue {i} out of range 0..{charge.e - 1}")
    e = charge.e
    target = (i - 1) % e
    disp = AbacusDisplay.from_multipartition(mp, charge)
    for bs in disp.components:
        for b in range(bs.min_gap() - 1, bs.max_bead() + 1):
            if b % e != target or b not in bs or (b + 1) in bs:
                continue
            if i != 0:
                return True
            if (b + e + 1) not in bs:
                return True
    return False


def render(display: AbacusDisplay, window: tuple | None = None) -> str:
    """Draw the runners as text: 'o' beads, '.' gaps, one row per level.

    The window is a (lo, hi) pair of levels; by default one full row above
    the highest irregularity and one empty row below the lowest bead are
    included.  A window that hides an irregular row is an error, so the
    drawing always determines the display, and so is one reaching past the
    default by more than _WINDOW_SLACK levels.
    """
    e = display.e
    lo0 = min(bs.min_gap() // e for bs in display.components) - 1
    hi0 = max(bs.max_bead() // e for bs in display.components) + 1
    if window is None:
        lo, hi = lo0, hi0
    else:
        lo, hi = window
        if not (isinstance(lo, int) and isinstance(hi, int) and lo <= hi):
            raise InputError(f"window must be a pair of levels lo <= hi, got {window!r}")
        if lo > lo0 + 1 or hi < hi0 - 1:
            raise InputError(
                f"window {window!r} hides irregular rows; need lo <= {lo0 + 1} and hi >= {hi0 - 1}"
            )
        if lo < lo0 - _WINDOW_SLACK or hi > hi0 + _WINDOW_SLACK:
            raise InputError(f"window {window!r} reaches over {_WINDOW_SLACK} levels past {lo0},{hi0}")
    width = max(len("level"), len(str(lo)), len(str(hi)))
    runners = "".join(str(i % 10) for i in range(e))
    lines = [
        "e=%d charges=%s" % (e, ",".join(str(bs.charge) for bs in display.components)),
        "%*s  %s" % (width, "level", "  ".join([runners] * display.r)),
    ]
    for lv in range(lo, hi + 1):
        groups = []
        for bs in display.components:
            groups.append("".join("o" if lv * e + i in bs else "." for i in range(e)))
        lines.append("%*d  %s" % (width, lv, "  ".join(groups)))
    return "\n".join(lines) + "\n"


def parse_abacus(text: str) -> AbacusDisplay:
    """Inverse of render: rebuild the display from its drawing.

    The header carries e and the charges; consistency of the drawing with
    the charges is checked via the bead-count balance.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise InputError("abacus drawing needs a header, a runner line, and at least one row")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("e=") or not head[1].startswith("charges="):
        raise InputError(f"bad abacus header: {lines[0]!r}")
    try:
        e = int(head[0][2:])
        charges = tuple(int(tok) for tok in head[1][len("charges="):].split(","))
    except ValueError as exc:
        raise InputError(f"bad abacus header: {lines[0]!r}") from exc
    header = lines[1].split()
    if header[0] != "level" or len(header) != 1 + len(charges):
        raise InputError(f"bad runner line: {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != 1 + len(charges):
            raise InputError(f"bad abacus row: {ln!r}")
        try:
            lv = int(toks[0])
        except ValueError as exc:
            raise InputError(f"bad level in row: {ln!r}") from exc
        for grp in toks[1:]:
            if len(grp) != e or any(ch not in "o." for ch in grp):
                raise InputError(f"bad runner group {grp!r} in row {ln!r}")
        rows.append((lv, toks[1:]))
    levels = [lv for lv, _ in rows]
    if sorted(levels) != list(range(min(levels), max(levels) + 1)):
        raise InputError("abacus rows must cover a contiguous level range")
    lo = min(levels)
    comps = []
    for jx, a in enumerate(charges):
        beads = {
            lv * e + i for lv, groups in rows for i, ch in enumerate(groups[jx]) if ch == "o"
        }
        try:
            comps.append(_beta_from_beads(a, lo * e, beads))
        except InputError as exc:
            raise InputError(
                f"drawing inconsistent with charge {a} for component {jx + 1}: {exc}"
            ) from exc
    return AbacusDisplay(e, tuple(comps))
