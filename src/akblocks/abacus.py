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

from typing import NamedTuple

from .errors import InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    Multipartition,
    Partition,
    _check_e,
    _check_range,
    _checked,
    _is_int,
    _signature,
    as_partition,
)

_WINDOW_SLACK = 100  # levels a drawing may reach past its default window; it is built in memory
_FLIP = ord("o") ^ ord(".")  # xor turns a drawn bead into a gap and back

__all__ = [
    "BetaSet",
    "AbacusDisplay",
    "Multicore",
    "beta_set",
    "partition_of",
    "to_multicore",
    "s_move",
    "gamma",
    "gamma_diff",
    "phi_beta_set",
    "phi",
    "has_forbidden_config",
    "render",
    "parse_abacus",
]


def _check_charge(charge) -> None:
    """InputError unless a beta-set's charge is an int (not a bool)."""
    if not _is_int(charge):
        raise InputError(f"charge must be an integer, got {charge!r}")


class BetaSet(NamedTuple("BetaSet", [("charge", int), ("delta", frozenset)])):
    """An infinite down-closed bead set, stored as (charge, delta).

    ``delta`` is the finite symmetric difference from the vacuum
    {x : x < charge}.  Membership: p is a bead iff (p < charge) XOR
    (p in delta).  Down-closedness of the encoded set is NOT implied --
    arbitrary finite perturbations are allowed -- but the bead counts must
    balance: |delta below charge| == |delta at or above charge|.
    """

    __slots__ = ()

    def __new__(cls, charge: int, delta: frozenset):
        _check_charge(charge)
        d = frozenset(delta)
        if not all(_is_int(p) for p in d):
            raise InputError("beta-set perturbation must contain integers")
        removed = sum(1 for p in d if p < charge)
        added = len(d) - removed
        if removed != added:
            raise InputError(
                f"unbalanced beta-set: {removed} beads removed vs {added} added relative to charge {charge}"
            )
        return tuple.__new__(cls, (charge, d))

    @classmethod
    def _trusted(cls, charge: int, delta: frozenset) -> "BetaSet":
        """A beta-set from a balanced frozenset of integers the program built itself, unchecked."""
        return tuple.__new__(cls, (charge, delta))

    def __contains__(self, p: int) -> bool:
        # a bead test, not tuple membership of the two fields
        return (p < self.charge) != (p in self.delta)

    # A balanced nonempty perturbation holds a gap below the charge and a
    # bead at or above it, so its least entry is the least gap and its
    # greatest the greatest bead.
    def min_gap(self) -> int:
        """Smallest position that is NOT a bead."""
        return min(self.delta, default=self.charge)

    def max_bead(self) -> int:
        """Largest position that IS a bead."""
        return max(self.delta, default=self.charge - 1)

    def beads_down_to(self, cutoff: int):
        """All beads >= cutoff, descending."""
        hi = max(self.max_bead(), cutoff)
        return [p for p in range(hi, cutoff - 1, -1) if p in self]


def beta_set(partition: Partition, charge: int) -> BetaSet:
    """Beta-set of a partition: {part_k + charge - k} padded by the vacuum."""
    _check_charge(charge)
    return _beta_set(as_partition(partition), charge)


def _beta_set(parts: Partition, charge: int) -> BetaSet:
    """``beta_set`` of a partition and an integer charge the program holds already."""
    # bead k moved up from charge - k: the beads above the vacuum's top balance the gaps left in it
    top = frozenset([w + charge - k for k, w in enumerate(parts, 1)])
    return BetaSet._trusted(charge, top.symmetric_difference(range(charge - len(parts), charge)))


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


class AbacusDisplay(NamedTuple("AbacusDisplay", [("e", int), ("components", tuple)])):
    """One beta-set per component, drawn on a common set of e runners."""

    __slots__ = ()

    def __new__(cls, e: int, components: tuple):
        _check_e(e)
        comps = tuple(components)
        if not comps or not all(isinstance(c, BetaSet) for c in comps):
            raise InputError("components must be a nonempty tuple of BetaSet")
        return tuple.__new__(cls, (e, comps))

    @property
    def r(self) -> int:
        return len(self.components)

    @classmethod
    def from_multipartition(cls, mp: Multipartition, charge: Multicharge) -> "AbacusDisplay":
        """The display of mp at its multicharge, from beta-sets built here, so not checked again."""
        comps = tuple([_beta_set(c, a) for c, a in zip(_checked(mp, charge), charge.entries)])
        return tuple.__new__(cls, (charge.e, comps))

    @property
    def charge(self) -> Multicharge:
        return Multicharge(self.e, tuple(c.charge for c in self.components))

    def to_multipartition(self) -> Multipartition:
        return tuple(partition_of(c)[0] for c in self.components)

    def lowest_level(self, i: int, j: int) -> int:
        """Level of the lowest bead on runner i of component j (1-based j)."""
        _check_range("runner index", 0, self.e - 1, i)
        _check_range("component index", 1, self.r, j)
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
            cutoff = bs.min_gap()
            comps.append(
                {
                    "charge": bs.charge,
                    "cutoff": cutoff,
                    "beads_above_cutoff": sorted(p for p in bs.beads_down_to(cutoff)),
                }
            )
        return {"e": self.e, "components": comps}


def _beta_from_beads(charge: int, cutoff: int, beads) -> BetaSet:
    """The beta-set of this charge holding exactly these beads at or above
    cutoff and every position below it."""
    span = range(min(cutoff, charge), max(max(beads, default=cutoff), charge - 1) + 1)
    return BetaSet(charge, frozenset(p for p in span if (p < cutoff or p in beads) != (p < charge)))


class Multicore(NamedTuple("Multicore", [("e", int), ("levels", tuple)])):
    """A multicore, stored as lowest occupied levels: levels[j][i].

    Component charges are recovered as a_j = e + sum_i levels[j][i].
    Any integer matrix is a valid multicore; the decoded multipartition
    never has a removable rim e-hook.
    """

    __slots__ = ()

    def __new__(cls, e: int, levels: tuple):
        _check_e(e)
        rows = tuple(tuple(row) for row in levels)
        if not rows or any(len(row) != e for row in rows):
            raise InputError(f"levels must be rows of length e={e}")
        if not all(_is_int(x) for row in rows for x in row):
            raise InputError("levels must be integers")
        return tuple.__new__(cls, (e, rows))

    @classmethod
    def _trusted(cls, e: int, rows: tuple) -> "Multicore":
        """A multicore from e-tuples of integers the program built itself, unchecked."""
        return tuple.__new__(cls, (e, rows))

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
    return _to_multicore(_checked(mp, charge), charge)


def _to_multicore(mp: Multipartition, charge: Multicharge):
    """``to_multicore`` of a checked multipartition."""
    e = charge.e
    rows = []
    hooks = 0
    for parts, a in zip(mp, charge.entries):
        t = a - len(parts)
        base = t // e - 1
        counts = [0] * e
        for p in range(base * e, t):  # the vacuum's beads from level base on
            counts[p % e] += 1
            hooks += p // e
        for w in parts:  # row k's bead w + a - k, with a stepped down once per row
            a -= 1
            p = a + w
            counts[p % e] += 1
            hooks += p // e
        hooks -= sum([c * base + c * (c - 1) // 2 for c in counts])
        rows.append(tuple([base + c - 1 for c in counts]))
    core = Multicore._trusted(e, tuple(rows))
    if core.charges != charge.entries:
        raise LemmaViolation("multicore_charges", f"sliding {mp} gave charges {core.charges}")
    return core, hooks


def s_move(m: Multicore, i: int, l: int, j: int, k: int) -> Multicore:
    """Move the lowest bead from runner i to l on component j and from l to i on component k.

    After renormalising (each transplanted bead slides to the top of its
    new runner) this is the unique multicore-preserving exchange; on level
    matrices it is levels[j][i]-=1, levels[j][l]+=1, levels[k][l]-=1,
    levels[k][i]+=1.  Degenerate indices (i == l or j == k) would make it
    the identity, where the weight law fails, so they are rejected.
    """
    _check_range("runner index", 0, m.e - 1, i, l)
    _check_range("component index", 1, m.r, j, k)
    if i == l or j == k:
        raise InputError("bead exchange needs two distinct runners and two distinct components")
    return _exchange(m, i, l, j, k)


def _exchange(m: Multicore, i: int, l: int, j: int, k: int) -> Multicore:
    """``s_move`` for indices the program chose itself: no checks."""
    rows = list(m.levels)
    out, back = list(rows[j - 1]), list(rows[k - 1])
    out[i] -= 1
    out[l] += 1
    back[l] -= 1
    back[i] += 1
    rows[j - 1], rows[k - 1] = tuple(out), tuple(back)
    return Multicore._trusted(m.e, tuple(rows))


def gamma(m: Multicore, i: int, j: int, k: int) -> int:
    """Level difference of runner i between components j and k."""
    _check_range("runner index", 0, m.e - 1, i)
    _check_range("component index", 1, m.r, j, k)
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
    _check_range("residue", 0, charge.e - 1, i)
    return _phi(_checked(mp, charge), charge, i)


def _phi(mp: Multipartition, charge: Multicharge, i: int) -> Multipartition:
    """``phi`` of a checked multipartition at a residue i in 0..e-1."""
    rows = {}  # component -> its rows and an empty one, copied once it changes
    for j, b, sign in _signature(mp, charge, i):
        if j not in rows:
            rows[j] = [*mp[j], 0]
        rows[j][b] += sign
    out = list(mp)
    for j, row in rows.items():
        out[j] = tuple(filter(None, row))
    return tuple(out)


def has_forbidden_config(mp: Multipartition, charge: Multicharge, i: int) -> bool:
    """Whether some component's beta-set blocks the runner swap.

    For i != 0: some bead b with b = i-1 (mod e) whose successor b+1 is
    empty.  For i == 0: some bead b with b = e-1 (mod e) such that both
    b+1 and b+e+1 are empty.
    """
    _check_range("residue", 0, charge.e - 1, i)
    e = charge.e
    target = (i - 1) % e
    disp = AbacusDisplay.from_multipartition(mp, charge)
    for bs in disp.components:
        for b in range(bs.min_gap() - 1, bs.max_bead() + 1):
            if b % e != target or b not in bs or (b + 1) in bs:
                continue
            if i != 0 or (b + e + 1) not in bs:
                return True
    return False


def render(display: AbacusDisplay, window: tuple | None = None) -> str:
    """Draw the runners as text: 'o' beads, '.' gaps, one row per level.

    The window is a (lo, hi) pair of levels; by default one full row above
    the highest irregularity and one empty row below the lowest bead are
    included.  A window that hides an irregular row is an error, so the
    drawing always determines the display, and so is one reaching past the
    default by more than _WINDOW_SLACK levels.  Each component's window is
    filled once, each of its runner columns is copied into the output with
    one strided slice, and the labels are formatted by one ``%`` on the
    repeated format, so no Python work is done per level.
    """
    e = display.e
    lo0 = min([bs.min_gap() for bs in display.components]) // e - 1
    hi0 = max([bs.max_bead() for bs in display.components]) // e + 1
    if window is None:
        lo, hi = lo0, hi0
    else:
        lo, hi = window if isinstance(window, (tuple, list)) and len(window) == 2 else (None, None)
        if not (_is_int(lo) and _is_int(hi) and lo <= hi):
            raise InputError(f"window must be a pair of levels lo <= hi, got {window!r}")
        if lo > lo0 + 1 or hi < hi0 - 1:
            raise InputError(
                f"window {window!r} hides irregular rows; need lo <= {lo0 + 1} and hi >= {hi0 - 1}"
            )
        if lo < lo0 - _WINDOW_SLACK or hi > hi0 + _WINDOW_SLACK:
            raise InputError(f"window {window!r} reaches over {_WINDOW_SLACK} levels past {lo0},{hi0}")
    width = max(len("level"), len(str(lo)), len(str(hi)))
    runners = "".join(str(i % 10) for i in range(e))
    head = "e=%d charges=%s\n%*s  %s\n" % (
        e, ",".join(str(bs.charge) for bs in display.components),
        width, "level", "  ".join([runners] * display.r),
    )
    # one output line is the label, then two spaces and e cells per component, then a newline
    n, stride = hi + 1 - lo, width + display.r * (e + 2) + 1
    out = bytearray(b" " * (n * stride))
    out[stride - 1 :: stride] = b"\n" * n
    labels = (b"%%%dd" % width * n) % tuple(range(lo, hi + 1))
    for c in range(width):
        out[c::stride] = labels[c::width]
    base, span, off = lo * e, n * e, width + 2
    for bs in display.components:
        # the vacuum's beads below the charge, then each perturbation flipped: it lies in the
        # window, since its gaps are no lower than min_gap and its beads no higher than max_bead
        filled = min(max(bs.charge - base, 0), span)
        row = bytearray(b"o" * filled + b"." * (span - filled))
        for p in bs.delta:
            row[p - base] ^= _FLIP
        for c in range(e):
            out[off + c :: stride] = row[c::e]
        off += e + 2
    return head + out.decode()


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
