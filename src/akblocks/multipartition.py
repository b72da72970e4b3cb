"""Multipartitions, their nodes, residues, and the orders used on them.

A partition is a tuple of weakly decreasing positive ints (no trailing
zeros); a multipartition with r components is a tuple of r partitions.
Nodes are (row, col, comp) triples, all 1-based, with comp indexing the
component.  Residues live in Z/eZ and depend on a multicharge.
"""

import math
from itertools import accumulate, chain, repeat, zip_longest
from typing import Iterable, NamedTuple

from .errors import InputError

__all__ = [
    "Node",
    "Multicharge",
    "as_partition",
    "as_multipartition",
    "multipartition_from_json",
    "multipartition_to_json",
    "size",
    "nodes",
    "removable_nodes",
    "addable_nodes",
    "remove_node",
    "add_node",
    "residue",
    "residue_counts",
    "residue_multiset",
    "dominates",
    "lex_cmp",
    "node_above",
    "partitions_of",
    "multipartitions_of",
]

Partition = tuple  # tuple[int, ...]
Multipartition = tuple  # tuple[Partition, ...]


class Node(NamedTuple):
    """A box of a multipartition: row ``b``, column ``c``, component ``comp``."""

    row: int
    col: int
    comp: int


class Multicharge(NamedTuple("Multicharge", [("e", int), ("entries", tuple)])):
    """Quantum characteristic ``e`` plus an integer charge per component.

    Only the residues ``entries[j] mod e`` affect residue combinatorics;
    the actual integers shift abacus bead positions.
    """

    __slots__ = ()

    def __new__(cls, e: int, entries: tuple):
        _check_e(e)
        ent = tuple(entries)
        if not ent or not all(_is_int(a) for a in ent):
            raise InputError(f"charge must be a nonempty tuple of integers, got {entries!r}")
        return tuple.__new__(cls, (e, ent))

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def kappa(self) -> tuple:
        """Charges reduced mod e -- the only data residues see."""
        e = self.e
        return tuple([a % e for a in self.entries])

    def to_json(self) -> dict:
        return {"e": self.e, "charge": list(self.entries)}


def _is_int(x) -> bool:
    """An int that is not a bool: JSON ``true`` must not pass as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_e(e) -> None:
    """InputError unless e is an int >= 2 (not a bool): every e the package takes."""
    if not _is_int(e) or e < 2:
        raise InputError(f"e must be an integer >= 2, got {e!r}")


def _check_range(what: str, lo: int, hi: int, *values) -> None:
    """InputError naming the first value that is a bool, not an int, or outside lo..hi."""
    for x in values:
        if not (type(x) is int or _is_int(x)) or not lo <= x <= hi:
            raise InputError(f"{what} {x!r} out of range {lo}..{hi}")


def _check_node(nd: Node, r: int) -> None:
    """InputError unless nd's component is an int in 1..r and its row and column are positive ints."""
    row, col, comp = nd
    _check_range("node component", 1, r, comp)
    _check_range("node row or column", 1, math.inf, row, col)


def as_partition(parts: Iterable) -> Partition:
    """Validate and canonicalise a partition (strip trailing zeros).

    >>> as_partition([4, 3, 3, 0, 0])
    (4, 3, 3)
    """
    seq = tuple(parts)
    for x in seq:
        if not (type(x) is int or _is_int(x)) or x < 0:
            raise InputError(f"partition parts must be nonnegative integers, got {x!r}")
    if list(seq) != sorted(seq, reverse=True):
        raise InputError(f"partition parts must be weakly decreasing, got {seq!r}")
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def as_multipartition(components: Iterable) -> Multipartition:
    """Validate a multipartition given as an iterable of part-lists."""
    comps = tuple(components)
    if not comps:
        raise InputError("a multipartition needs at least one component")
    for c in comps:
        if not isinstance(c, (list, tuple)):
            raise InputError(f"a multipartition component must be a list of parts, got {c!r}")
    out = tuple(as_partition(c) for c in comps)
    return comps if out == comps else out


def multipartition_from_json(obj) -> Multipartition:
    """Accept ``{"components": [[4,3,1], []]}`` or a bare list of lists."""
    if isinstance(obj, dict):
        if "components" not in obj:
            raise InputError(f"multipartition JSON needs key 'components', got {obj!r}")
        obj = obj["components"]
    if not isinstance(obj, (list, tuple)):
        raise InputError(f"multipartition JSON must be a list of components, got {obj!r}")
    return as_multipartition(obj)


def multipartition_to_json(mp: Multipartition) -> dict:
    return {"components": [list(c) for c in mp]}


def size(mp: Multipartition) -> int:
    return sum(map(sum, mp))


def nodes(mp: Multipartition):
    """All nodes, row-major inside each component, components in order."""
    out = []
    for j, comp in enumerate(mp, start=1):
        for b, width in enumerate(comp, start=1):
            for c in range(1, width + 1):
                out.append(Node(b, c, j))
    return out


def _row_ends(mp: Multipartition) -> list:
    """The addable (+1) and removable (-1) nodes as (node, sign) pairs,
    highest first.

    Row b of width w ends in a removable node when the next row is
    shorter, has an addable node past it when it is the first row or the
    row above is longer, and the empty row past the last one is always
    addable.  So a component whose partition takes k distinct part values
    has k removable and k+1 addable nodes.
    """
    out = []
    for j, comp in enumerate(mp, start=1):
        for b, w in enumerate(comp, start=1):
            if b == 1 or comp[b - 2] > w:
                out.append((Node(b, w + 1, j), 1))
            if w > (comp[b] if b < len(comp) else 0):
                out.append((Node(b, w, j), -1))
        out.append((Node(len(comp) + 1, 1, j), 1))
    return out


def removable_nodes(mp: Multipartition):
    """Nodes whose removal leaves a multipartition: row ends that stick out."""
    return [nd for nd, sign in _row_ends(mp) if sign < 0]


def addable_nodes(mp: Multipartition):
    """Positions where a node can be added leaving a multipartition."""
    return [nd for nd, sign in _row_ends(mp) if sign > 0]


def _signature(mp: Multipartition, charge: Multicharge, i: int) -> list:
    """The i-signature: the addable (+1) and removable (-1) i-nodes,
    highest first, as (component, row, sign) entries with 0-based indices.
    The row ends of ``_row_ends``, but only of residue i: row b of width w
    (charge a) ends at a + w - b, and the empty row past the last one has
    residue a - rows.  A removable entry's node is its row's last, an
    addable entry's the cell one past its row's end (``_node_of``).  Every
    caller has already checked mp's level against the charge."""
    e = charge.e
    out = []
    for j, (a, comp) in enumerate(zip(charge.entries, mp)):
        last = len(comp) - 1
        for b, w in enumerate(comp):
            end = (a + w - b - 1 - i) % e  # 0 at a removable i-node, e - 1 at an addable one
            if end == e - 1 and (b == 0 or comp[b - 1] > w):
                out.append((j, b, 1))
            if end == 0 and w > (comp[b + 1] if b < last else 0):
                out.append((j, b, -1))
        if (a - last - 1 - i) % e == 0:
            out.append((j, last + 1, 1))
    return out


def _node_of(mp: Multipartition, entry: tuple) -> Node:
    """The node of an i-signature entry of mp."""
    j, b, sign = entry
    comp = mp[j]
    return Node(b + 1, (comp[b] if b < len(comp) else 0) + (sign > 0), j + 1)


def _moved(mp: Multipartition, nd: Node, sign: int) -> Multipartition:
    """mp with its removable node nd taken away (sign -1) or its addable node nd put in (+1), unchecked."""
    b, _, j = nd
    comp = [*mp[j - 1], 0]
    comp[b - 1] += sign
    return mp[: j - 1] + (tuple(filter(None, comp)),) + mp[j:]


def remove_node(mp: Multipartition, nd: Node) -> Multipartition:
    """Remove a removable node; InputError if it is not removable.

    The node must end its row (col equal to the row's width) with the next
    row shorter, the rule ``_row_ends`` applies; only that row and the
    next are read.  The result is a partition by construction.
    """
    _check_node(nd, len(mp))
    b, c, j = nd
    comp = mp[j - 1]
    if not (b <= len(comp) and comp[b - 1] == c and (b == len(comp) or comp[b] < c)):
        raise InputError(f"{nd} is not a removable node of {mp}")
    return _moved(mp, nd, -1)


def add_node(mp: Multipartition, nd: Node) -> Multipartition:
    """Add an addable node; InputError if the position is not addable.

    The position must be the empty row past the last one (col 1), or one
    past a row's end with the row above longer (or none above), the rule
    ``_row_ends`` applies; only that row and the one above are read.
    """
    _check_node(nd, len(mp))
    b, c, j = nd
    comp = mp[j - 1]
    if not (b == len(comp) + 1 and c == 1
            or b <= len(comp) and comp[b - 1] == c - 1 and (b == 1 or comp[b - 2] > c - 1)):
        raise InputError(f"{nd} is not an addable node of {mp}")
    return _moved(mp, nd, 1)


def residue(nd: Node, charge: Multicharge) -> int:
    """Residue of a node: (a_comp + col - row) mod e."""
    _check_node(nd, charge.r)
    return _residue(nd, charge)


def _residue(nd: Node, charge: Multicharge) -> int:
    """``residue`` of a node the program built itself."""
    return (charge.entries[nd.comp - 1] + nd.col - nd.row) % charge.e


def residue_counts(mp: Multipartition, charge: Multicharge) -> tuple:
    """Number of nodes of each residue, as a tuple indexed by Z/eZ.

    Row b of width w in a component of charge a holds the residues of the
    integers s, ..., u - 1 with s = a - b + 1 and u = s + w, so residue x
    occurs u // e - s // e + [x >= s mod e] - [x >= u mod e] times there.
    Each row adds to a common count and marks two points of a difference
    array, and one prefix pass finishes: O(rows + e), not O(nodes).
    """
    return _counts(_checked(mp, charge), charge)


def _residue_counts(mp: Multipartition, charge: Multicharge) -> tuple:
    """``residue_counts`` of a checked multipartition."""
    e = charge.e
    diff = [0] * e
    cycles = 0
    for a, comp in zip(charge.entries, mp):
        s = a + 1
        for w in comp:
            s -= 1
            u = s + w
            cycles += u // e - s // e
            diff[s % e] += 1
            diff[u % e] -= 1
    diff[0] += cycles
    return tuple(accumulate(diff))


def residue_multiset(mp: Multipartition, charge: Multicharge) -> tuple:
    """Sorted tuple of the residues of all nodes.

    Two multipartitions of the same size lie in the same block exactly when
    these multisets agree.
    """
    counts = residue_counts(mp, charge)
    return tuple(chain.from_iterable(repeat(k, c) for k, c in enumerate(counts)))


CACHE_SIZE = 1024  # every cache's bound: a run of distinct queries keeps a fixed footprint
# id -> (each tuple _checked passed, not walked again, (charge, its residue counts) or None);
# held so its id is not reused: an id found here is its tuple's, and the counts go with it
_CHECKED: dict = {}


def _checked(mp, charge: Multicharge) -> Multipartition:
    """The canonical tuple ``as_multipartition`` makes of mp, at charge's level, or InputError."""
    if id(mp) not in _CHECKED:
        mp = as_multipartition(mp)
        if len(_CHECKED) >= CACHE_SIZE:
            _CHECKED.clear()
        _CHECKED[id(mp)] = (mp, None)
    if len(mp) != charge.r:
        raise InputError(f"multipartition has {len(mp)} components but charge has {charge.r}")
    return mp


def _counts(mp: Multipartition, charge: Multicharge) -> tuple:
    """``_residue_counts`` of a checked multipartition, kept in its ``_CHECKED``
    entry when it has one, so the point queries on one tuple walk its rows
    once.  An entry keeps the counts of the charge it was last read at."""
    held = _CHECKED.get(id(mp))
    if held is None:
        return _residue_counts(mp, charge)
    kept = held[1]
    if kept is not None and kept[0] == charge:
        return kept[1]
    got = _residue_counts(mp, charge)
    _CHECKED[id(mp)] = (mp, (charge, got))
    return got


def dominates(lam: Multipartition, mu: Multipartition) -> bool:
    """Dominance order on multipartitions of equal size and level.

    lam dominates mu when every prefix sum (running through components in
    order, rows inside each component) is at least as large for lam.
    """
    if len(lam) != len(mu):
        raise InputError("dominance needs equal numbers of components")
    if size(lam) != size(mu):
        raise InputError("dominance is only defined between multipartitions of the same size")
    run_l = run_m = 0
    for lj, mj in zip(lam, mu):
        for x, y in zip_longest(lj, mj, fillvalue=0):
            run_l += x
            run_m += y
            if run_l < run_m:
                return False
    return True


def lex_cmp(lam: Multipartition, mu: Multipartition) -> int:
    """Lexicographic comparison: -1, 0, or +1.

    The first differing component decides, within it the first differing
    part; a missing part counts as 0.  On canonical (zero-stripped) tuples
    this is exactly Python's tuple comparison.
    """
    if len(lam) != len(mu):
        raise InputError("lex order needs equal numbers of components")
    return (lam > mu) - (lam < mu)


def node_above(x: Node, y: Node) -> bool:
    """Whether node x is strictly above node y.

    Earlier components sit above later ones; within a component smaller
    rows sit above.  Columns never matter.
    """
    return (x.comp, x.row) < (y.comp, y.row)


def partitions_of(n: int, max_part: int | None = None):
    """Yield all partitions of n, largest part first, in lex-descending order.

    >>> list(partitions_of(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        raise InputError("partitions of a negative integer requested")
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def multipartitions_of(n: int, r: int):
    """Yield all r-component multipartitions of n, deterministically ordered."""
    if r < 1:
        raise InputError("need at least one component")
    if r == 1:
        for p in partitions_of(n):
            yield (p,)
        return
    for head in range(n, -1, -1):
        for p in partitions_of(head):
            for rest in multipartitions_of(n - head, r - 1):
                yield (p,) + rest
