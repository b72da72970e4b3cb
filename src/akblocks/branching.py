"""Graded branching: the degree of each step, walks, and the branching polynomial.

Removing a removable node (one restriction step) has degree n_below: the
addable minus the removable nodes of its residue strictly below it.
Adding an addable node (one induction step) has degree n_above, the same
count taken strictly above it.  A walk moves given nodes one at a time in
a given order, checks that each can still move, and sums the degrees.

When the runner-swap condition holds at residue i and the block has
delta_i >= 0 removable i-nodes and none addable, iterating single-step
restriction delta_i times and projecting to the target block yields the
image multipartition once per removal order, shifted by ell - 2*inv(sigma)
where ell = delta*(delta-1)/2.  Summing v^degree over all orders gives the
branching polynomial, whose coefficients form the Mahonian distribution.
"""

import math
from collections import Counter
from itertools import combinations, permutations

from .abacus import _phi
from .caps import Caps
from .errors import InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    Multipartition,
    Node,
    _check_range,
    _checked,
    _is_int,
    _moved,
    _node_of,
    _residue,
    _signature,
)
from .blocks import _scopes_condition

__all__ = [
    "LaurentPolynomial",
    "inversions",
    "mahonian",
    "degree_spectrum",
    "order_degree",
    "branching_polynomial",
]

MAHONIAN_CAP = 9


class LaurentPolynomial:
    """A Laurent polynomial in v with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        for d, x in (coeffs or {}).items():
            if not (_is_int(d) and _is_int(x)):
                raise InputError(f"degrees and coefficients must be integers, got {d!r}: {x!r}")
            if x:
                c[d] = c.get(d, 0) + x
        self._c = {d: c[d] for d in sorted(c) if c[d]}

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def coefficient(self, degree: int) -> int:
        return self._c.get(degree, 0)

    def __mul__(self, other):
        c = {}
        for d1, x1 in self._c.items():
            for d2, x2 in other._c.items():
                c[d1 + d2] = c.get(d1 + d2, 0) + x1 * x2
        return LaurentPolynomial(c)

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "0"
        bits = []
        for d in sorted(self._c, reverse=True):
            x = self._c[d]
            if d == 0:
                bits.append(str(x))
            else:
                head = "" if x == 1 else ("-" if x == -1 else str(x))
                power = "v" if d == 1 else f"v^{d}"
                bits.append(f"{head}{power}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {str(d): x for d, x in self._c.items()}

def inversions(seq) -> int:
    """Number of out-of-order pairs."""
    return sum(1 for a, b in combinations(seq, 2) if a > b)


def mahonian(delta: int) -> tuple:
    """Permutations of delta letters counted by inversion number.

    Computed by direct enumeration -- this is the reference distribution
    the branching spectra are compared against, so it deliberately avoids
    the generating-function shortcut.

    >>> mahonian(3)
    (1, 2, 2, 1)
    """
    _check_range("mahonian delta", 0, MAHONIAN_CAP, delta)
    out = [0] * (delta * (delta - 1) // 2 + 1)
    for sigma in permutations(range(delta)):
        out[inversions(sigma)] += 1
    return tuple(out)


def degree_spectrum(delta: int) -> LaurentPolynomial:
    """The quantum factorial [delta]! = [1][2]...[delta], [m] = v^(m-1) + v^(m-3) + ... + v^(1-m).
    Its coefficient of v^(ell - 2k), ell = delta*(delta-1)/2, is mahonian(delta)[k]
    (Rodrigues, 1839; MacMahon, 1916)."""
    _check_range("degree_spectrum delta", 0, math.inf, delta)
    out = LaurentPolynomial.one()
    for m in range(1, delta + 1):
        out = out * LaurentPolynomial({m - 1 - 2 * j: 1 for j in range(m)})
    return out


_KIND = {-1: "removable", 1: "addable"}


def _degree(mp: Multipartition, charge: Multicharge, nd: Node, sign: int) -> int:
    """Degree of one step at nd: its n_below when it is removable (sign -1),
    its n_above when it is addable (sign +1).  Either count is a partial
    sum of the i-signature of its residue.  InputError when nd is not a
    node of that kind.
    """
    word = _signature(mp, charge, _residue(nd, charge))
    entry = (nd.comp - 1, nd.row - 1, sign)
    if entry not in word or _node_of(mp, entry) != nd:
        raise InputError(f"{nd} is not a {_KIND[sign]} node of {mp}")
    k = word.index(entry)
    return sum(s for _, _, s in (word[k + 1 :] if sign < 0 else word[:k]))


def _swap_context(mp: Multipartition, charge: Multicharge, i: int, caps: Caps, report=None):
    """The one gate of the runner-swap hypotheses, and what every order of
    one (mp, i) walks: the ascending removable i-nodes of mp, its runner-swap
    image, and the image's addable i-nodes, highest first.

    Input conditions: the block condition holds at residue i and
    delta_i >= 0.  Having no addable i-node then follows from the theory;
    violating it would be a genuine counterexample, so it raises
    LemmaViolation, not InputError.  ``report`` is scopes_condition of
    mp's block when the caller already holds it.
    """
    report = report or _scopes_condition(mp, charge, i)
    if report.delta < 0:
        raise InputError(
            f"branching needs delta_i >= 0, got delta_{i} = {report.delta}"
        )
    if not report.holds:
        raise InputError(
            f"the weight condition fails at residue {i}: "
            f"w(B)={report.w_b} > w(C)+K*r={report.w_c}+{report.k}*{charge.r}"
        )
    word = _signature(mp, charge, i)
    stray = [_node_of(mp, entry) for entry in word if entry[2] > 0]
    if stray:
        raise LemmaViolation(
            "no_addable_under_condition",
            f"{mp} with charge {charge.entries} has addable {i}-nodes {stray} "
            "despite the weight condition",
        )
    rems = [_node_of(mp, entry) for entry in reversed(word)]
    if len(rems) != report.delta:
        detail = f"{mp} has {len(rems)} removable {i}-nodes and no addable one"
        raise LemmaViolation("delta_counts_removable", f"{detail}, but delta_{i} = {report.delta}")
    caps.check(delta=len(rems))
    image = _phi(mp, charge, i)
    return rems, image, [_node_of(image, entry) for entry in _signature(image, charge, i) if entry[2] > 0]


def _walk(charge: Multicharge, start, nds, sign: int, sigma, end, what: str, steps: dict) -> int:
    """Move nds[t-1] for t in sigma, starting at start: removing them
    (sign -1, each step adds the node's n_below) or adding them (sign +1,
    each step adds its n_above), as ``_degree`` counts them.  Every node
    must still be movable when its turn comes and the walk must end at
    end; either failure raises LemmaViolation.

    Walks of several orders over the same nodes pass through the same
    intermediate multipartitions (one per subset moved, against one per
    order prefix).  A shared dict ``steps`` keeps each (multipartition,
    node) step already taken, with its degree and result, so every order
    is still walked and checked, but no step is computed twice; a step
    that fails is never stored.
    """
    if sorted(sigma) != list(range(1, len(nds) + 1)):
        raise InputError(f"sigma must be a permutation of 1..{len(nds)}, got {sigma!r}")
    cur = start
    total = 0
    for t in sigma:
        nd = nds[t - 1]
        step = steps.get((cur, nd))
        if step is None:
            try:
                d = _degree(cur, charge, nd, sign)
            except InputError:  # the node can no longer move: a law failed, not the input
                raise LemmaViolation(
                    "branching_well_defined",
                    f"node {nd} stopped being {_KIND[sign]} while {what} in order {sigma}",
                ) from None
            step = (d, _moved(cur, nd, sign))
            steps[cur, nd] = step
        total += step[0]
        cur = step[1]
    if cur != end:
        raise LemmaViolation(
            "branching_well_defined",
            f"{what} in order {sigma} ended at {cur}, not at {end}",
        )
    return total


def order_degree(
    mp: Multipartition,
    charge: Multicharge,
    i: int,
    sigma,
    caps: Caps | None = None,
) -> int:
    """Accumulated degree of one removal order.

    sigma is a permutation of 1..delta indexing the ascending list of
    removable i-nodes; nodes are stripped in the order A_sigma(1),
    A_sigma(2), ... with each step contributing the current n_below.
    Every order stays removable and ends at the runner-swap image; both
    facts are checked and a failure raises LemmaViolation.
    """
    mp = _checked(mp, charge)
    ascending, image, _ = _swap_context(mp, charge, i, caps or Caps())
    return _walk(charge, mp, ascending, -1, sigma, image, f"stripping {mp}", {})


def branching_polynomial(
    mp: Multipartition,
    charge: Multicharge,
    i: int,
    caps: Caps | None = None,
) -> LaurentPolynomial:
    """Sum of v^degree over all removal orders of the i-nodes of mp.

    Under the branching hypotheses this equals the Mahonian spectrum
    sum_k mahonian(delta)[k] v^(ell-2k); the equality is what the
    verification sweeps certify, so this function computes the sum by
    direct enumeration and never takes the shortcut.  The hypotheses, the
    removable i-nodes and the image every order must reach come from one
    ``_swap_context``; ``certificate`` reads one such context per member
    and walks it with ``_polynomial``, so it checks no member again.
    """
    mp = _checked(mp, charge)
    _check_range("residue", 0, charge.e - 1, i)  # before any i-signature is read
    return _polynomial(charge, mp, _swap_context(mp, charge, i, caps or Caps()))


def _polynomial(charge: Multicharge, mp: Multipartition, context) -> LaurentPolynomial:
    """``branching_polynomial`` of a checked mp from its ``_swap_context``:
    every order walked, the orders sharing their steps."""
    ascending, image, _ = context
    steps: dict = {}
    return LaurentPolynomial(Counter(
        _walk(charge, mp, ascending, -1, sigma, image, f"stripping {mp}", steps)
        for sigma in permutations(range(1, len(ascending) + 1))
    ))
