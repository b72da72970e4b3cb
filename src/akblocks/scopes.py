"""Pairing a block with its runner-swap image and certifying the laws.

When the weight condition holds at residue i with delta_i >= 0, the swap
lambda -> Phi_i(lambda) maps the block bijectively onto a same-weight
block of size n - delta_i, preserves the lexicographic order of members,
and preserves being Kleshchev.  ``certificate`` re-runs every one of
those checks on a concrete block and stamps the result.
"""

from functools import lru_cache
from typing import NamedTuple

from .abacus import _phi, has_forbidden_config
from .blocks import (
    CACHE_SIZE,
    Block,
    BlockDescriptor,
    ScopesReport,
    _block_containing,
    _scopes_condition,
    _weight,
)
from .branching import LaurentPolynomial, branching_polynomial, degree_spectrum
from .caps import Caps, default_caps
from .errors import InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    Multipartition,
    _check_range,
    _checked,
    _moved,
    _node_of,
    _signature,
    multipartition_to_json,
    size,
)

__all__ = [
    "scopes_pairing",
    "is_kleshchev",
    "ScopesCertificate",
    "certificate",
]


def scopes_pairing(block: Block, i: int) -> tuple:
    """(member, image) pairs, members lex-descending."""
    _check_range("residue", 0, block.charge.e - 1, i)
    return tuple((mp, _phi(mp, block.charge, i)) for mp in block.members)


def _lex_violations(pairs) -> tuple:
    """Adjacent (member, image) pairs whose images are not lex-descending."""
    return tuple(
        f"{src_a} > {src_b} but images order as {img_a} vs {img_b}"
        for (src_a, img_a), (src_b, img_b) in zip(pairs, pairs[1:])
        if not img_a > img_b
    )


# ---------------------------------------------------------------------------
# good nodes and Kleshchev multipartitions


def _good_nodes(mp: Multipartition, charge: Multicharge):
    """Yield the good node of each residue that has one, by residue: read
    the i-signature highest first, cancel each removable immediately
    followed (in the surviving word) by an addable, and take the highest
    surviving removable."""
    for i in range(charge.e):
        stack = []
        for entry in _signature(mp, charge, i):
            if entry[2] > 0 and stack and stack[-1][2] < 0:
                stack.pop()
            else:
                stack.append(entry)
        for entry in stack:
            if entry[2] < 0:
                yield _node_of(mp, entry)
                break


def is_kleshchev(mp: Multipartition, charge: Multicharge) -> bool:
    """Whether mp is reachable from the empty multipartition by good nodes.

    Strips one good node per step, so the work is one loop iteration per
    node and the depth stays constant however large mp is.  mp is checked first.
    """
    return _is_kleshchev(_checked(mp, charge), charge)


@lru_cache(maxsize=CACHE_SIZE)  # sweep 1,344 / 1,559: members and images recur across residues
def _is_kleshchev(mp: Multipartition, charge: Multicharge) -> bool:
    """``is_kleshchev`` of a checked multipartition."""
    while size(mp):
        # any good node works: take the one of smallest residue, found first
        good = next(_good_nodes(mp, charge), None)
        if good is None:
            return False
        mp = _moved(mp, good, -1)
    return True


def _kleshchev_flags(pairs, charge: Multicharge) -> tuple:
    """(member, image, (member is Kleshchev, image is Kleshchev)) per pair."""
    return tuple((src, img, (_is_kleshchev(src, charge), _is_kleshchev(img, charge))) for src, img in pairs)


def _kleshchev_mismatches(flagged) -> tuple:
    """Flagged pairs of which exactly one side is Kleshchev."""
    return tuple(
        f"{src} kleshchev={fs} but image {img} kleshchev={fi}"
        for src, img, (fs, fi) in flagged
        if fs != fi
    )


# ---------------------------------------------------------------------------
# certificates


class ScopesCertificate(NamedTuple):
    """A fully re-checked record of one block/residue swap instance."""

    schema: int
    block: BlockDescriptor
    image_block: BlockDescriptor
    i: int
    condition: ScopesReport
    pairs: tuple  # ((source, image, (bool, bool)), ...)
    polynomial: LaurentPolynomial
    checks: tuple  # (anchor, ...) all stamped "ok"

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "block": self.block.to_json(),
            "image_block": self.image_block.to_json(),
            "i": self.i,
            "condition": self.condition.to_json(),
            "pairs": [
                {
                    "source": multipartition_to_json(src),
                    "image": multipartition_to_json(img),
                    "kleshchev": list(flags),
                }
                for src, img, flags in self.pairs
            ],
            "polynomial": self.polynomial.to_json(),
            "checks": {anchor: "ok" for anchor in self.checks},
        }


# the anchors certificate stamps, sorted; one that fails raises, so a certificate carries all
_CHECKS = ("block_bijection", "branching_spectrum", "kleshchev_preserved", "lex_order_preserved",
           "no_addable_under_condition", "no_forbidden_config", "weight_preserved")


def certificate(block: Block, i: int, caps: Caps | None = None) -> ScopesCertificate:
    """Re-run every preservation law on one block and stamp the results.

    Input: a block satisfying the weight condition at residue i with
    delta_i >= 0 (anything else is an InputError).  Any law failing on the
    concrete instance raises LemmaViolation naming the anchor.
    """
    caps = caps or default_caps()
    charge = block.charge
    cond = _scopes_condition(block.lex_least, charge, i)
    if cond.delta < 0:
        raise InputError(f"certificate needs delta_i >= 0, got {cond.delta}")
    if not cond.holds:
        raise InputError(
            f"certificate needs the weight condition; w(B)={cond.w_b} exceeds "
            f"w(C)+K*r={cond.w_c}+{cond.k}*{charge.r}"
        )

    def stamp(anchor: str, ok: bool, detail: str):
        if not ok:
            raise LemmaViolation(anchor, detail)

    for mp in block.members:
        stamp(
            "no_forbidden_config",
            not has_forbidden_config(mp, charge, i),
            f"{mp} carries the forbidden runner configuration at residue {i}",
        )
        stamp(
            "no_addable_under_condition",
            all(sign < 0 for _, _, sign in _signature(mp, charge, i)),
            f"{mp} has an addable {i}-node despite the weight condition",
        )

    pairs = scopes_pairing(block, i)
    images = [img for _, img in pairs]
    stamp(
        "block_bijection",
        len(set(images)) == len(images),
        "two members share a runner-swap image",
    )
    image_block = _block_containing(images[0], charge, caps)
    stamp(
        "block_bijection",
        set(images) == set(image_block.members),
        "images do not exhaust one block of the smaller algebra",
    )
    stamp(
        "weight_preserved",
        all(_weight(img, charge) == _weight(src, charge) for src, img in pairs),
        "the swap changed a block weight",
    )
    violations = _lex_violations(pairs)
    stamp("lex_order_preserved", not violations, "; ".join(violations))
    flagged = _kleshchev_flags(pairs, charge)
    mismatches = _kleshchev_mismatches(flagged)
    stamp("kleshchev_preserved", not mismatches, "; ".join(mismatches))

    expected = degree_spectrum(cond.delta)
    for mp in block.members:
        got = branching_polynomial(mp, charge, i, caps, cond)
        stamp(
            "branching_spectrum",
            got == expected,
            f"branching polynomial of {mp} is {got!r}, expected {expected!r}",
        )

    return ScopesCertificate(
        schema=1,
        block=block.descriptor,
        image_block=image_block.descriptor,
        i=i,
        condition=cond,
        pairs=flagged,
        polynomial=expected,
        checks=_CHECKS,
    )
