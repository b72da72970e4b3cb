"""Desk-scale caps on exhaustive enumerations.

Everything in this package is exact and enumerative, so runtimes blow up
factorially past small parameters.  The caps below keep the CLI and the
verification sweeps inside interactive budgets: n <= 8, r <= 3, e <= 5
and at most 6 strippable nodes per factorial order enumeration.

The CLI sets them with ``--caps max_n=24,max_delta=7``; library callers
pass an explicit ``Caps`` instance to the few entry points that enumerate
(block listings, verification sweeps), and ``Caps()`` is the default.
"""

from typing import NamedTuple

from .errors import CapExceeded

__all__ = ["Caps"]


# how the message for each capped value names it
_CAPPED = {"n": "size", "r": "level", "e": "characteristic", "delta": "order enumeration for"}


class Caps(NamedTuple):
    max_n: int = 8
    max_r: int = 3
    max_e: int = 5
    max_delta: int = 6

    def check(self, **values) -> None:
        """CapExceeded for the first value past its cap, in argument order:
        ``check(r=2, e=3)`` tests r against max_r, then e against max_e."""
        for key, value in values.items():
            cap = getattr(self, f"max_{key}")
            if value > cap:
                raise CapExceeded(
                    f"{_CAPPED[key]} {key}={value} exceeds cap {cap} (pass --caps max_{key}={value} to raise)"
                )
