"""Desk-scale caps on exhaustive enumerations.

Everything in this package is exact and enumerative, so runtimes blow up
factorially past small parameters.  The caps below keep the CLI and the
verification sweeps inside interactive budgets.  Each can be overridden
through an environment variable:

    AKBLOCKS_MAX_N       largest multipartition size (default 8)
    AKBLOCKS_MAX_R       largest number of components (default 3)
    AKBLOCKS_MAX_E       largest quantum characteristic (default 5)
    AKBLOCKS_MAX_DELTA   largest factorial order enumeration (default 6)

Library callers can also pass an explicit ``Caps`` instance to the few
entry points that enumerate (block listings, verification sweeps).
"""

import os
from typing import NamedTuple

from .errors import CapExceeded

__all__ = ["Caps", "default_caps"]


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
                    f"{_CAPPED[key]} {key}={value} exceeds cap {cap} (set AKBLOCKS_MAX_{key.upper()} to raise)"
                )


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise CapExceeded(f"{name} must be an integer, got {raw!r}") from exc


def default_caps() -> Caps:
    """Caps from the environment, falling back to the desk-scale defaults."""
    return Caps(**{name: _env_int(f"AKBLOCKS_{name.upper()}", value) for name, value in Caps._field_defaults.items()})
