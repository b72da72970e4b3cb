"""Exception types shared across the package."""

__all__ = ["InputError", "CapExceeded", "LemmaViolation"]


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class CapExceeded(InputError):
    """A desk-scale resource cap would be exceeded.

    Caps exist so that exhaustive enumerations stay tractable; they can be
    raised with ``--caps`` or an explicit ``Caps`` (see akblocks.caps).
    """


class LemmaViolation(AssertionError):
    """A named verification check failed on a concrete instance (CLI exit 1).

    These are never raised for bad input -- only when the combinatorics
    itself contradicts one of the laws the package certifies.  ``lemma`` is
    the stable anchor name of the violated law.
    """

    def __init__(self, lemma: str, detail: str = ""):
        self.lemma = lemma
        self.detail = detail
        super().__init__(f"{lemma}: {detail}" if detail else lemma)
