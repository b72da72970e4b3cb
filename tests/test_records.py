"""The package's records: immutable, readable, equal and hashed by their fields."""

import importlib
from pathlib import Path

import pytest

from akblocks import (
    AbacusDisplay,
    BetaSet,
    Caps,
    LemmaResult,
    Multicharge,
    Multicore,
    Node,
    SweepGrid,
    beta_set,
    block_containing,
    block_of,
    certificate,
    core_block_of,
    scopes_condition,
    to_multicore,
)
from akblocks.blocks import SMoveStep
from akblocks.cli import _COMMANDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "akblocks"
MC = Multicharge(3, (0, 1))
LAM = ((2, 1), (1,))
TRIPLE = ((1,), (1,), (1,))

SAMPLES = {
    "Node": Node(1, 2, 1),
    "Multicharge": MC,
    "BetaSet": beta_set((2, 1), 0),
    "AbacusDisplay": AbacusDisplay.from_multipartition(LAM, MC),
    "Multicore": to_multicore(LAM, MC)[0],
    "BlockDescriptor": block_of(LAM, MC),
    "Block": block_containing(LAM, MC),
    "SMoveStep": SMoveStep(0, 1, 1, 2, 3, 4, 1),
    "CoreBlockResult": core_block_of(LAM, MC),
    "ScopesReport": scopes_condition(LAM, MC, 0),
    "Caps": Caps(),
    "ScopesCertificate": certificate(block_containing(TRIPLE, Multicharge(3, (0, 0, 0))), 0),
    "SweepGrid": SweepGrid(),
    "LemmaResult": LemmaResult("lemma", 2, ("one violation",)),
    "_Command": _COMMANDS[0],
}


def test_samples_cover_every_record_class():
    modules = [importlib.import_module(f"akblocks.{path.stem}") for path in sorted(PACKAGE.glob("[!_]*.py"))]
    records = {
        name
        for mod in modules
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and hasattr(obj, "_fields")
    }
    assert records == set(SAMPLES)
    assert all(type(x).__name__ == name for name, x in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_records_are_immutable(name):
    x = SAMPLES[name]
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], None)
    with pytest.raises(AttributeError):
        x.extra = None


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_repr_names_every_field(name):
    x = SAMPLES[name]
    shown = ", ".join(f"{f}={getattr(x, f)!r}" for f in x._fields)
    assert repr(x) == f"{name}({shown})"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_records_equal_and_hash_by_their_fields(name):
    # the hash of the field tuple, as frozen dataclasses had: set and dict
    # orders, and so every output, do not depend on the record machinery
    x = SAMPLES[name]
    values = tuple(getattr(x, f) for f in x._fields)
    assert type(x)(*values) == x
    if name != "_Command":  # its argparse options are dicts
        assert hash(x) == hash(values)


def test_trusted_constructions_match_validated_ones():
    m = SAMPLES["Multicore"]
    assert Multicore._trusted(m.e, m.levels) == Multicore(m.e, [list(row) for row in m.levels]) == m
    assert hash(Multicore._trusted(m.e, m.levels)) == hash(Multicore(m.e, m.levels))
    bs = SAMPLES["BetaSet"]
    assert BetaSet._trusted(bs.charge, bs.delta) == BetaSet(bs.charge, set(bs.delta)) == bs
    assert hash(BetaSet._trusted(bs.charge, bs.delta)) == hash(BetaSet(bs.charge, bs.delta))


def test_beta_set_membership_tests_beads():
    bs = beta_set((2, 1), 0)  # beads 1, -1, -3, -4, ...
    assert [p for p in range(-4, 3) if p in bs] == [-4, -3, -1, 1]
    assert bs.charge not in bs


def test_caps_and_grid_defaults():
    assert Caps()._asdict() == {"max_n": 8, "max_r": 3, "max_e": 5, "max_delta": 6}
    assert SweepGrid()._asdict() == {"max_n": 6, "levels": (1, 2, 3), "es": (2, 3, 4), "branch_n": 8}
