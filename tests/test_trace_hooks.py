"""The benchmark traces akblocks functions by name, so those names must stay.

``akbench/tracer.py`` wraps every function named in its SPANNED, COUNTED
and YIELDING tables.  Renaming or deleting one breaks
``akbench/run.py --trace 1`` with an AttributeError that no other test
would see.  The tables are read as literals; the tracer is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "akbench" / "tracer.py"
TABLES = ("SPANNED", "COUNTED", "YIELDING")


def _tables() -> dict:
    found = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                found[name] = ast.literal_eval(node.value)
    return found


def test_every_traced_function_exists():
    tables = _tables()
    assert sorted(tables) == sorted(TABLES)
    traced = [
        (short, name)
        for table in tables.values()
        for short, names in table.items()
        for name in names
    ]
    assert len(traced) > 20
    for short, name in traced:
        module = importlib.import_module(f"akblocks.{short}")
        assert callable(getattr(module, name, None)), f"akblocks.{short}.{name} is gone"
