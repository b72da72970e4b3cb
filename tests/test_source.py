"""Rules on the package source that no behavioural test would catch."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "akblocks"


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so a load-bearing check must raise
    # LemmaViolation or InputError instead
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert at {found}"
