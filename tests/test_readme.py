"""The README's Python examples run, and print and return what they say.

Each ```python block is executed in one shared namespace, in order.  A
line ``expr  # value`` asserts that expr equals the literal value; a block
that prints must print exactly the untagged block that follows it.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks() -> list:
    return re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)


def _with_asserts(code: str) -> tuple:
    """The block with every ``expr  # value`` line turned into an assert,
    and how many lines were turned."""
    lines, turned = [], 0
    for line in code.splitlines():
        expr, sep, comment = line.partition("  # ")
        if sep:
            expected = ast.literal_eval(comment.strip())
            line = f"assert ({expr.strip()}) == {expected!r}, {expr.strip()!r}"
            turned += 1
        lines.append(line)
    return "\n".join(lines), turned


def test_readme_python_examples():
    blocks = _fenced_blocks()
    namespace: dict = {}
    turned = printed = 0
    for k, (lang, code) in enumerate(blocks):
        if lang != "python":
            continue
        source, n = _with_asserts(code)
        turned += n
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(source, f"README.md block {k}", "exec"), namespace)
        if out.getvalue():
            lang_next, shown = blocks[k + 1]
            assert lang_next == ""
            assert out.getvalue() == shown + "\n"
            printed += 1
    # residue_multiset, weight, hub, the core weight and K_1; the drawing
    assert (turned, printed) == (5, 1)
