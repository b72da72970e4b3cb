"""Rules on the package source that no behavioural test would catch."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

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


def _name(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _unbounded_cache(dec) -> bool:
    """An ``lru_cache(maxsize=None)``, ``lru_cache(None)`` or ``cache`` decorator."""
    if not isinstance(dec, ast.Call):
        return _name(dec) == "cache"
    sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
    return _name(dec.func) == "lru_cache" and any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_no_unbounded_cache_in_the_package():
    # a long run of distinct queries must keep a fixed footprint, so every
    # cache carries a bound
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_unbounded_cache(dec) for dec in node.decorator_list)
    ]
    assert not found, f"unbounded cache at {found}"


README = PACKAGE.parents[1] / "README.md"


def _functions():
    """(file name, source lines, function node, its cache decorator or None) of every package function."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cache = [dec for dec in node.decorator_list if _name(getattr(dec, "func", dec)) in ("lru_cache", "cache")]
                yield path.name, text.splitlines(), node, (cache or [None])[0]


def _cached_and_defined() -> tuple:
    """Names of the package's cached functions, and of all its functions."""
    functions = list(_functions())
    return {node.name for *_, node, cache in functions if cache}, {node.name for *_, node, _ in functions}


def test_readme_cache_paragraph_names_exactly_the_cached_functions():
    # the README paragraph on caches must not go stale: it names every
    # cached function in backticks and no function that is not cached
    paragraphs = [p for p in README.read_text().split("\n\n") if "CACHE_SIZE" in p]
    assert len(paragraphs) == 1
    named = {
        quoted.removesuffix("()").rsplit(".", 1)[-1]
        for quoted in re.findall(r"`([^`]+)`", paragraphs[0])
    }
    cached, defined = _cached_and_defined()
    assert cached
    assert cached <= named, f"cached but not named: {sorted(cached - named)}"
    assert not (named & defined) - cached, f"named but not cached: {sorted((named & defined) - cached)}"


def test_every_cache_states_its_evidence():
    # blocks.py prescribes it: a cache's decorator line gives cache_info()
    # hits / misses on the workload that re-reads it ("sweep" or "point queries")
    evidence = re.compile(r"#.*\b(sweep|point queries) \d[\d,]* / \d[\d,]*")
    caches = [(name, lines[cache.lineno - 1], cache.lineno) for name, lines, _, cache in _functions() if cache]
    assert caches
    found = [f"{name}:{lineno}" for name, line, lineno in caches if not evidence.search(line)]
    assert not found, f"a cache with no hits / misses comment at {found}"


def test_every_all_entry_is_defined():
    # a stale __all__ entry breaks ``from akblocks.<module> import *``
    # (every module but __init__ and __main__)
    modules = [importlib.import_module(f"akblocks.{path.stem}") for path in sorted(PACKAGE.glob("[!_]*.py"))]
    assert len(modules) > 5
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"in __all__ but not defined: {stale}"


def test_package_publishes_exactly_the_all_of_the_modules_it_imports():
    # each module's __all__ is the one declaration of its public names:
    # the package's public names, submodules aside, are their union
    imported = [
        node.module
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
    ]
    assert len(imported) > 5
    declared = {name for module in imported for name in importlib.import_module(f"akblocks.{module}").__all__}
    package = importlib.import_module("akblocks")
    public = {
        name
        for name, obj in vars(package).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    assert public == declared, (sorted(public - declared), sorted(declared - public))


def test_only_multipartition_formats_out_of_range_messages():
    # index and residue bounds are checked by multipartition._check_range
    # alone, so no other module writes a range check of its own
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "multipartition.py" and "out of range" in path.read_text()
    ]
    assert not found, f"an 'out of range' message outside multipartition.py: {found}"


def test_the_e_rule_and_the_charge_rule_are_each_written_once():
    # every e is checked by multipartition._check_e, and every beta-set
    # charge by abacus._check_charge, so each message is written once
    text = "".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    for message in ("e must be an integer >= 2", "charge must be an integer"):
        assert text.count(message) == 1, message


def _raised_messages():
    """(module.function, string parts of the message) of every InputError a package function raises."""
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call) and _name(exc.func) == "InputError":
                    parts = [c.value for c in ast.walk(exc) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                    yield f"{path.stem}.{fn.name}", "".join(parts)


def test_the_runner_swap_hypotheses_are_raised_in_one_function():
    # branching._swap_context is the one gate of the runner swap: branch,
    # certify and the branching sweep read it, so the delta_i >= 0 and the
    # weight-condition InputErrors are each raised there and nowhere else
    raisers = {
        rule: [where for where, text in _raised_messages() if rule in text]
        for rule in ("delta_i >= 0", "weight condition")
    }
    assert raisers == {rule: ["branching._swap_context"] for rule in raisers}, raisers


def test_starting_the_cli_does_not_import_dataclasses():
    # every process pays for what ``import akblocks.cli`` loads, and building
    # dataclasses (plus the inspect/ast/dis chain behind the module) costs
    # more than the rest of the imported standard library: the records are
    # NamedTuples.  verify-all's workers are forked and their results
    # pickled, so neither pickle nor multiprocessing is loaded at start-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    ))
    code = "import sys, akblocks.cli; print(*(m in sys.modules for m in ('dataclasses', 'pickle', 'multiprocessing')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


REPO = PACKAGE.parents[1]


def _public_names() -> dict:
    """Each module's __all__ entries, and the public methods and properties
    of its public classes: their qualified names, mapped to their names."""
    out = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        body = ast.parse(path.read_text()).body
        declared = next(
            ast.literal_eval(node.value)
            for node in body
            if isinstance(node, ast.Assign) and [_name(t) for t in node.targets] == ["__all__"]
        )
        out |= {f"{path.stem}.{name}": name for name in declared}
        out |= {
            f"{path.stem}.{cls.name}.{fn.name}": fn.name
            for cls in body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        }
    return out


def _referenced() -> set:
    """Names and attributes read in the package, akbench and tools, plus the
    strings of akbench and tools (the tracer's tables name what it wraps).
    A definition or an __all__ entry is neither, so it does not count."""
    found = set()
    for path in [*PACKAGE.glob("*.py"), *REPO.glob("akbench/*.py"), *REPO.glob("tools/*.py")]:
        strings = path.parent != PACKAGE
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                found.add(_name(node))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def _private_functions() -> dict:
    """Each module's module-level private functions: qualified name -> name."""
    return {
        f"{path.stem}.{node.name}": node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    }


def test_every_public_name_is_used_outside_the_tests():
    # a public function that only tests call is code the program does not
    # need: delete it, or make the test reach a path the program uses.
    # branching.order_degree passes only because akbench's tracer counts it
    # by name.  A module-level private function that only tests read is a
    # test helper: it belongs in tests/
    used = _referenced()
    names = {**_public_names(), **_private_functions()}
    unused = sorted(qualified for qualified, name in names.items() if name not in used)
    assert len(_private_functions()) > 20
    assert not unused, f"defined in the package but referenced only by tests: {unused}"


def _calls_by_scope() -> list:
    """(module, enclosing definitions, callee name) for every call in the package."""
    found = []

    def visit(node, scope: tuple, module: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), module)
                continue
            if isinstance(child, ast.Call):
                found.append((module, scope, _name(child.func)))
            visit(child, scope, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.stem)
    return found


def test_only_public_entries_check_a_multipartition():
    # the trust boundary is one layer deep: a public function or method checks
    # the multipartition it is handed with multipartition._checked, then
    # passes it on to private kernels.  A kernel, or a sweep on what it
    # enumerated, never checks again, neither itself nor through a public
    # entry that does; only the command-line handlers in cli.py, which read
    # their input from outside, call public entries from private functions
    calls = _calls_by_scope()
    private = lambda scope: not scope or any(name.startswith("_") for name in scope)
    checking = {scope[-1] for _, scope, callee in calls if callee == "_checked" and scope}
    assert len(checking) > 15
    inside = [".".join((module, *scope)) for module, scope, callee in calls if callee == "_checked" and private(scope)]
    assert not inside, f"_checked called outside a public function or method: {inside}"
    while True:  # the public names that reach _checked through public calls
        more = {scope[-1] for _, scope, callee in calls if callee in checking and not private(scope)} - checking
        if not more:
            break
        checking |= more
    reentry = [
        f"{'.'.join((module, *scope))} calls {callee}"
        for module, scope, callee in calls
        if callee in checking and private(scope) and module != "cli"
    ]
    assert not reentry, f"a private function calls a public entry that checks again: {reentry}"
