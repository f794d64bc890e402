"""Package-wide source checks."""

import ast
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import garside

SOURCES = sorted(Path(garside.__file__).parent.rglob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))

# private names another module may import: the per-layer benchmark tracer
# wraps these by name in the module that calls them
PINNED_PRIVATE_IMPORTS = {
    ("summit", "_closure_trajectory"),
    ("summit", "_seed_trajectories"),
}


def test_sources_compile_without_warnings():
    # compile() re-emits invalid-escape warnings whatever the bytecode cache
    # holds, so stale __pycache__ files cannot hide them
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_rigidity_has_one_definition():
    # the cycling layer's exits and the rigid module read the same test
    assert garside.is_rigid is garside.rigid.is_rigid is garside.cycling.is_rigid


def test_summit_kinds_are_named_in_summit_only():
    # the cycling and transport layers take an ascending list of recurrence
    # orders; which orders each summit kind needs is decided in summit.py
    assert garside.summit.recurrence_orders.__module__ == "garside.summit"
    for module in (garside.cycling, garside.transport):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        constants = {node.value for node in nodes if isinstance(node, ast.Constant)}
        # names read, attributes, imported aliases and definitions
        names = {getattr(node, field, None) for node in nodes for field in ("id", "attr", "name")}
        assert not constants & {"super", "ultra", "star"}, module.__name__
        assert "recurrence_orders" not in names, module.__name__


def test_transport_imports_nothing_from_cycling():
    # the closed orbits that transports run on are decided once, by the
    # trajectory closure in cycling.py, and handed to the seed step; the
    # transport layer takes no cycling step and raises no cycling error
    tree = ast.parse(Path(garside.transport.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["garside" if node.level else None, node.module]))
            modules += [module, *(f"{module}.{alias.name}" for alias in node.names)]
    assert modules
    assert not [m for m in modules if m == "garside.cycling" or m.startswith("garside.cycling.")], modules


def test_rigid_stop_is_the_walks_alone():
    # recurrent_representative ends its walk at the first rigid element, so
    # the callers that only ask for recurrence hold no rigidity rule of
    # their own, and rigid_power reads is_rigid once, for its answer
    def references(module, name):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        return [node for node in ast.walk(fn)
                if getattr(node, "id", getattr(node, "attr", None)) == "is_rigid"]

    for module, name in [(garside.cycling, "_order_sweep"), (garside.cycling, "in_recurrence_set"),
                         (garside.summit, "summit_bounds")]:
        assert not references(module, name), name
    assert len(references(garside.rigid, "rigid_power")) == 1


def test_no_private_imports_across_modules():
    assert SOURCES
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").split(".")[0] == "garside"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.add((path.stem, alias.name))
    assert found <= PINNED_PRIVATE_IMPORTS, sorted(found - PINNED_PRIVATE_IMPORTS)


def test_all_lists_every_public_import_once():
    names = garside.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert all(hasattr(garside, name) for name in names)
    tree = ast.parse(Path(garside.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(names), sorted(imported ^ set(names))


def test_no_unused_imports():
    # a package __init__.py imports to re-export, which
    # test_all_lists_every_public_import_once checks instead
    assert SOURCES and TESTS
    unused = []
    for path in SOURCES + TESTS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert not unused, sorted(unused)


def test_import_prints_nothing_with_warnings_as_errors():
    # a fresh interpreter, so no module is imported yet and every import-time
    # warning is raised as an error
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import garside"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def _public_definitions(tree):
    """(name, node) of each public module-level function and class, and of
    each public method and property of a public class; dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not member.name.startswith("_"):
                    yield member.name, member


def test_every_public_name_has_a_reader_or_is_documented():
    # no public API that exists only for tests: each public name is read
    # by the library or the benchmark, outside its own definition, or is
    # documented in the README as a name users may call
    root = Path(__file__).parent.parent
    readers = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
               for path in SOURCES + sorted((root / "benchmarks").glob("*.py"))}
    references = [
        (path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in readers.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    readme = (root / "README.md").read_text(encoding="utf-8")
    unread = []
    for path in SOURCES:
        for name, node in _public_definitions(readers[path]):
            if re.search(rf"\b{name}\b", readme) or any(
                ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line, ref in references
            ):
                continue
            unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, unread


def _readme_and_quick_start():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    doc = garside.__doc__.split("Quick start::\n", 1)[1]
    quick = re.match(r"(?:\n|    .*\n)+", doc).group(0)
    examples = {f"readme-{i}": code for i, code in enumerate(blocks)}
    examples["quick-start"] = textwrap.dedent(quick)
    return examples


EXAMPLES = _readme_and_quick_start()


@pytest.mark.parametrize("code", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_documented_examples_run_with_warnings_as_errors(code):
    # the README's python blocks and the package docstring's quick start,
    # each in a fresh interpreter, so an edit to either is kept runnable
    assert "import" in code
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
