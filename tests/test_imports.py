"""Import hygiene: no module imports a name it never uses, the CLI
reaches the descent module through its public functions only, and every
name the benchmark's tracer patches exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports in order to re-export, so it is not scanned
SCANNED = sorted(p for p in (ROOT / "src" / "galforms").glob("*.py") if p.name != "__init__.py")
SCANNED += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement that no other expression of
    the module reads (`from __future__` imports excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SCANNED, ids=[f"{p.parent.name}/{p.name}" for p in SCANNED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "from a import b, c\nimport d.e\nimport f as g\nprint(c, d)\n"
    assert unused_imports(source) == [(1, "b"), (3, "g")]


def test_cli_imports_no_private_descent_name():
    tree = ast.parse((ROOT / "src" / "galforms" / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("descent", "galforms.descent")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def tracer_targets():
    """(module, class or None, attribute) for every entry of SPANS and
    COUNTED in perfbench/tracer.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTED")
    }
    targets = []
    for module, names in tables["SPANS"].items():
        for name in names:
            targets.append((module, *name) if isinstance(name, tuple) else (module, None, name))
    for module, cls, methods in tables["COUNTED"].values():
        targets += [(module, cls, method) for method in methods]
    return targets


def test_every_traced_name_exists():
    """`--trace 1` patches each of these; a missing one breaks the run."""
    targets = tracer_targets()
    assert ("descent", None, "to_module") in targets
    missing = []
    for module, cls, name in targets:
        owner = importlib.import_module(f"galforms.{module}")
        if cls is not None:
            owner = vars(owner).get(cls)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append((module, cls, name))
    assert missing == []
