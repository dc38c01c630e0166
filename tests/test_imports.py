"""Import hygiene and the public surface: no module imports a name it
never uses, importing one module loads only what it needs, every public
name has a caller outside the tests, the CLI reaches the descent module
through its public functions only, and every name the benchmark's tracer
patches exists."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "galforms").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "tests").glob("*.py"))


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


def test_a_module_loads_only_its_imports():
    """The package re-exports nothing, so importing galforms.fields loads
    what fields imports and no other galforms module."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import galforms.fields; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'galforms'))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(ROOT / "src")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["galforms", "galforms.fields", "galforms.groups", "galforms.qlinalg"]


def public_definitions(source):
    """(qualified name, name) of every public top-level function and class
    of a module, and of every public method of its classes."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def referenced_names(source):
    """Every name a module reads as a variable, an attribute or an import;
    a def or class statement does not read the name it binds."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_the_surface_scan_finds_an_unreferenced_name():
    source = (
        "import a.b\n"
        "def f():\n    g()\n"
        "def g():\n    pass\n"
        "class C:\n    def m(self):\n        self._p()\n"
        "    def _p(self):\n        pass\n"
    )
    used = referenced_names(source)
    assert [qual for qual, name in public_definitions(source) if name not in used] == ["f", "C", "C.m"]


def test_every_public_name_has_a_caller():
    """Every public function, class and method of src/ is read by src/,
    imported by the acceptance gate or patched by the benchmark's tracer;
    code that only the other tests reach belongs in tests/.  References
    are matched by name."""
    used = {name for _module, _cls, name in tracer_targets()}
    for path in SOURCES + [ROOT / "tests" / "test_acceptance.py"]:
        used |= referenced_names(path.read_text())
    unused = [
        f"{path.stem}.{qual}"
        for path in SOURCES
        for qual, name in public_definitions(path.read_text())
        if name not in used
    ]
    assert unused == []


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


def test_the_tracer_installs_and_uninstalls():
    """perfbench/tracer.py patches every name it lists into the loaded
    galforms modules and restores each one."""
    import galforms.cli

    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = galforms.cli.run
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert galforms.cli.run is not before
        assert len(tracer.patches) >= len(tracer_targets())
    finally:
        tracer.uninstall()
    assert galforms.cli.run is before


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
