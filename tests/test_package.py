import ast
import importlib
import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import xyness

ROOT = Path(__file__).resolve().parents[1]


def test_exports_resolve_once():
    names = xyness.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(xyness, name), name
    # and an import left behind binds no public name that __all__ lacks
    bound = {
        name
        for name, value in vars(xyness).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= set(names)


def test_every_public_name_has_a_caller():
    # a read of the name (a Name or an attribute) in the package, the CLI and
    # selftest included, or in a demo; neither an import nor a read inside
    # the name's own definition counts
    files = [f for f in (ROOT / "src" / "xyness").glob("*.py") if f.name != "__init__.py"]
    read = set()
    for path in (*files, *(ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {}
        for definition in ast.walk(tree):
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                for node in ast.walk(definition):
                    inside.setdefault(id(node), set()).add(definition.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if isinstance(node.ctx, ast.Load) and name not in inside.get(id(node), ()):
                read.add(name)
    assert [name for name in xyness.__all__ if name not in read] == []


def tracer_bindings(monkeypatch):
    """``perfbench/tracer.py``'s BINDINGS, loaded by path.

    The tracer imports the standard library alone; its dataclasses need it
    in sys.modules while it runs.
    """
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer.BINDINGS


def test_tracer_bindings_resolve(monkeypatch):
    # perfbench/tracer.py wraps each (module, name) it lists in the module
    # that binds it; a renamed or dropped binding would fail only in a traced
    # benchmark run
    bindings = tracer_bindings(monkeypatch)
    assert bindings
    for module_name, attr, *_ in bindings:
        module = importlib.import_module(f"xyness.{module_name}")
        assert callable(getattr(module, attr, None)), f"xyness.{module_name}.{attr}"


def test_every_import_is_read(monkeypatch):
    # a name a module imports and never reads is dead, unless the tracer
    # wraps it there; so an import cannot outlive its last caller, and a
    # tracer-only import must be listed in BINDINGS
    traced = {(module, attr) for module, attr, *_ in tracer_bindings(monkeypatch)}
    unread = []
    for path in sorted((ROOT / "src" / "xyness").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [(path.stem, name) for name in sorted(imported - read)]
    assert [binding for binding in unread if binding not in traced] == []


def test_only_the_cli_prints():
    # the library returns what it finds; the CLI alone writes it out
    printing = [
        path.stem
        for path in sorted((ROOT / "src" / "xyness").glob("*.py"))
        if any(
            isinstance(node, ast.Name) and node.id == "print"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert printing == ["cli"]


def test_pyproject_fails_a_leaked_file_and_a_runtime_warning(tmp_path):
    # a ResourceWarning raised in a file's __del__ reaches pytest only as an
    # unraisable-exception warning; pyproject.toml's filterwarnings make it,
    # and a RuntimeWarning, fail the test that caused it.  The clean test
    # shows the run itself works
    (tmp_path / "test_leak.py").write_text(
        "def test_leak(tmp_path):\n"
        "    path = tmp_path / 'f'\n"
        "    path.write_text('x')\n"
        "    open(path)\n"
    )
    (tmp_path / "test_log_zero.py").write_text(
        "import numpy as np\n\n\ndef test_log_zero():\n    np.log(np.array([0.0]))\n"
    )
    (tmp_path / "test_clean.py").write_text("def test_clean():\n    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "FAILED test_leak.py::test_leak" in result.stdout, result.stdout
    assert "FAILED test_log_zero.py::test_log_zero" in result.stdout, result.stdout
    assert "2 failed, 1 passed" in result.stdout, result.stdout
