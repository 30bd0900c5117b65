"""Source checks made with ``ast`` alone, since the package needs no linter.

Every module of the package other than ``__init__.py`` (which imports to
re-export) uses each name it imports, every module-level private function,
class or constant is referenced somewhere in the package, and no module
raises a bare ``ValueError``: each refusal names its fault with a class
from ``errors.py``.  The value types are built one way, on ``weil._Value``:
no module imports ``dataclasses``, no class defines ``__post_init__``, and
no instance of an exported value type has a ``__dict__``.  Every function the benchmark's tracer wraps exists, since
the tracer skips a missing one and its per-layer metrics then read 0.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import temperedk
from temperedk.weil import _Value

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "temperedk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == set()


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Any, List\nx: List = []\n"
    assert _unused_imports(source) == {"os", "Any"}


def _unreferenced_private(sources) -> set:
    """The module-level private definitions of ``sources`` (name -> text) whose
    name no module loads, imports or reads as an attribute, as "module.name"."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found |= {f"{module}.{name}" for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in used}
    return found


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private(sources) == set()


def test_unreferenced_private_definition_is_found():
    sources = {
        "a": "_LIMIT = 3\n_SPARE = 4\nclass _Box: pass\ndef _helper(): return _LIMIT\ndef _spare(): pass\n",
        "b": "from .a import _helper\nimport a\nx = a._Box\n__all__ = []\n",
    }
    assert _unreferenced_private(sources) == {"a._SPARE", "a._spare"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_value_error_is_raised(path):
    raised = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"]
    assert raised == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    post_init = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"]
    assert "dataclasses" not in imported and post_init == []


def test_exported_values_are_slotted():
    exported = [value for value in vars(temperedk).values()
                if isinstance(value, type) and not issubclass(value, BaseException)]
    assert len(exported) == 14 and all(issubclass(cls, _Value) for cls in exported)
    # built without its checks, an instance shows what its class gives it
    assert [cls.__name__ for cls in exported if hasattr(object.__new__(cls), "__dict__")] == []


def _traced_groups() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.GROUPS


@pytest.mark.parametrize("group, entry", _traced_groups().items())
def test_every_traced_function_exists(group, entry):
    module_name, functions = entry
    module = importlib.import_module(f"temperedk.{module_name}")
    assert [name for name in functions if not callable(getattr(module, name, None))] == []
