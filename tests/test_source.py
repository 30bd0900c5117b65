"""Source checks made with ``ast`` alone, since the package needs no linter.

Every module of the package other than ``__init__.py`` (which imports to
re-export) uses each name it imports, and no module raises a bare
``ValueError``: each refusal names its fault with a class from
``errors.py``.  Every function the benchmark's tracer wraps exists, since
the tracer skips a missing one and its per-layer metrics then read 0.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_value_error_is_raised(path):
    raised = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"]
    assert raised == []


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
