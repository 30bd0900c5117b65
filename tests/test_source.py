"""Source checks made with ``ast`` alone, since the package needs no linter.

Every module of the package other than ``__init__.py`` (which imports to
re-export) uses each name it imports, and no module raises a bare
``ValueError``: each refusal names its fault with a class from
``errors.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "temperedk"
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
