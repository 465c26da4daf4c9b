"""Every name a module under src/sepcont imports is used in that module.

Names listed in a module's ``__all__`` count as used: the package
re-exports its public names that way.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "sepcont"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere in the module, or listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Iterable\n"
        "from fractions import Fraction as F\n"
        "def f(x: Iterable[int]) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("Any", 3), ("F", 4)]


def test_all_counts_as_use():
    source = "from sepcont.cantor import Cylinder, grid_points\n__all__ = ['grid_points']\n"
    assert unused_imports(source) == [("Cylinder", 1)]


def test_modules_found():
    assert {"discrete.py", "cantor.py", "__init__.py"} <= {p.name for p in MODULES}
