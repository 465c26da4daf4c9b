"""Every name a module under src/sepcont imports is used in that module,
and every function, class and method it defines is referenced somewhere;
every parameter of a module-level function is read in its body.

Names listed in a module's ``__all__`` count as used: the package
re-exports its public names that way.  A definition counts as referenced
when its name appears as a name, an attribute or a string constant in
src/ or perfbench/ (the benchmark wraps methods by name): code that only
tests call is a fixture and lives in tests/.  A dataclass field counts as
read when tests/ read it too.  Dunder methods are called by the language
and are not checked.  Every function and method the benchmark's tracer
wraps by name exists where the tracer looks for it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
SRC = REPO / "src" / "sepcont"
MODULES = sorted(SRC.glob("*.py"))
PROGRAM_FILES = sorted(p for d in ("src", "perfbench") for p in (REPO / d).rglob("*.py"))
REFERENCE_FILES = PROGRAM_FILES + sorted((REPO / "tests").rglob("*.py"))


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


def definitions(tree):
    """(name, line) for each function, class and method, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def references(tree):
    """Every name, attribute name and string constant in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_definitions(defining, referencing):
    """(name, line) for each non-dunder definition in the source ``defining``
    whose name no source in ``referencing`` mentions."""
    refs = set().union(*(references(ast.parse(src)) for src in referencing))
    return [
        (name, line)
        for name, line in definitions(ast.parse(defining))
        if name not in refs and not (name.startswith("__") and name.endswith("__"))
    ]


@pytest.fixture(scope="module")
def program_sources():
    return [p.read_text() for p in PROGRAM_FILES]


@pytest.fixture(scope="module")
def reference_sources():
    return [p.read_text() for p in REFERENCE_FILES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_unreferenced(path, program_sources):
    assert unreferenced_definitions(path.read_text(), program_sources) == []


def test_unreferenced_definition_is_reported():
    defining = (
        "class Used:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def called(self):\n"
        "        def helper():\n"
        "            pass\n"
        "        return helper\n"
        "    def wrapped(self):\n"
        "        pass\n"
        "def orphan():\n"
        "    pass\n"
    )
    referencing = [defining, "Used().called()\n", "PATCH = ('Used', 'wrapped')\n"]
    assert unreferenced_definitions(defining, referencing) == [("orphan", 10)]


def unread_parameters(source):
    """(function, parameter) for each parameter of a module-level function
    that its body never reads.  Methods are exempt: an override keeps the
    signature of the method it overrides, read or not."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            out += [(node.name, p.arg) for p in params if p.arg not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_functions_read_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    source = (
        "def reads_all(a, /, b, *rest, c=1, **named):\n"
        "    return a, b, rest, c, named\n"
        "def overwrites(a, depth=6):\n"
        "    depth = 2\n"
        "    return a\n"
        "def nested(a, b):\n"
        "    def inner():\n"
        "        return a\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self, unused):\n"
        "        return self\n"
    )
    assert unread_parameters(source) == [("overwrites", "depth"), ("nested", "b")]


def dataclass_fields(tree):
    """(class, field, line) for each annotated field of a ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    return name == "dataclass"


def attribute_reads(tree):
    """The names read as an attribute, ``obj.name``, anywhere in the module."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(defining, referencing):
    """(class, field, line) for each dataclass field in the source
    ``defining`` that no source in ``referencing`` reads as an attribute."""
    reads = set().union(*(attribute_reads(ast.parse(src)) for src in referencing))
    return [f for f in dataclass_fields(ast.parse(defining)) if f[1] not in reads]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_dataclass_fields_are_read(path, reference_sources):
    assert unread_fields(path.read_text(), reference_sources) == []


def test_unread_field_is_reported():
    defining = (
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    value: int\n"
        "    exact: bool\n"
        "    def doubled(self):\n"
        "        return 2 * self.value\n"
        "@dataclasses.dataclass\n"
        "class Row:\n"
        "    level: int\n"
        "    note: str = ''\n"
        "class Plain:\n"
        "    untracked: int\n"
    )
    referencing = [defining, "row = Row(1)\nrow.note = 'set, never read'\nprint(row.level)\n"]
    assert unread_fields(defining, referencing) == [("Result", "exact", 6), ("Row", "note", 12)]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing_traced_names(functions, methods):
    """``module.function`` for each (module, function, ...) entry that the
    module lacks, and ``module.Class.method`` for each (module, class,
    method, ...) entry not defined in the class itself: the tracer reads
    functions with ``getattr`` and methods from ``owner.__dict__``."""
    missing = []
    for module, attr, *_ in functions:
        if not hasattr(importlib.import_module(module), attr):
            missing.append(f"{module}.{attr}")
    for module, cls, attr, *_ in methods:
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{module}.{cls}.{attr}")
    return missing


def test_traced_names_exist():
    tracing = load_tracing()
    methods = tracing._SPAN_METHODS + tracing._COUNT_METHODS
    assert missing_traced_names(tracing._SPAN_FUNCTIONS, methods) == []


def test_missing_traced_name_is_reported():
    functions = [("sepcont.uniform", "ball_membership", "x"), ("sepcont.uniform", "gone", "x")]
    methods = [
        ("sepcont.zerodim", "ZerodimPipeline", "diagonal", "x"),
        ("sepcont.zerodim", "ZerodimPipeline", "gone", "x"),
        # Inherited, not in the class's own __dict__.
        ("sepcont.groups", "RealBoundedGroup", "mul", "x"),
        ("sepcont.zerodim", "Gone", "diagonal", "x"),
    ]
    assert missing_traced_names(functions, methods) == [
        "sepcont.uniform.gone",
        "sepcont.zerodim.ZerodimPipeline.gone",
        "sepcont.groups.RealBoundedGroup.mul",
        "sepcont.zerodim.Gone.diagonal",
    ]
