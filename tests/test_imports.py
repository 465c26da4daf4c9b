"""Every name a module under src/sepcont imports is used in that module,
and every function, class and method it defines is referenced somewhere;
every parameter of a module-level function is read in its body.

Names listed in a module's ``__all__`` count as used: the package
re-exports its public names that way.  A definition counts as referenced
when its name appears as a name, an attribute or a string constant in
src/ or perfbench/ (the benchmark wraps methods by name): code that only
tests call is a fixture and lives in tests/.  A method is reached through
its object, so a bare name, such as a local variable of the same name,
does not count for it.  A declared field (of a dataclass or a NamedTuple,
or named in ``__slots__``) counts as read when tests/ read it too.  Dunder
methods are called by the language and are not checked.  Every function
and method the benchmark's tracer wraps by name exists where the tracer
looks for it.

Every exception type in ``errors.py`` but the base is raised somewhere in
src/.

Only the value types (points, cylinders and clopen sets) define ``__eq__``
or ``__hash__``; every other class compares by identity.  Group elements
are hash-consed, one object per value: ``GroupElement`` is called only
inside ``GroupSpec.element``.

No module names the retired ``grid_depth`` setting, in code or in a
docstring, apart from its entry among the accepted config keys, so it
cannot come back through a single call site.

The package's classes are immutable by convention: every attribute store
is in an ``__init__``, apart from a short allow-list.  Importing the CLI
loads neither ``dataclasses`` nor ``inspect``, nor ``traceback``, which only
an internal fault needs.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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
        if _assigns(node, "__all__"):
            used |= set(ast.literal_eval(node.value))
    return used


def _assigns(stmt, name):
    """Whether stmt is an assignment to the plain name ``name``."""
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in stmt.targets
    )


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
    source = "from sepcont.cantor import ClopenSet, basis_index\n__all__ = ['basis_index']\n"
    assert unused_imports(source) == [("ClopenSet", 1)]


def test_modules_found():
    assert {"discrete.py", "cantor.py", "__init__.py"} <= {p.name for p in MODULES}


def _methods(node):
    """The functions defined directly in the body of a class node."""
    return [s for s in node.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]


def definitions(tree):
    """(name, line, is_method) for each function, class and method, nested
    ones included."""
    methods = {id(m) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for m in _methods(node)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, id(node) in methods


def references(tree):
    """(names, members): every bare name in the module, and every attribute
    name and string constant."""
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return names, members


def unreferenced_definitions(defining, referencing):
    """(name, line) for each non-dunder definition in the source ``defining``
    whose name no source in ``referencing`` mentions; a method's name counts
    only as an attribute or a string."""
    names, members = set(), set()
    for src in referencing:
        n, m = references(ast.parse(src))
        names |= n
        members |= m
    return [
        (name, line)
        for name, line, method in definitions(ast.parse(defining))
        if name not in members
        and (method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
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
        "    def order(self):\n"
        "        pass\n"
        "def orphan():\n"
        "    pass\n"
    )
    # A local variable named like a method does not reference the method.
    referencing = [
        defining, "Used().called()\n", "PATCH = ('Used', 'wrapped')\n", "order = 3\nprint(order)\n",
    ]
    assert set(unreferenced_definitions(defining, referencing)) == {("order", 10), ("orphan", 12)}


def raised_names(source):
    """The name each ``raise`` in source raises, called or not, bare
    (``raise ConfigError(...)``) or qualified (``raise errors.ConfigError``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return out


def unraised_errors(errors_source, sources):
    """The exception classes errors_source defines, apart from the base
    ``SepcontError``, that no ``raise`` in sources names.  An ``except``
    clause names a class too, so the reference lint above passes a type
    that is caught but never raised."""
    raised = set().union(*map(raised_names, sources))
    return [
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef) and node.name != "SepcontError" and node.name not in raised
    ]


def test_every_error_type_is_raised():
    assert unraised_errors((SRC / "errors.py").read_text(), [p.read_text() for p in MODULES]) == []


def test_unraised_error_type_is_reported():
    errors = (
        "class SepcontError(Exception):\n"
        "    pass\n"
        "class Called(SepcontError):\n"
        "    pass\n"
        "class Qualified(SepcontError):\n"
        "    pass\n"
        "class Bare(SepcontError):\n"
        "    pass\n"
        "class Caught(SepcontError):\n"
        "    pass\n"
    )
    user = (
        "try:\n"
        "    raise Called('x')\n"
        "except Caught:\n"
        "    raise\n"
        "def f():\n"
        "    raise errors.Qualified from None\n"
        "def g():\n"
        "    raise Bare\n"
    )
    assert unraised_errors(errors, [errors, user]) == ["Caught"]


VALUE_TYPES = {"CantorPoint", "ClopenSet"}


def classes_defining_equality(source):
    """The classes in source that define ``__eq__`` or ``__hash__``."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(m.name in ("__eq__", "__hash__") for m in _methods(node))
    }


def test_only_value_types_define_equality():
    defined = set().union(*(classes_defining_equality(p.read_text()) for p in MODULES))
    assert defined == VALUE_TYPES


def test_stray_equality_is_reported():
    source = (
        "class Point:\n"
        "    def __eq__(self, other):\n"
        "        return self is other\n"
        "class Tree:\n"
        "    def __init__(self):\n"
        "        def __hash__():\n"
        "            return 0\n"
        "class Cell:\n"
        "    def __hash__(self):\n"
        "        return 0\n"
    )
    assert classes_defining_equality(source) == {"Point", "Cell"}


def element_constructions(source):
    """(class, function, line) for each call of ``GroupElement``, by the
    innermost enclosing class and function (None at module level)."""
    out = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if isinstance(child, ast.Call) and _named(child.func, "GroupElement"):
                out.append((cls, function, child.lineno))
            visit(child, cls, function)

    visit(ast.parse(source), None, None)
    return out


def test_only_group_spec_element_makes_elements():
    # One object per value holds only while no other code makes an element.
    made = {
        (path.name, cls, function)
        for path in REFERENCE_FILES
        for cls, function, _ in element_constructions(path.read_text())
    }
    assert made == {("groups.py", "GroupSpec", "element")}


def test_stray_element_construction_is_reported():
    source = (
        "class GroupSpec:\n"
        "    def element(self, payload):\n"
        "        return GroupElement(self, payload)\n"
        "    def twin(self, e):\n"
        "        return groups.GroupElement(self, e.payload)\n"
        "ONE = GroupElement(None, 0)\n"
        "class GroupElement:\n"
        "    pass\n"
    )
    assert element_constructions(source) == [
        ("GroupSpec", "element", 3), ("GroupSpec", "twin", 5), (None, None, 6),
    ]


RETIRED_SETTING = "grid_depth"


def retired_setting_mentions(source):
    """The sorted lines of each name, attribute, parameter, keyword or
    string (docstrings too) in source that names the retired setting,
    apart from its entry in ``_EXPERIMENT_KEYS``: generated configs still
    carry the key.  Comments are not parsed, so they do not count."""
    tree = ast.parse(source)
    accepted = {id(e) for stmt in tree.body if _assigns(stmt, "_EXPERIMENT_KEYS")
                for e in stmt.value.elts}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = RETIRED_SETTING in node.value and id(node) not in accepted
        else:
            named = RETIRED_SETTING in (getattr(node, f, None) for f in ("id", "attr", "arg", "name"))
        if named:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_names_the_retired_setting():
    mentions = {p.name: retired_setting_mentions(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in mentions.items() if lines} == {}
    from sepcont.config import _EXPERIMENT_KEYS

    assert RETIRED_SETTING in _EXPERIMENT_KEYS


def test_retired_setting_mention_is_reported():
    source = (
        "_EXPERIMENT_KEYS = ('group', 'grid_depth')\n"
        "def check(f, grid_depth=6):\n"
        "    \"\"\"A sweep at grid_depth.\"\"\"\n"
        "    return f(depth=exp.grid_depth, grid_depth=1)  # grid_depth here is a comment\n"
        "KEYS = ('grid_depth',)\n"
        "from sepcont.config import grid_depth\n"
    )
    assert retired_setting_mentions(source) == [2, 3, 4, 4, 5, 6]


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


def declared_fields(tree):
    """(class, field, line) for each annotated field of a ``@dataclass`` or
    ``NamedTuple`` class, and each non-dunder name in a class's ``__slots__``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        annotated = any(_named(d, "dataclass") for d in node.decorator_list) or any(
            _named(b, "NamedTuple") for b in node.bases
        )
        for stmt in node.body:
            if annotated and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno
            elif _assigns(stmt, "__slots__"):
                slots = ast.literal_eval(stmt.value)
                for name in (slots,) if isinstance(slots, str) else slots:
                    if not name.startswith("__"):
                        yield node.name, name, stmt.lineno


def _named(expr, name):
    """Whether a decorator or base class is ``name``, ``module.name`` or a call of either."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == name


def attribute_reads(tree):
    """The names read as an attribute, ``obj.name``, anywhere in the module."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(defining, referencing):
    """(class, field, line) for each declared field in the source
    ``defining`` that no source in ``referencing`` reads as an attribute."""
    reads = set().union(*(attribute_reads(ast.parse(src)) for src in referencing))
    return [f for f in declared_fields(ast.parse(defining)) if f[1] not in reads]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_dataclass_fields_are_read(path, reference_sources):
    # Covers every declared field: NamedTuple and __slots__ fields as well as dataclass ones.
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
        "class Pair(typing.NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "class Point:\n"
        "    __slots__ = ('x', 'y', '__dict__')\n"
        "class Tag:\n"
        "    __slots__ = 'name'\n"
    )
    referencing = [
        defining,
        "row = Row(1)\nrow.note = 'set, never read'\nprint(row.level)\n",
        "print(Pair(1, 2).left, Point().x)\n",
    ]
    assert unread_fields(defining, referencing) == [
        ("Result", "exact", 6),
        ("Row", "note", 12),
        ("Pair", "right", 17),
        ("Point", "y", 19),
        ("Tag", "name", 21),
    ]


# The attribute stores outside an ``__init__``, as (function, attribute).
ALLOWED_STORES = {
    ("__hash__", "_hash"),  # CantorPoint's hash, kept on first use so construction pays nothing
}


def attribute_stores(tree):
    """(function, attribute, line) for each ``obj.attribute = ...`` (or
    augmented assignment or ``del``) outside an ``__init__``; the function
    is the innermost enclosing one, None at module or class level."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and not isinstance(child.ctx, ast.Load)
                and function != "__init__"
            ):
                out.append((function, child.attr, child.lineno))
            visit(child, function)

    visit(tree, None)
    return out


def stray_stores(source):
    return [s for s in attribute_stores(ast.parse(source)) if s[:2] not in ALLOWED_STORES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stores_attributes_only_in_init(path):
    assert stray_stores(path.read_text()) == []


def test_every_allowed_store_is_made():
    stores = {s[:2] for path in MODULES for s in attribute_stores(ast.parse(path.read_text()))}
    assert stores == ALLOWED_STORES


def test_stray_store_is_reported():
    source = (
        "class Point:\n"
        "    def __init__(self, x):\n"
        "        self.x, self.cache = x, {}\n"
        "    def move(self, dx):\n"
        "        self.x += dx\n"
        "        self.cache['moved'] = True\n"
        "    def __enter__(self):\n"
        "        self.t0 = 1\n"
        "        def later():\n"
        "            del self.cache\n"
        "        return later\n"
        "Point.origin = Point(0)\n"
    )
    assert stray_stores(source) == [
        ("move", "x", 5),
        ("__enter__", "t0", 8),
        ("later", "cache", 10),
        (None, "origin", 12),
    ]


def benchmark_setup_code():
    """``SETUP_CODE`` of perfbench/run.py, read without importing the script."""
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if _assigns(node, "SETUP_CODE"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_CODE")


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    # A fresh interpreter, so that no other test's imports count.  Configs
    # are read without configparser, whose constructor runs dir() on itself.
    probe = (
        "import sys\n"
        "dear = {'dataclasses', 'inspect', 'traceback', 'configparser'}\n"
        "loaded = ({'sepcont.cli'} | dear) & set(sys.modules)\n"
        "print(sorted(loaded))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", benchmark_setup_code() + probe],
        env=env, cwd=REPO, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "['sepcont.cli']"


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
