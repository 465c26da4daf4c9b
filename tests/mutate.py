"""Mutation check of the function combinators and grid kernel, the
discrete and zero-dimensional engines, the uniform-topology harness, the
metric groups, the config reader and the Cantor layer.

Each order comparison in a module of ``TARGETS`` is swapped with its
strict or non-strict twin (``<`` and ``<=``, ``>`` and ``>=``), and each
``and`` with ``or`` and back, one mutant at a time.  Every mutant is
written into a copy of the package and must fail the test modules that
``TARGETS`` names for its module.  A mutant that no input can tell apart
from the original is listed in ``EQUIVALENT`` with the reason.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutate.py

It exits 0 when every mutant is killed or listed, and 1 when a mutant
survives unlisted or a listed one no longer survives.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "sepcont"
# Each target module and the test modules that cover it, fastest first:
# pytest stops at the first failure.
TARGETS = {
    "functions.py": ("test_functions.py", "test_grid_values.py"),
    "discrete.py": ("test_discrete.py",),
    "zerodim.py": ("test_zerodim.py", "test_grid_values.py"),
    "uniform.py": ("test_uniform.py",),
    "groups.py": ("test_groups.py", "test_grid_values.py"),
    "config.py": ("test_cli.py",),
    "cantor.py": ("test_cantor.py",),
}
TIMEOUT_S = 600

SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.And: ast.Or, ast.Or: ast.And}

# Per target, each key is a mutant's label, "scope: mutated expression",
# where the scope is the enclosing function, qualified by its class.
EQUIVALENT = {
    "functions.py": {},
    "discrete.py": {
        "DiscreteApproximator.memberships: depth > d": "at depth == d both branches list K's own cells (j >> 0 and range(j, j + 1))",
    },
    "zerodim.py": {},
    "uniform.py": {},
    "groups.py": {
        "DyadicGroup.ball_enumeration: k < 1": "at k == 1 both branches give dense_enumeration(depth) in its order (no leading zeros)",
    },
    "config.py": {
        "_random_probes: rng.random() <= 0.5": "random() returns exactly 0.5 with probability 2^-53; no seed a test uses draws it",
    },
    "cantor.py": {},
}


def _sites(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(position in ast.walk order, operator index or -1 for a BoolOp,
    enclosing scope) of each operator a mutant swaps.  A scope is a def or a
    class, named with the scopes around it (``Class.method``)."""
    functions = {}
    for scope in ast.walk(tree):  # breadth first: outer scopes come first
        if isinstance(scope, (ast.FunctionDef, ast.ClassDef)):
            outer = functions.get(id(scope))
            name = f"{outer}.{scope.name}" if outer else scope.name
            for node in ast.walk(scope):
                functions[id(node)] = name  # the innermost scope wins: walked last
    out = []
    for pos, node in enumerate(ast.walk(tree)):
        name = functions.get(id(node), "<module>")
        if isinstance(node, ast.Compare):
            out += [(pos, i, name) for i, op in enumerate(node.ops) if type(op) in SWAP]
        elif isinstance(node, ast.BoolOp):
            out.append((pos, -1, name))
    return out


def mutants(source: str) -> list[tuple[str, str]]:
    """(label, mutated module source) for every site of ``source``."""
    out = []
    for pos, i, name in _sites(ast.parse(source)):
        tree = ast.parse(source)
        node = list(ast.walk(tree))[pos]
        if i < 0:
            node.op = SWAP[type(node.op)]()
        else:
            node.ops[i] = SWAP[type(node.ops[i])]()
        out.append((f"{name}: {ast.unparse(node)}", ast.unparse(tree)))
    return out


def killed(target: str, mutated: str, work: Path) -> bool:
    """Whether the target's test modules fail (or time out) on the mutated
    module."""
    (work / "sepcont" / target).write_text(mutated)
    env = {**os.environ, "PYTHONPATH": str(work), "PYTHONDONTWRITEBYTECODE": "1"}
    tests = [str(REPO / "tests" / name) for name in TARGETS[target]]
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def check(target: str, work: Path) -> bool:
    """Run every mutant of ``target`` in ``work``, a copy of the package, and
    report; restore the module afterwards.  True when every mutant is
    killed or listed and every listed one survives."""
    source = (PACKAGE / target).read_text()
    module = "sepcont." + target.removesuffix(".py")
    where = subprocess.run(
        [sys.executable, "-c", f"import {module} as m; print(m.__file__)"],
        env={**os.environ, "PYTHONPATH": str(work)}, capture_output=True, text=True,
    ).stdout.strip()
    if Path(where) != work / "sepcont" / target:
        print(f"{module} is imported from {where}, not from the copy")
        return False
    tests = ", ".join(TARGETS[target])
    if killed(target, ast.unparse(ast.parse(source)), work):
        print(f"the unmutated {target} fails {tests}; nothing to measure")
        return False
    survivors = []
    for label, mutated in mutants(source):
        dead = killed(target, mutated, work)
        print(("killed   " if dead else "SURVIVED ") + f"{target} {label}", flush=True)
        if not dead:
            survivors.append(label)
    (work / "sepcont" / target).write_text(source)
    equivalent = EQUIVALENT[target]
    unlisted = [s for s in survivors if s not in equivalent]
    stale = [s for s in equivalent if s not in survivors]
    for label in unlisted:
        print(f"survivor not in EQUIVALENT: {target} {label}")
    for label in stale:
        print(f"EQUIVALENT entry that no longer survives: {target} {label}")
    return not (unlisted or stale)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(PACKAGE, work / "sepcont", ignore=shutil.ignore_patterns("__pycache__"))
        results = [check(target, work) for target in TARGETS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
