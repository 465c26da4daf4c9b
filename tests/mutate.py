"""Mutation check of the discrete engine.

Each order comparison in ``src/sepcont/discrete.py`` is swapped with its
strict or non-strict twin (``<`` and ``<=``, ``>`` and ``>=``), and each
``and`` with ``or`` and back, one mutant at a time.  Every mutant is
written into a copy of the package and must fail ``tests/test_discrete.py``.
A mutant that no input can tell apart from the original is listed in
``EQUIVALENT`` with the reason.

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
TARGET = "discrete.py"
TESTS = REPO / "tests" / "test_discrete.py"
TIMEOUT_S = 600

SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.And: ast.Or, ast.Or: ast.And}

# Each key is a mutant's label, "function: mutated expression".
EQUIVALENT = {
    "memberships: depth > d": "at depth == d both branches list K's own cells (j >> 0 and range(j, j + 1))",
}


def _sites(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(position in ast.walk order, operator index or -1 for a BoolOp,
    enclosing function) of each operator a mutant swaps."""
    functions = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                functions[id(node)] = fn.name  # the innermost def wins: walked last
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


def killed(mutated: str, work: Path) -> bool:
    """Whether the test module fails (or times out) on the mutated engine."""
    (work / "sepcont" / TARGET).write_text(mutated)
    env = {**os.environ, "PYTHONPATH": str(work), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(TESTS)]
    try:
        run = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def main() -> int:
    source = (PACKAGE / TARGET).read_text()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(PACKAGE, work / "sepcont", ignore=shutil.ignore_patterns("__pycache__"))
        where = subprocess.run(
            [sys.executable, "-c", "import sepcont.discrete as m; print(m.__file__)"],
            env={**os.environ, "PYTHONPATH": str(work)}, capture_output=True, text=True,
        ).stdout.strip()
        if Path(where) != work / "sepcont" / TARGET:
            print(f"sepcont.discrete is imported from {where}, not from the copy")
            return 1
        if killed(ast.unparse(ast.parse(source)), work):
            print(f"the unmutated {TARGET} fails {TESTS.name}; nothing to measure")
            return 1
        for label, mutated in mutants(source):
            dead = killed(mutated, work)
            print(("killed   " if dead else "SURVIVED ") + label, flush=True)
            if not dead:
                survivors.append(label)
    unlisted = [s for s in survivors if s not in EQUIVALENT]
    stale = [s for s in EQUIVALENT if s not in survivors]
    for label in unlisted:
        print(f"survivor not in EQUIVALENT: {label}")
    for label in stale:
        print(f"EQUIVALENT entry that no longer survives: {label}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
