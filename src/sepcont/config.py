"""Plain sectioned ``key = value`` experiment configs and the text grammars
for points, clopen sets and function descriptions.

Config syntax (``read_sections``): blank lines; full-line comments, whose
first non-blank character is ``#`` or ``;``; headers ``[name]``, the name
being the text between the first ``[`` and the last ``]``, unstripped; and
``key = value`` or ``key: value`` lines, split at the first ``=`` or ``:``,
key and value stripped, keys case-sensitive.  A line before the first
header, a line with no delimiter or an empty key, a repeated section or
key, a ``[DEFAULT]`` section and a continuation line (one indented deeper
than the option line before it) are errors.  Every other text reads as
``configparser.ConfigParser(interpolation=None)`` with keys kept as
written reads it.

Function grammar:
  const <elt>
  table <depth> <file.csv>         rows/cols = cylinder index, cells = elements
  diag ones <v1>,<v2>,...          infinite [1^n 0] schema, schedule
                                   v1,v2,... cycling from n = 0
  diag ones-finite <v1>,...        schedule v1,... then the identity
                                   cycling, so identity past the list
  diag cyl <prefix>:<elt>,...      finite disjoint cylinder family
  prod(<fn>, <fn>)   inv(<fn>)
  quant(<fn>, <n>)                 r_n o fn for a level n in [0, MAX_N]; builds r_0..r_n
"""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from sepcont.cantor import CantorPoint, ClopenSet
from sepcont.errors import ConfigError
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    OnesDiagonal,
    PointwiseInverse,
    PointwiseProduct,
    SepFunction,
    SubbasicNbhd,
    TableFunction,
)
from sepcont.groups import GroupSpec, RealBoundedGroup, get_group
from sepcont.reports import parse_dyadic
from sepcont.uniform import BallQuery

# Bounds n_max, every quant level and every budget level; working depth stays <= 3.
MAX_N = 12


def parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, not {text!r}") from None


def _top_level_commas(text: str) -> list[int]:
    """The positions of the commas outside parentheses."""
    commas: list[int] = []
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            commas.append(i)
    return commas


def parse_function(text: str, group: GroupSpec, base_dir: Path) -> SepFunction:
    s = text.strip()
    try:
        return _parse_function(s, group, base_dir)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad function description {text!r}: {exc}") from exc


def _parse_function(s: str, group: GroupSpec, base_dir: Path) -> SepFunction:
    if s.startswith("prod(") and s.endswith(")"):
        # A value list holds commas too, so try every top-level comma and
        # keep the one split at which both sides parse.  A wrong split may
        # name a table file that does not exist.
        body = s[len("prod(") : -1]
        splits, errors = [], []
        for i in _top_level_commas(body):
            try:
                left = _parse_function(body[:i].strip(), group, base_dir)
                right = _parse_function(body[i + 1 :].strip(), group, base_dir)
            except (ConfigError, ValueError, OSError) as exc:
                errors.append(f"; {exc}")
                continue
            splits.append(PointwiseProduct(left, right))
        if not splits:
            raise ConfigError(f"prod takes two functions: no comma of {s!r} splits it into "
                              f"two that parse{''.join(errors)}")
        if len(splits) > 1:
            raise ConfigError(f"prod takes two functions: more than one comma of {s!r} splits it")
        return splits[0]
    if s.startswith("inv(") and s.endswith(")"):
        return PointwiseInverse(_parse_function(s[len("inv(") : -1], group, base_dir))
    if s.startswith("quant(") and s.endswith(")"):
        # The level has no comma, so it follows the last top-level one.
        body = s[len("quant(") : -1]
        commas = _top_level_commas(body)
        if not commas:
            raise ConfigError(f"quant takes a function and a level: {s!r}")
        from sepcont.zerodim import quantize

        inner = _parse_function(body[: commas[-1]].strip(), group, base_dir)
        n = int(body[commas[-1] + 1 :])
        if not 0 <= n <= MAX_N:
            raise ConfigError(f"quant level {n} must be in [0, {MAX_N}]: {s!r}")
        return quantize(inner, n)
    head, _, rest = s.partition(" ")
    rest = rest.strip()
    if head == "const":
        return Constant(group.parse_element(rest))
    if head == "table":
        depth_text, _, file_text = rest.partition(" ")
        return load_table(base_dir / file_text.strip(), int(depth_text), group)
    if head == "diag":
        kind, _, vals = rest.partition(" ")
        vals = vals.strip()
        if kind == "ones":
            return OnesDiagonal(tuple(group.parse_element(v) for v in vals.split(",")))
        if kind == "ones-finite":
            values = tuple(group.parse_element(v) for v in vals.split(","))
            return OnesDiagonal((group.identity(),), prefix=values)
        if kind == "cyl":
            pairs = []
            for item in vals.split(","):
                prefix, _, lit = item.partition(":")
                pairs.append((prefix.strip(), group.parse_element(lit.strip())))
            return CylinderDiagonal(tuple(pairs))
        raise ConfigError(f"unknown diag family {kind!r}")
    raise ConfigError(f"unknown function head {head!r}")


def load_table(path: Path, depth: int, group: GroupSpec) -> TableFunction:
    """The table in a CSV file; ``TableFunction`` checks its shape."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [tuple(group.parse_element(cell) for cell in row) for row in csv.reader(fh)]
    return TableFunction(depth, tuple(rows))


def parse_side(text: str) -> CantorPoint | ClopenSet:
    s = text.strip()
    if s.startswith("{") or s.startswith("!"):
        return ClopenSet.parse(s)
    return CantorPoint.parse(s)


def parse_probe(name: str, text: str) -> SubbasicNbhd:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 2:
        raise ConfigError(f"probe {name!r} must be '<x side> ; <y side>'")
    try:
        return SubbasicNbhd(parse_side(parts[0]), parse_side(parts[1]), frozenset(), name)
    except ValueError as exc:
        raise ConfigError(f"probe {name!r}: {exc}") from exc


class Experiment(NamedTuple):
    group: GroupSpec
    function: SepFunction
    n_max: int
    levels: list[int]
    out: Path
    probes: list[SubbasicNbhd]
    ball_queries: list[BallQuery]
    inject_fault_at: int | None
    problem3: tuple[SepFunction, Fraction] | None
    text: str


_SECTIONS = ("experiment", "probes", "ball", "closure", "problem3")
# The third key is accepted and never read: every sup is taken over exact
# point sets, and generated configs still carry the key.
_EXPERIMENT_KEYS = ("group", "function", "grid_depth", "n_max", "levels", "out")


def _known(items: dict[str, str], keys: tuple[str, ...], where: str) -> dict[str, str]:
    """items, once every key is one of ``keys``."""
    unknown = [k for k in items if k not in keys]
    if unknown:
        raise ConfigError(f"{where} has no key {unknown[0]!r}; known keys: {', '.join(keys)}")
    return items


def _ball_query(name: str, text: str, function: SepFunction, base_dir: Path) -> BallQuery:
    """The query ``side=<side>; eps=<radius>; candidate=<function>``."""
    fields = {}
    for item in text.split(";"):
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"ball query {name!r}: item {item.strip()!r} is not <key>=<value>")
        key = key.strip()
        if key in fields:
            raise ConfigError(f"ball query {name!r} repeats {key!r}")
        fields[key] = value.strip()
    keys = ("side", "eps", "candidate")
    if len(_known(fields, keys, f"ball query {name!r}")) < len(keys):
        raise ConfigError(f"ball query {name!r} needs side=, eps=, candidate=")
    eps = parse_eps(fields["eps"])
    candidate = parse_function(fields["candidate"], function.group, base_dir)
    try:
        return BallQuery(function, candidate, fields["side"], eps, name)
    except ValueError as exc:
        raise ConfigError(f"ball query {name!r}: {exc}") from exc


def _random_probes(count: int, seed: int) -> list[SubbasicNbhd]:
    import random

    rng = random.Random(seed)
    probes = []
    for i in range(count):
        prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        point = CantorPoint(prefix, rng.choice(["0", "1"]))
        region = ClopenSet.from_prefixes(
            ["".join(rng.choice("01") for _ in range(rng.randint(1, 2)))]
        )
        if rng.random() < 0.5:
            probes.append(SubbasicNbhd(point, region, frozenset(), f"rnd{i}"))
        else:
            probes.append(SubbasicNbhd(region, point, frozenset(), f"rnd{i}"))
    return probes


def read_sections(text: str, path: Path) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` of a config text, in file order."""
    sections: dict[str, dict[str, str]] = {}
    section = option_indent = None  # the indent of the option line before, if any
    for lineno, line in enumerate(text.split("\n"), start=1):
        s = line.strip()
        if not s or s[0] in "#;":
            continue
        indent, end = len(line) - len(line.lstrip()), s.rfind("]")
        header = s[1:end] if s[0] == "[" and end > 1 else None
        eq, colon = s.find("="), s.find(":")
        cut = min(eq, colon) if eq >= 0 and colon >= 0 else max(eq, colon)
        if option_indent is not None and indent > option_indent:
            problem = "continuation line"
        elif header == "DEFAULT" or header in sections:
            problem = "a [DEFAULT] section" if header == "DEFAULT" else "repeated section"
        elif header is not None:
            section = sections[header] = {}
            option_indent = None
            continue
        elif section is None:
            problem = "line before the first section header"
        elif cut <= 0:
            problem = "no key before '=' or ':'"
        elif (key := s[:cut].rstrip()) in section:
            problem = f"repeated key {key!r}"
        else:
            section[key], option_indent = s[cut + 1 :].strip(), indent
            continue
        raise ConfigError(f"config parse error in {path}: line {lineno}: {problem}: {s!r}")
    return sections


def load_experiment(
    path: str | Path,
    out_override: str | None = None,
    seed: int = 0,
) -> Experiment:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sections = read_sections(text, path)
    if "experiment" not in sections:
        raise ConfigError(f"{path}: missing [experiment] section")
    unknown = [name for name in sections if name not in _SECTIONS]
    if unknown:
        raise ConfigError(
            f"{path}: unknown section [{unknown[0]}]; known sections: {', '.join(_SECTIONS)}"
        )
    exp = _known(sections["experiment"], _EXPERIMENT_KEYS, "[experiment]")
    try:
        group = get_group(exp["group"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    n_max = parse_int(exp.get("n_max", "3"), "n_max")
    if n_max < 0 or n_max > MAX_N:
        raise ConfigError(f"n_max must be in [0, {MAX_N}]")
    levels_text = exp.get("levels", "1,2")
    try:
        levels = [int(v) for v in levels_text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad levels list {levels_text!r}") from None
    if not levels:
        raise ConfigError("levels must list at least one level")
    if any(not 0 <= l <= MAX_N for l in levels):
        raise ConfigError(f"levels must be in [0, {MAX_N}]: {levels_text!r}")
    if "function" not in exp:
        raise ConfigError(f"{path}: [experiment] needs a function")
    function = parse_function(exp["function"], group, path.parent)
    probes = []
    for name, value in sections.get("probes", {}).items():
        if name == "random":
            probes.extend(_random_probes(parse_int(value, "random"), seed))
        else:
            probes.append(parse_probe(name, value))
    ball_queries = [
        _ball_query(name, value, function, path.parent)
        for name, value in sorted(sections.get("ball", {}).items())
    ]
    closure = _known(sections.get("closure", {}), ("inject_fault_at",), "[closure]")
    fault_at = None
    if "inject_fault_at" in closure:
        fault_at = parse_int(closure["inject_fault_at"], "inject_fault_at")
        if not 0 <= fault_at <= n_max:
            raise ConfigError(f"inject_fault_at must be a stage in [0, {n_max}]")
    problem3 = None
    if "problem3" in sections:
        p3 = _known(sections["problem3"], ("candidate", "bound"), "[problem3]")
        if "candidate" not in p3:
            raise ConfigError("[problem3] needs a candidate function")
        if not isinstance(group, RealBoundedGroup):
            raise ConfigError("[problem3] runs over the real group")
        bound = parse_eps(p3["bound"]) if "bound" in p3 else Fraction(1)
        problem3 = (parse_function(p3["candidate"], group, path.parent), bound)
    out = Path(out_override) if out_override else path.parent / exp.get("out", "reports")
    return Experiment(
        group=group,
        function=function,
        n_max=n_max,
        levels=levels,
        out=out,
        probes=probes,
        ball_queries=ball_queries,
        inject_fault_at=fault_at,
        problem3=problem3,
        text=text,
    )


def parse_eps(text: str) -> Fraction:
    try:
        eps = parse_dyadic(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if eps <= 0:
        raise ConfigError(f"radius must be positive: {text!r}")
    return eps
