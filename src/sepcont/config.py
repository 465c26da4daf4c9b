"""Plain sectioned ``key = value`` experiment configs and the text grammars
for points, clopen sets and function descriptions.

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

import configparser
import csv
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from sepcont.cantor import CantorPoint, ClopenSet, Cylinder
from sepcont.errors import ConfigError
from sepcont.functions import (
    Constant,
    DiagonalIndicator,
    PointwiseInverse,
    PointwiseProduct,
    SepFunction,
    SubbasicNbhd,
    TableFunction,
)
from sepcont.groups import GroupSpec, get_group
from sepcont.reports import parse_dyadic

MAX_N = 12


def depth_cap() -> int:
    return parse_int(os.environ.get("SEPCONT_MAX_DEPTH", "16"), "SEPCONT_MAX_DEPTH")


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
            values = [group.parse_element(v) for v in vals.split(",")]
            return DiagonalIndicator.ones_schema(values)
        if kind == "ones-finite":
            values = [group.parse_element(v) for v in vals.split(",")]
            return DiagonalIndicator.ones_schema((group.identity(),), prefix=values)
        if kind == "cyl":
            pairs = []
            for item in vals.split(","):
                prefix, _, lit = item.partition(":")
                pairs.append((Cylinder(prefix.strip()), group.parse_element(lit.strip())))
            return DiagonalIndicator.from_pairs(pairs)
        raise ConfigError(f"unknown diag family {kind!r}")
    raise ConfigError(f"unknown function head {head!r}")


def load_table(path: Path, depth: int, group: GroupSpec) -> TableFunction:
    n = 2**depth
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[group.parse_element(cell) for cell in row] for row in csv.reader(fh)]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ConfigError(f"table {path} must be {n} x {n}")
    return TableFunction(depth, tuple(tuple(r) for r in rows))


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


@dataclass
class Experiment:
    group: GroupSpec
    function: SepFunction
    grid_depth: int
    n_max: int
    levels: list[int]
    out: Path
    probes: list[SubbasicNbhd]
    raw: configparser.ConfigParser
    text: str
    base_dir: Path

    def section(self, name: str) -> dict[str, str]:
        if self.raw.has_section(name):
            return dict(self.raw.items(name))
        return {}


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
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    exp = dict(parser.items("experiment"))
    try:
        group = get_group(exp["group"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    grid_depth = parse_int(exp.get("grid_depth", "6"), "grid_depth")
    n_max = parse_int(exp.get("n_max", "3"), "n_max")
    cap = depth_cap()
    if grid_depth < 0 or grid_depth > cap:
        raise ConfigError(f"grid_depth must be in [0, {cap}]")
    if n_max < 0 or n_max > MAX_N:
        raise ConfigError(f"n_max must be in [0, {MAX_N}]")
    levels_text = exp.get("levels", "1,2")
    try:
        levels = [int(v) for v in levels_text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad levels list {levels_text!r}") from None
    if not levels:
        raise ConfigError("levels must list at least one level")
    if any(l < 0 for l in levels):
        raise ConfigError(f"levels must be nonnegative: {levels_text!r}")
    if "function" not in exp:
        raise ConfigError(f"{path}: [experiment] needs a function")
    function = parse_function(exp["function"], group, path.parent)
    probes = []
    if parser.has_section("probes"):
        for name, value in parser.items("probes"):
            if name == "random":
                probes.extend(_random_probes(parse_int(value, "random"), seed))
            else:
                probes.append(parse_probe(name, value))
    for p in probes:
        for side in (p.kx, p.ky):
            if isinstance(side, ClopenSet) and side.depth() > grid_depth:
                raise ConfigError(
                    f"probe {p.probe_id!r} uses cylinders deeper than grid_depth {grid_depth}"
                )
    out = Path(out_override) if out_override else path.parent / exp.get("out", "reports")
    return Experiment(
        group=group,
        function=function,
        grid_depth=grid_depth,
        n_max=n_max,
        levels=levels,
        out=out,
        probes=probes,
        raw=parser,
        text=text,
        base_dir=path.parent,
    )


def parse_eps(text: str) -> Fraction:
    try:
        eps = parse_dyadic(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if eps <= 0:
        raise ConfigError(f"radius must be positive: {text!r}")
    return eps
