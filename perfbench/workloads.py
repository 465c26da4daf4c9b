"""Seeded job generators for the three benchmark workloads.

A job is one ``sepcont`` CLI invocation: a subcommand, a config text and
any table files the config names.  Every job list is drawn from a
``random.Random`` seeded with ``"<seed>/<workload>/<part>"``, so one
``--seed`` fixes every input.  Each pass has a fixed quota of job shapes
(subcommand, size settings) and the seed draws everything else; that keeps
the cost of a pass nearly the same from seed to seed while the inputs differ.

Within one run no job repeats an earlier job's input (warm-up included):
``generate_run`` draws again whenever a job's input key was already used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("zerodim-diagonal", "discrete-certify", "uniform-balls")

# The parser splits ``quant(<fn>, <n>)`` on every top-level comma, so a
# ``quant`` over a multi-value ``diag`` family is rejected with exit 2.
# Jobs that use one are tagged so the check can tell this known defect
# from a new failure.
KNOWN_DEFECT_STDERR = "quant takes a function and a level"


@dataclass(frozen=True)
class Job:
    job_id: str
    command: str
    config: str
    files: tuple[tuple[str, str], ...] = ()
    known_defect: bool = False
    key: str = ""


@dataclass(frozen=True)
class RunPlan:
    workload: str
    seed: int
    warmup: tuple[Job, ...]
    passes: tuple[tuple[Job, ...], ...]


# ---------------------------------------------------------------- literals


def _bits(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def _point(rng: random.Random) -> str:
    """An eventually periodic point literal such as ``10(0)`` or ``(01)``."""
    period = rng.choice(["0", "0", "1", "01", "10"])
    return f"{_bits(rng, 0, 3)}({period})"


def _clopen(rng: random.Random, max_depth: int) -> str:
    if rng.random() < 0.2:
        return "!{}"
    prefixes = sorted({_bits(rng, 1, max_depth) for _ in range(rng.randint(1, 2))})
    body = "{" + ",".join(prefixes) + "}"
    return "!" + body if rng.random() < 0.2 else body


def _probe(rng: random.Random, max_depth: int) -> str:
    if rng.random() < 0.5:
        return f"{_point(rng)} ; {_clopen(rng, max_depth)}"
    return f"{_clopen(rng, max_depth)} ; {_point(rng)}"


def _dyadic_value(rng: random.Random, periodic: bool = True) -> str:
    """A non-identity dyadic-group element: up to four bits, a 1, then a
    zero tail or, if ``periodic``, possibly a short periodic one; written in
    canonical form so that distinct literals are distinct points."""
    tails = ["0", "0", "01", "001", "011"] if periodic else ["0"]
    return _canonical_point(f"{_bits(rng, 0, 4)}1", rng.choice(tails))


def _canonical_point(pre: str, per: str) -> str:
    """``pre(per)`` with the minimal period and the shortest preperiod."""
    n = len(per)
    per = next(per[:d] for d in range(1, n + 1) if n % d == 0 and per == per[:d] * (n // d))
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1] + per[:-1]
    return f"{pre}({per})"


def _real_value(rng: random.Random) -> str:
    """A nonzero dyadic rational in [-1, 1].  The real group's nets are
    enumerated inside [-1, 1], so the quantizer tower cannot place a value
    further out."""
    return _dyadic_literal(Fraction(rng.randint(1, 8), 8) * rng.choice([1, -1]))


def _dyadic_literal(value: Fraction) -> str:
    """``p/2^q`` in lowest terms, so equal literals mean equal values."""
    return f"{value.numerator}/2^{value.denominator.bit_length() - 1}"


def _cyclic_value(rng: random.Random) -> str:
    return str(rng.randint(1, 4))


_VALUE = {"dyadic": _dyadic_value, "real": _real_value, "cyclic:5": _cyclic_value}
_GROUPS = ("dyadic", "real", "cyclic:5")


def _distinct(draw, count: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        v = draw()
        if v not in out:
            out.append(v)
    return out


def _values(rng: random.Random, group: str, count: int) -> list[str]:
    return _distinct(lambda: _VALUE[group](rng), count)


def _diag_ones(rng: random.Random, group: str, count: int) -> str:
    return "diag ones " + ",".join(_values(rng, group, count))


def _diag_family(rng: random.Random, group: str, kind: str, least: int = 1, most: int = 3) -> str:
    """``diag ones``, ``diag ones-finite`` or ``diag cyl`` with ``least`` to
    ``most`` seeded values."""
    if kind == "ones":
        return _diag_ones(rng, group, rng.randint(least, most))
    if kind == "ones-finite":
        return "diag ones-finite " + ",".join(_values(rng, group, rng.randint(least, most)))
    # Pairwise disjoint cylinders: distinct prefixes of one length, or a
    # prefix-free [1^n 0]-style chain.
    if rng.random() < 0.5:
        length = rng.randint(1, 3)
        prefixes = rng.sample([format(i, f"0{length}b") for i in range(2**length)],
                              min(rng.randint(least, most), 2**length))
    else:
        prefixes = ["1" * n + "0" for n in sorted(rng.sample(range(4), rng.randint(least, most)))]
    vals = [_VALUE[group](rng) for _ in prefixes]
    return "diag cyl " + ",".join(f"{p}:{v}" for p, v in zip(prefixes, vals))


def _config(experiment: dict[str, object], sections: dict[str, list[str]]) -> str:
    lines = ["[experiment]"]
    lines += [f"{k} = {v}" for k, v in experiment.items()]
    for name, body in sections.items():
        lines += ["", f"[{name}]", *body]
    return "\n".join(lines) + "\n"


def _table_csv(rng: random.Random, depth: int) -> str:
    n = 2**depth
    return "\n".join(",".join(_real_value(rng) for _ in range(n)) for _ in range(n)) + "\n"


# A "maker" draws one job of a fixed shape from an rng and returns
# (command, config, input key, table files, known_defect).  Jobs with the same
# input key compute the same thing; the key is the function text where that
# is the whole input, and the full config otherwise.

# ------------------------------------------------------ zerodim-diagonal

# (n_max, grid_depth, levels, cycling values, seeded probes) per job of a
# pass.  Depth 6 is what the shipped configs use; depth 5 keeps the larger
# n_max affordable.  The probe count is fixed per shape because every probe
# adds a tail-containment sweep per level.
_ZERODIM_SHAPES = (
    (3, 6, "1,2", 1, 1),
    (4, 5, "1,2,3", 3, 3),
    (6, 5, "1,2", 2, 1),
)


def _zerodim_job(n_max: int, depth: int, levels: str, values: int, probes: int):
    """Values have zero tails, as in the shipped configs: a periodic tail
    makes every group product work over the lcm of the periods, which
    would make the cost of a pass depend on the seed."""

    def make(rng: random.Random):
        function = "diag ones " + ",".join(_distinct(lambda: _dyadic_value(rng, False), values))
        probe_lines = ["acc_x = (1) ; !{}"]
        probe_lines += [f"q{i} = {_probe(rng, 3)}" for i in range(probes)]
        cfg = _config(
            {"group": "dyadic", "function": function, "grid_depth": depth,
             "n_max": n_max, "levels": levels},
            {"probes": probe_lines},
        )
        return "approx-zerodim", cfg, function, (), False

    return make


# ------------------------------------------------------ discrete-certify


def _discrete_job(kind: str, values: int):
    def make(rng: random.Random):
        function = _diag_family(rng, "dyadic", kind, values, values)
        probes = [f"p{j:02d} = {_probe(rng, 3)}" for j in range(12)]
        cfg = _config(
            {"group": "dyadic", "function": function, "grid_depth": 6,
             "n_max": 12, "levels": 1},
            {"probes": probes},
        )
        return "approx-discrete", cfg, function, (), False

    return make


# --------------------------------------------------------- uniform-balls


_CENTER_KINDS = ("ones", "ones-finite", "cyl", "prod", "inv", "table")


def _center(rng: random.Random, group: str, kind: str) -> tuple[str, tuple]:
    """A center function over ``group`` of the given grammar form."""
    if kind == "prod":
        # Single-value factors: prod(...) splits its arguments on every
        # comma, the parser defect that the multi-value quant jobs carry.
        left, right = _diag_family(rng, group, "ones", 1, 1), _diag_family(rng, group, "cyl", 1, 1)
        return f"prod({left}, {right})", ()
    if kind == "inv":
        return f"inv({_diag_family(rng, group, 'ones')})", ()
    if kind == "table" and group == "real":
        return "table 2 center.csv", (("center.csv", _table_csv(rng, 2)),)
    if kind == "table":
        kind = "ones"
    return _diag_family(rng, group, kind), ()


def _ball_job(group: str, kind: str, depth: int, index: int, defect: bool):
    """Four queries, one per side, each with a ``const`` or ``quant``
    candidate; side ``k`` gets radius ``2^-((index + k) % 4)``, so every pass
    asks the same radii.  With ``defect`` one candidate is a ``quant`` over
    a multi-value family, which the parser rejects."""

    def make(rng: random.Random):
        center, files = _center(rng, group, kind)
        defect_side = rng.choice(["l", "r", "lr", "rl"]) if defect else None
        queries = []
        for k, side in enumerate(("l", "r", "lr", "rl")):
            eps = f"1/2^{(index + k) % 4}"
            if side == defect_side:
                cand = f"quant({_diag_ones(rng, group, rng.randint(2, 3))}, {rng.randint(1, 3)})"
            elif rng.random() < 0.5:
                cand = f"quant({_diag_ones(rng, group, 1)}, {rng.randint(1, 3)})"
            else:
                cand = f"const {_VALUE[group](rng)}"
            queries.append(f"b_{side} = side={side}; eps={eps}; candidate={cand}")
        cfg = _config(
            {"group": group, "function": center, "grid_depth": depth, "n_max": 2, "levels": 1},
            {"ball": queries},
        )
        return "ball", cfg, cfg + repr(files), files, defect

    return make


def _closure_job(group: str, depth: int, n_max: int, levels: str, kind: str, values: int,
                 fault: bool, probes: int):
    def make(rng: random.Random):
        function = _diag_family(rng, group, kind, values, values)
        probe_lines = ["acc_x = (1) ; !{}"]
        probe_lines += [f"q{i} = {_probe(rng, 3)}" for i in range(probes - 1)]
        sections = {"probes": probe_lines}
        if fault:
            sections["closure"] = [f"inject_fault_at = {rng.randint(0, n_max)}"]
        cfg = _config(
            {"group": group, "function": function, "grid_depth": depth,
             "n_max": n_max, "levels": levels},
            sections,
        )
        return "closure-probe", cfg, cfg, (), False

    return make


def _problem3_job(depth: int, table_candidate: bool):
    """A depth-2 table that jitters around a level, against a candidate at
    that level; the bound decides whether the jitter passes."""

    def make(rng: random.Random):
        level = rng.randint(-2, 2)

        def table(size: int) -> str:
            cells = [[Fraction(level) + Fraction(rng.randint(-7, 7), 8) for _ in range(size)]
                     for _ in range(size)]
            return "\n".join(",".join(_dyadic_literal(v) for v in row) for row in cells) + "\n"

        files = [("f.csv", table(4))]
        if table_candidate:
            candidate = "table 1 g.csv"
            files.append(("g.csv", table(2)))
        else:
            candidate = f"const {level}/2^0"
        bound = rng.choice(["1/2^1", "3/2^2", "1/2^0", "3/2^1"])
        cfg = _config(
            {"group": "real", "function": "table 2 f.csv", "grid_depth": depth,
             "n_max": 2, "levels": 1},
            {"problem3": [f"candidate = {candidate}", f"bound = {bound}"]},
        )
        return "problem3", cfg, cfg + repr(files), tuple(files), False

    return make


def _nets_job(group: str, n_max: int):
    def make(rng: random.Random):
        cfg = _config(
            {"group": group, "function": f"const {_VALUE[group](rng)}", "grid_depth": 4,
             "n_max": n_max, "levels": 1},
            {},
        )
        # The nets report depends on the group and n_max only.
        return "nets", cfg, f"{group}/{n_max}", (), False

    return make


# (depth, n_max, levels, family, values) of the closure jobs of each group.
_CLOSURE_SHAPES = (
    (4, 4, "1,2", "ones", 2),
    (5, 2, "1", "ones-finite", 1),
    (5, 3, "1,2", "ones", 3),
)


def _uniform_makers(balls: int, defects: int, closures: int, problem3: int,
                    nets: dict[str, int]) -> list:
    """Per group: ball jobs cycling through center forms and depths 4-5,
    the first ``defects`` of them with a multi-value quant; closure jobs
    cycling through _CLOSURE_SHAPES, every other one with a fault; one nets
    job at ``nets[group]``.  Then problem3 jobs cycling through depths 4-6."""
    makers = []
    for group in _GROUPS:
        makers += [
            _ball_job(group, _CENTER_KINDS[i % len(_CENTER_KINDS)], 4 + i % 2, i, i < defects)
            for i in range(balls)
        ]
        makers += [
            _closure_job(group, *_CLOSURE_SHAPES[i % len(_CLOSURE_SHAPES)], i % 2 == 1, 1 + i % 2)
            for i in range(closures)
        ]
        makers.append(_nets_job(group, nets[group]))
    return makers + [_problem3_job(4 + i % 3, i % 2 == 1) for i in range(problem3)]


# ------------------------------------------------------------------- plan


def _discrete_makers(count: int) -> list:
    """Family forms cycle; the value count cycles 1-3 within each form."""
    kinds = ("ones", "ones-finite", "cyl")
    return [_discrete_job(kinds[i % 3], 1 + (i // 3) % 3) for i in range(count)]


def _warmup_makers(workload: str) -> list:
    if workload == "zerodim-diagonal":
        return [_zerodim_job(3, 5, "1,2", 1, 1), _zerodim_job(3, 5, "1,2,3", 2, 1)]
    if workload == "discrete-certify":
        return _discrete_makers(12)
    return _uniform_makers(balls=2, defects=1, closures=2, problem3=3,
                           nets={group: 0 for group in _GROUPS})


def _pass_makers(workload: str, index: int) -> list:
    """The fixed job shapes of timed pass ``index``."""
    if workload == "zerodim-diagonal":
        return [_zerodim_job(*shape) for shape in _ZERODIM_SHAPES]
    if workload == "discrete-certify":
        return _discrete_makers(100)
    # 3 x (16 ball + 6 closure + 1 nets) + 31 problem3 = 100 jobs.  Pass p
    # runs nets at n_max p+1 on dyadic and cyclic:5 and 4-p on real (p+1
    # from pass 4 on), so no pass repeats a nets input and the nets costs of
    # the first four passes stay close (a net's cost grows steeply with n_max).
    real = 4 - index if index < 4 else index + 1
    return _uniform_makers(balls=16, defects=1, closures=6, problem3=31,
                           nets={"dyadic": index + 1, "real": real, "cyclic:5": index + 1})


def _draw(rng: random.Random, makers: list, seen: set[str], prefix: str) -> tuple[Job, ...]:
    """One job per maker, redrawing any whose input key was already used,
    in an order shuffled by ``rng``."""
    jobs = []
    for i, make in enumerate(makers):
        for _ in range(1000):
            command, cfg, key, files, defect = make(rng)
            if f"{command}|{key}" not in seen:
                break
        else:
            raise RuntimeError(f"cannot draw a fresh input for {prefix}/j{i:03d}")
        seen.add(f"{command}|{key}")
        jobs.append(Job(f"{prefix}/j{i:03d}", command, cfg, files, defect, key))
    rng.shuffle(jobs)
    return tuple(jobs)


def generate_run(workload: str, seed: int, passes: int) -> RunPlan:
    """Warm-up jobs and ``passes`` timed job lists for one seed.  Pass ``p``
    is the same whatever ``passes`` is, so a longer plan extends a shorter one."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seen: set[str] = set()

    def rng(part: str) -> random.Random:
        return random.Random(f"{seed}/{workload}/{part}")

    warmup = _draw(rng("warmup"), _warmup_makers(workload), seen, "warmup")
    timed = tuple(
        _draw(rng(f"pass{p}"), _pass_makers(workload, p), seen, f"pass{p}")
        for p in range(passes)
    )
    return RunPlan(workload, seed, warmup, timed)
