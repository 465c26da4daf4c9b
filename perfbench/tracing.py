"""Spans and counts around calls into each ``sepcont`` module, installed
at run time by the benchmark and removed afterwards.

Nothing here changes the library on disk: ``install_spans`` and
``install_counts`` replace functions and methods by wrappers, and
``uninstall`` puts the originals back.  A module-level function is also
replaced in every ``sepcont`` module that imported it by name (``cli``
binds ``load_experiment`` and ``ball_membership``, ``uniform`` binds
``uniform_dist``, ...), so calls through those names are seen too.

Span names are ``<module>.<function>``; each span records its start, end,
parent span and job id.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Module-level functions: (module, function, span name).
_SPAN_FUNCTIONS = (
    ("sepcont.config", "load_experiment", "config.load_experiment"),
    ("sepcont.reports", "write_csv", "reports.write"),
    ("sepcont.reports", "write_json", "reports.write"),
    ("sepcont.reports", "write_jsonl", "reports.write"),
    ("sepcont.reports", "build_manifest", "reports.write"),
    ("sepcont.uniform", "ball_membership", "uniform.ball_membership"),
    ("sepcont.uniform", "closure_probe", "uniform.closure_probe"),
    ("sepcont.uniform", "problem3_check", "uniform.problem3_check"),
    ("sepcont.functions", "uniform_dist", "functions.uniform_dist"),
    ("sepcont.functions", "in_subbasic", "functions.in_subbasic"),
    ("sepcont.groups", "ball_net", "groups.ball_net"),
)

# Methods: (module, class, method, span name).
_SPAN_METHODS = (
    ("sepcont.zerodim", "ZerodimPipeline", "__init__", "zerodim.init"),
    ("sepcont.zerodim", "ZerodimPipeline", "condition_rows", "zerodim.condition_rows"),
    ("sepcont.zerodim", "ZerodimPipeline", "uniform_rate", "zerodim.uniform_rate"),
    ("sepcont.zerodim", "ZerodimPipeline", "factor_discreteness", "zerodim.factor_discreteness"),
    ("sepcont.zerodim", "ZerodimPipeline", "diagonal", "zerodim.diagonal"),
    ("sepcont.discrete", "DiscreteApproximator", "approximant", "discrete.approximant"),
    ("sepcont.discrete", "DiscreteApproximator", "certificate", "discrete.certificate"),
)

ROOT_SPAN = "cli.job"
SPAN_NAMES = tuple(dict.fromkeys(
    [ROOT_SPAN] + [s[2] for s in _SPAN_FUNCTIONS] + [s[3] for s in _SPAN_METHODS]
))

# Counted methods: (module, class, method, count name).
_EVAL_SPLIT = (
    ("TableFunction", "table"),
    ("DiagonalIndicator", "diag"),
    ("PointwiseProduct", "product"),
    ("PointwiseInverse", "inverse"),
    ("PostCompose", "postcompose"),
    ("Constant", "const"),
)
_COUNT_METHODS = (
    *(("sepcont.functions", cls, "eval", f"functions.eval_calls.{kind}") for cls, kind in _EVAL_SPLIT),
    ("sepcont.zerodim", "ZerodimPipeline", "stage_function", "zerodim.stage_function_calls"),
    ("sepcont.groups", "GroupSpec", "mul", "groups.mul_calls"),
    ("sepcont.groups", "GroupSpec", "dist", "groups.dist_calls"),
    ("sepcont.groups", "GroupSpec", "inv", "groups.inv_calls"),
    ("sepcont.cantor", "CantorPoint", "__init__", "cantor.point_new"),
    ("sepcont.cantor", "ClopenSet", "union", "cantor.clopen_ops"),
    ("sepcont.cantor", "ClopenSet", "intersect", "cantor.clopen_ops"),
    ("sepcont.cantor", "ClopenSet", "complement", "cantor.clopen_ops"),
    ("sepcont.cantor", "ClopenSet", "is_subset_of", "cantor.clopen_ops"),
)
# Structural queries are counted on every combinator that answers them.
_COUNT_ON_ALL_FUNCTIONS = (
    ("values_on_rect", "functions.values_on_rect_calls"),
    ("section_preimage", "functions.section_preimage_calls"),
)
_COUNT_FUNCTIONS = (("sepcont.cantor", "first_difference", "cantor.first_difference_calls"),)
_REPORT_WRITERS = ("write_csv", "write_json", "write_jsonl")

COUNT_NAMES = (
    "reports.bytes",
    "zerodim.stage_function_calls",
    "discrete.approximant_calls",
    "discrete.approximant_distinct",
    "functions.eval_calls",
    *(f"functions.eval_calls.{kind}" for _, kind in _EVAL_SPLIT),
    "functions.values_on_rect_calls",
    "functions.section_preimage_calls",
    "groups.mul_calls",
    "groups.dist_calls",
    "groups.inv_calls",
    "cantor.point_new",
    "cantor.first_difference_calls",
    "cantor.clopen_ops",
)


class Tracer:
    """Holds spans and counts in memory and the patches that feed them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter[str] = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._approximants: set[tuple[object, int]] = set()

    # ------------------------------------------------------------ spans

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def job_span(self, job_id: str):
        """The root span of one job; counts of distinct approximants restart."""
        self.job = job_id
        self._approximants.clear()
        index = self.open_span(ROOT_SPAN)
        try:
            yield
        finally:
            self.close_span(index)

    def _span_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(index)

        return wrapper

    # ----------------------------------------------------------- counts

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _approximant_wrapper(self, fn):
        counts, seen = self.counts, self._approximants

        @functools.wraps(fn)
        def wrapper(engine, n, *args, **kwargs):
            counts["discrete.approximant_calls"] += 1
            # Holding the engine keeps its id from being reused within a job.
            if (engine, n) not in seen:
                seen.add((engine, n))
                counts["discrete.approximant_distinct"] += 1
            return fn(engine, n, *args, **kwargs)

        return wrapper

    def _bytes_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            # The manifest carries wall-clock timings, so its size varies.
            if Path(path).name != "manifest.json":
                counts["reports.bytes"] += Path(path).stat().st_size
            return out

        return wrapper

    # --------------------------------------------------------- patching

    def _patch_method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(sys.modules[module], cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _patch_function(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` and every ``sepcont`` module's binding of it."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sepcont" or name.startswith("sepcont.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install_spans(self) -> None:
        for module, attr, name in _SPAN_FUNCTIONS:
            self._patch_function(module, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for module, cls, attr, name in _SPAN_METHODS:
            self._patch_method(module, cls, attr, lambda fn, n=name: self._span_wrapper(fn, n))

    def install_counts(self) -> None:
        for module, cls, attr, name in _COUNT_METHODS:
            self._patch_method(module, cls, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        functions = sys.modules["sepcont.functions"]
        for cls in _subclasses(functions.SepFunction):
            for attr, name in _COUNT_ON_ALL_FUNCTIONS:
                if attr in cls.__dict__:
                    self._patch_method(
                        cls.__module__, cls.__name__, attr,
                        lambda fn, n=name: self._count_wrapper(fn, n),
                    )
        for module, attr, name in _COUNT_FUNCTIONS:
            self._patch_function(module, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        self._patch_method("sepcont.discrete", "DiscreteApproximator", "approximant",
                           self._approximant_wrapper)
        for attr in _REPORT_WRITERS:
            self._patch_function("sepcont.reports", attr, self._bytes_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- results

    def span_metrics(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).  A span nested
        in a span of the same name adds to calls and self time only."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[2] += (end - start) - child_time[i]
            if not self._has_ancestor(i, name):
                row[1] += end - start
        return {name: (c, t, s) for name, (c, t, s) in out.items()}

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count_metrics(self) -> dict[str, float]:
        counts = {name: self.counts.get(name, 0) for name in COUNT_NAMES}
        counts["functions.eval_calls"] = sum(
            counts[f"functions.eval_calls.{kind}"] for _, kind in _EVAL_SPLIT
        )
        calls = counts["discrete.approximant_calls"]
        reuse = 1 - counts["discrete.approximant_distinct"] / calls if calls else 0.0
        return {**counts, "discrete.approximant_reuse": reuse}

    def write_spans(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start - origin, "end": end - origin,
                     "parent": parent, "job": job},
                    separators=(",", ":"),
                ) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
