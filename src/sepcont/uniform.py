"""Uniform-topology layer: membership in the four ball systems B_l, B_r,
B_lr, B_rl around a function, stage-schedule closure probes, and the
bounded-real candidate verifier.

Ball membership is decided at every point with strict inequalities; for
the two-sided system B_rl each group decides g = u f u' exactly per value
pair (``GroupSpec.two_sided_member``).

The metric is left-invariant, so every test reads a distance between
values instead of forming a product: d(1, f^-1 g) = d(f, g) and
d(1, g f^-1) = d(g^-1, f^-1).  Each check is an ``exact_sup`` of
``sepcont.functions``: a max with its first witness over the exact points
of its rectangle, run once per class of points on which both functions
are constant, so it is the sup over the rectangle itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, NamedTuple, Sequence

from sepcont.cantor import CantorPoint
from sepcont.functions import GridMemo, SepFunction, SubbasicNbhd, exact_sup, image, uniform_dist

Side = Literal["l", "r", "lr", "rl"]


class BallQuery:
    __slots__ = ("center", "candidate", "side", "eps", "probe_id")

    def __init__(self, center: SepFunction, candidate: SepFunction, side: Side, eps: Fraction,
                 probe_id: str = "") -> None:
        if eps <= 0:
            raise ValueError("ball radius must be positive")
        if side not in ("l", "r", "lr", "rl"):
            raise ValueError(f"unknown ball side {side!r}")
        self.center, self.candidate, self.side = center, candidate, side
        self.eps, self.probe_id = eps, probe_id


class BallResult(NamedTuple):
    member: bool
    witness: tuple[CantorPoint, CantorPoint] | None


def ball_membership(q: BallQuery, memo: GridMemo | None = None) -> BallResult:
    """Exact decision of candidate in B_side[center, eps].

    l: d(1, f^-1 g) < eps everywhere; r: with g f^-1; lr: both; rl: some
    u, u' with d(1, u), d(1, u') < eps and g = u f u', decided exactly by
    ``two_sided_member``.  The test runs once per value class (see
    ``exact_sup``); the witness is the first failing exact point, x-major.
    ``memo`` may be shared by the queries of one job, which then build
    each point set, each leaf's axis keys and each class list once; a
    fresh memo gives the same result.
    """
    group = q.center.group
    memo = memo if memo is not None else GridMemo()
    dist, inv = group.dist, group.inv

    # By left invariance d(1, f^-1 g) = d(f, g) and d(1, g f^-1) = d(g^-1, f^-1).
    def inside(fv, gv) -> bool:
        if q.side == "rl":
            return group.two_sided_member(fv, gv, q.eps)
        if q.side != "r" and not dist(fv, gv) < q.eps:
            return False
        return q.side == "l" or dist(inv(gv), inv(fv)) < q.eps

    # True > False, so the max is True when some point fails, and the
    # witness is the first failing point.
    outside, witness = exact_sup(lambda fv, gv: not inside(fv, gv), q.center, q.candidate, memo)
    return BallResult(False, witness) if outside else BallResult(True, None)


class ClosureStageRow(NamedTuple):
    stage: int
    eps: Fraction
    dist_l: Fraction
    dist_r: Fraction
    within: bool


class ClosureReport(NamedTuple):
    stages: tuple[ClosureStageRow, ...]
    failed_stage: int | None
    diagonal_passed: bool
    passed: bool


def closure_probe(
    f: SepFunction,
    stages: Sequence[SepFunction],
    schedule: Sequence[Fraction],
    probes: list[SubbasicNbhd],
    levels: list[int],
) -> ClosureReport:
    """Empirical closure check: every stage must sit within its scheduled
    l- and r-uniform distance of f; then the stage sequence must converge
    layer-wise on every probe: for each level l some stage from which the
    probe rectangle stays within 2^-l of f through the last stage.  Such a
    stage exists exactly when the last stage is within 2^-l, so only the
    last stage is swept, against 2^-l for the largest l.
    """
    if not stages:
        raise ValueError("closure probe of no stages")
    if len(stages) != len(schedule):
        raise ValueError("one schedule radius per stage")
    memo = GridMemo()
    rows = []
    failed: int | None = None
    for k, (g, eps) in enumerate(zip(stages, schedule)):
        dl = uniform_dist(f, g, "l", memo).value
        dr = uniform_dist(f, g, "r", memo).value
        within = dl <= eps and dr <= eps
        rows.append(ClosureStageRow(k, eps, dl, dr, within))
        if failed is None and not within:
            failed = k
    if failed is not None:
        return ClosureReport(tuple(rows), failed, False, False)
    tol = Fraction(1, 2 ** max(levels, default=0))  # no level: 1, above every distance
    diag_ok = all(exact_sup(f.group.dist, f, stages[-1], memo, p)[0] <= tol for p in probes)
    return ClosureReport(tuple(rows), None, diag_ok, diag_ok)


class Problem3Report(NamedTuple):
    sup_raw: Fraction
    bound: Fraction
    within: bool
    sup_group_metric: Fraction
    image_size: int
    min_gap: Fraction | None
    witness: tuple[CantorPoint, CantorPoint] | None


def problem3_check(
    f: SepFunction,
    g: SepFunction,
    bound: Fraction = Fraction(1),
) -> Problem3Report:
    """Bounded-real candidate check: the sup of raw |f - g| against the
    bound, and the gaps of g's image, which is finite and so
    zero-dimensional.  The group metric is min(|a - b|, 1/2),
    monotone in |a - b|, so its sup is min(raw sup, 1/2)."""
    from sepcont.groups import RealBoundedGroup

    if not isinstance(f.group, RealBoundedGroup):
        raise ValueError("candidate verifier runs over the bounded-real group")
    memo = GridMemo()
    sup_raw, witness = exact_sup(lambda a, b: abs(a.payload - b.payload), f, g, memo)
    values = sorted(z.payload for z in image(g, memo))
    gaps = [b - a for a, b in zip(values, values[1:])]
    return Problem3Report(
        sup_raw=sup_raw,
        bound=bound,
        within=sup_raw <= bound,
        sup_group_metric=min(sup_raw, Fraction(1, 2)),
        image_size=len(values),
        min_gap=min(gaps) if gaps else None,
        witness=None if sup_raw <= bound else witness,
    )
