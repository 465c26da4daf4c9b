"""Uniform-topology layer: membership in the four ball systems B_l, B_r,
B_lr, B_rl around a function, stage-schedule closure probes, and the
bounded-real candidate verifier.

Ball membership is decided on a grid with strict inequalities; for the
two-sided system B_rl each group decides g = u f u' exactly per value
pair (``GroupSpec.two_sided_member``).

The metric is left-invariant, so every test reads a distance between
values instead of forming a product: d(1, f^-1 g) = d(f, g) and
d(1, g f^-1) = d(g^-1, f^-1).  Each check is a ``grid_sup`` of
``sepcont.functions``: a max with its first witness, run once per class of
grid points on which both functions are constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from sepcont.cantor import CantorPoint
from sepcont.functions import (
    GridMemo,
    SepFunction,
    SubbasicNbhd,
    grid_sup,
    side_sample,
    uniform_dist,
)

Side = Literal["l", "r", "lr", "rl"]


@dataclass(frozen=True)
class BallQuery:
    center: SepFunction
    candidate: SepFunction
    side: Side
    eps: Fraction
    grid_depth: int
    probe_id: str = ""

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("ball radius must be positive")
        if self.side not in ("l", "r", "lr", "rl"):
            raise ValueError(f"unknown ball side {self.side!r}")


@dataclass(frozen=True)
class BallResult:
    member: bool
    witness: tuple[CantorPoint, CantorPoint] | None


def ball_membership(q: BallQuery, memo: GridMemo | None = None) -> BallResult:
    """Grid decision of candidate in B_side[center, eps].

    l: d(1, f^-1 g) < eps everywhere; r: with g f^-1; lr: both; rl: some
    u, u' with d(1, u), d(1, u') < eps and g = u f u', decided exactly by
    ``two_sided_member``.  The test runs once per value class of the grid
    (see ``grid_sup``); the witness is the first failing grid point,
    x-major.  ``memo`` may be shared by the queries of one job, which then
    build grid points, each leaf's axis keys and each class list once; a
    fresh memo gives the same result.
    """
    group = q.center.group
    memo = memo if memo is not None else GridMemo()
    points = memo.grid_points(q.grid_depth)
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
    outside, witness = grid_sup(
        lambda fv, gv: not inside(fv, gv), q.center, q.candidate, points, points, memo
    )
    return BallResult(False, witness) if outside else BallResult(True, None)


@dataclass(frozen=True)
class ClosureStageRow:
    stage: int
    eps: Fraction
    dist_l: Fraction
    dist_r: Fraction
    within: bool
    certified_stage: bool


@dataclass(frozen=True)
class ClosureReport:
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
    grid_depth: int,
    stage_certificates: Sequence[bool] | None = None,
) -> ClosureReport:
    """Empirical closure check: every stage must sit within its scheduled
    l- and r-uniform distance of f and carry a diagonal-limit certificate;
    then the factor/diagonal budget machinery is re-run on the stage
    sequence itself and must converge layer-wise on all probes.
    """
    if not stages:
        raise ValueError("closure probe of no stages")
    if len(stages) != len(schedule):
        raise ValueError("one schedule radius per stage")
    certs = list(stage_certificates) if stage_certificates is not None else [True] * len(stages)
    memo = GridMemo()
    rows = []
    failed: int | None = None
    for k, (g, eps) in enumerate(zip(stages, schedule)):
        dl = uniform_dist(f, g, "l", grid_depth, memo).value
        dr = uniform_dist(f, g, "r", grid_depth, memo).value
        within = dl <= eps and dr <= eps
        rows.append(ClosureStageRow(k, eps, dl, dr, within, certs[k]))
        if failed is None and not (within and certs[k]):
            failed = k
    if failed is not None:
        return ClosureReport(tuple(rows), failed, False, False)
    diag_ok = _stage_diagonal_check(f, stages[-1], probes, levels, grid_depth, memo)
    return ClosureReport(tuple(rows), None, diag_ok, diag_ok)


def _stage_diagonal_check(
    f: SepFunction,
    last: SepFunction,
    probes: list[SubbasicNbhd],
    levels: list[int],
    grid_depth: int,
    memo: GridMemo,
) -> bool:
    """Layer-wise convergence of the stage sequence on every probe: for
    each requested level l there must be a stage from which the probe
    rectangle stays within 2^-l of f through the last stage.  Such a stage
    exists exactly when the last stage is within 2^-l, so only the last
    stage is swept, against 2^-l for the largest l."""
    if not levels:
        return True
    tol = Fraction(1, 2 ** max(levels))
    return all(
        grid_sup(f.group.dist, f, last, side_sample(p.kx, grid_depth),
                 side_sample(p.ky, grid_depth), memo)[0] <= tol
        for p in probes
    )


@dataclass(frozen=True)
class Problem3Report:
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
    grid_depth: int,
    bound: Fraction = Fraction(1),
) -> Problem3Report:
    """Bounded-real candidate check: raw |f - g| on the grid against the
    bound, and the gaps of g's image, which is finite (its declared image)
    and so zero-dimensional.  The group metric is min(|a - b|, 1/2),
    monotone in |a - b|, so its grid sup is min(raw sup, 1/2)."""
    from sepcont.groups import RealBoundedGroup

    if not isinstance(f.group, RealBoundedGroup):
        raise ValueError("candidate verifier runs over the bounded-real group")
    memo = GridMemo()
    points = memo.grid_points(grid_depth)
    sup_raw, witness = grid_sup(
        lambda a, b: abs(a.payload - b.payload), f, g, points, points, memo
    )
    image = g.declared_image()
    values = sorted(z.payload for z in image)
    gaps = [b - a for a, b in zip(values, values[1:]) if b != a]
    return Problem3Report(
        sup_raw=sup_raw,
        bound=bound,
        within=sup_raw <= bound,
        sup_group_metric=min(sup_raw, Fraction(1, 2)),
        image_size=len(image),
        min_gap=min(gaps) if gaps else None,
        witness=None if sup_raw <= bound else witness,
    )
