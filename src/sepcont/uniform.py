"""Uniform-topology layer: membership in the four ball systems B_l, B_r,
B_lr, B_rl around a function, stage-schedule closure probes, and the
bounded-real candidate verifier.

Ball membership is decided at every point with strict inequalities; for
the two-sided system B_rl each group decides g = u f u' exactly per value
pair (``GroupSpec.two_sided_member``).

The metric is left-invariant, so every test reads a distance between
values instead of forming a product: d(1, f^-1 g) = d(f, g) and
d(1, g f^-1) = d(g^-1, f^-1).  A ball or problem3 check is an
``exact_sup`` of ``sepcont.functions``, the sup over its rectangle itself;
a closure stage phi o f is given by its map phi on f's image, and each
closure distance is a max over the map's items, with no sweep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, NamedTuple, Sequence

from sepcont.cantor import CantorPoint
from sepcont.functions import SepFunction, SubbasicNbhd, exact_sup, image, uniform_dist
from sepcont.groups import GroupElement

# uniform_dist is only re-exported: the benchmark's tracer test reads it here.
__all__ = ["BallQuery", "BallResult", "ClosureReport", "ClosureStageRow", "Problem3Report",
           "ball_membership", "closure_probe", "problem3_check", "uniform_dist"]

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


def ball_membership(q: BallQuery) -> BallResult:
    """Exact decision of candidate in B_side[center, eps].

    l: d(1, f^-1 g) < eps everywhere; r: with g f^-1; lr: both; rl: some
    u, u' with d(1, u), d(1, u') < eps and g = u f u', decided exactly by
    ``two_sided_member``.  The test runs once per distinct pair of values
    (see ``exact_sup``); the witness is the first failing exact point,
    x-major.
    """
    # True > False, so the max is True when some point fails, and the
    # witness is the first failing point.
    outside, witness = exact_sup(_outside(q.side, q.eps), q.center, q.candidate)
    return BallResult(False, witness) if outside else BallResult(True, None)


def _outside(side: Side, eps: Fraction):
    """The test whether a pair (f's value, g's value) fails the ball."""
    # By left invariance d(1, f^-1 g) = d(f, g) and d(1, g f^-1) = d(g^-1, f^-1).
    def op(fv, gv) -> bool:
        group = fv.group
        if side == "rl":
            return not group.two_sided_member(fv, gv, eps)
        if side != "r" and not group.dist(fv, gv) < eps:
            return True
        return side != "l" and not group.dist(group.inv(gv), group.inv(fv)) < eps

    return op


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
    stages: Sequence[dict[GroupElement, GroupElement]],
    schedule: Sequence[Fraction],
    probes: list[SubbasicNbhd],
    levels: list[int],
) -> ClosureReport:
    """Closure check of the stages phi_k o f, each given as its map
    {z: phi_k(z)} on f's image.  Where f is z the stage is phi_k(z), so
    stage k's l- and r-distances from f, each held to its radius, are the
    maxima of d(z, phi_k(z)) and d(phi_k(z)^-1, z^-1) over the items.  Then
    for every probe and level l some stage must keep the probe rectangle
    within 2^-l of f through the last; one does exactly when the last does,
    so the last map is read on f's values there (the keys of ``pieces``).
    """
    if not stages:
        raise ValueError("closure probe of no stages")
    if len(stages) != len(schedule):
        raise ValueError("one schedule radius per stage")
    group = f.group
    rows = []
    for k, (phi, eps) in enumerate(zip(stages, schedule)):
        dl = max(group.dist(z, w) for z, w in phi.items())
        dr = max(group.dist(group.inv(w), group.inv(z)) for z, w in phi.items())
        rows.append(ClosureStageRow(k, eps, dl, dr, dl <= eps and dr <= eps))
    failed = next((row.stage for row in rows if not row.within), None)
    tol = Fraction(1, 2 ** max(levels, default=0))  # no level: 1, above every distance
    diag_ok = failed is None and all(
        group.dist(z, stages[-1][z]) <= tol for p in probes for z in p.pieces(f))
    return ClosureReport(tuple(rows), failed, diag_ok, diag_ok)


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
    sup_raw, witness = exact_sup(lambda a, b: abs(a.payload - b.payload), f, g)
    values = sorted(z.payload for z in image(g))
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
