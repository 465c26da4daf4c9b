from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    OnesDiagonal,
    PostCompose,
    SubbasicNbhd,
    TableFunction,
    image,
    uniform_dist,
)
from sepcont.groups import get_group
from sepcont.uniform import (
    BallQuery,
    ball_membership,
    closure_probe,
    problem3_check,
)
from sepcont.zerodim import build_tower
from grid import grid_points
from sym3 import S3_LEFT

DYADIC = get_group("dyadic")
REAL = get_group("real")
E = DYADIC.identity()
A = DYADIC.parse_element("1(0)")
DIAG = OnesDiagonal((A,))
WHOLE = ClopenSet.whole()

PROBES = [
    SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "acc"),
    SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset(), "zero"),
]


def members(center, candidate, eps):
    return {
        side: ball_membership(BallQuery(center, candidate, side, eps)).member
        for side in ("l", "r", "lr", "rl")
    }


class TestBallMembership:
    def test_center_in_every_ball(self):
        for side in ("l", "r", "lr", "rl"):
            res = ball_membership(BallQuery(DIAG, DIAG, side, Fraction(1, 16)))
            assert res.member and res.witness is None

    def test_far_constant_not_member(self):
        res = ball_membership(BallQuery(Constant(E), Constant(A), "l", Fraction(1, 4)))
        assert not res.member and res.witness is not None

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            BallQuery(DIAG, DIAG, "l", Fraction(0))

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    def test_lr_is_l_and_r(self, eps):
        for cand in [Constant(E), Constant(A), DIAG]:
            m = members(DIAG, cand, eps)
            assert m["lr"] == (m["l"] and m["r"])

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4)])
    def test_rl_coarser_than_l_and_r(self, eps):
        for cand in [Constant(E), Constant(A), DIAG]:
            m = members(DIAG, cand, eps)
            assert (not m["l"]) or m["rl"]
            assert (not m["r"]) or m["rl"]

    def test_nesting(self):
        for side in ("l", "r", "lr", "rl"):
            small = ball_membership(BallQuery(DIAG, Constant(E), side, Fraction(1, 4))).member
            large = ball_membership(BallQuery(DIAG, Constant(E), side, Fraction(1, 2) + Fraction(1, 4))).member
            assert (not small) or large

    def test_a_query_does_not_depend_on_the_queries_before_it(self):
        # ball_membership keeps nothing between calls: each query, asked
        # alone or after others of equal radius, gets one answer.
        queries = [
            BallQuery(DIAG, cand, side, eps)
            for side in ("l", "lr", "rl")
            for cand, eps in ((Constant(A), Fraction(1, 4)), (DIAG, Fraction(2, 8)),
                              (Constant(E), Fraction(1, 4)))
        ]
        alone = [ball_membership(q) for q in queries]
        assert [ball_membership(q) for q in reversed(queries)] == alone[::-1]
        assert {r.member for r in alone} == {True, False}

    def test_abelian_l_equals_r(self):
        for eps in [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]:
            m = members(DIAG, Constant(E), eps)
            assert m["l"] == m["r"]

    def test_rl_ultrametric_collapses_to_l(self):
        # dyadic XOR metric is an ultrametric: the two-sided product of
        # radius-eps balls is no wider than one ball, so rl agrees with l
        quarter = DYADIC.parse_element("01(0)")
        m = members(Constant(E), Constant(quarter), Fraction(1, 4))
        assert not m["l"] and not m["r"] and not m["rl"]

    def test_rl_two_step_search_wider_than_l_real(self):
        # over the reals, 3/8 = 3/16 + 3/16 splits into two steps < 1/4
        f = Constant(REAL.parse_element("0/2^0"))
        g = Constant(REAL.parse_element("3/2^3"))
        m = members(f, g, Fraction(1, 4))
        assert not m["l"] and not m["r"]
        assert m["rl"]


MEMBER_4 = SubbasicNbhd(CantorPoint.parse("11110(0)"), CantorPoint.parse("11110(0)"), frozenset(), "m4")
BLOCKS = SubbasicNbhd(ClopenSet.parse("{0,10}"), CantorPoint.parse("110(0)"), frozenset(), "blocks")
B = DYADIC.parse_element("01(0)")
C = DYADIC.parse_element("11(0)")
STAGE_POOL = (
    DIAG,
    Constant(E),
    Constant(A),
    OnesDiagonal((E,), prefix=(A,) * 4),
    OnesDiagonal((A, B)),
    OnesDiagonal((E,), prefix=(B,)),
    TableFunction(1, ((A, E), (E, B))),
)
S3_R, S3_S, S3_SR = (S3_LEFT.parse_element(t) for t in ("r", "s", "sr"))
S3_POOL = (
    OnesDiagonal((S3_R,), prefix=(S3_S,)),
    OnesDiagonal((S3_S, S3_SR)),
    CylinderDiagonal((("1", S3_R),)),
    TableFunction(1, ((S3_R, S3_LEFT.identity()), (S3_S, S3_SR))),
    Constant(S3_SR),
)
R0, R12, R34, R3 = (REAL.parse_element(t) for t in ("0/2^0", "1/2^1", "-3/2^2", "3/2^0"))
REAL_FNS = (
    OnesDiagonal((R12,), prefix=(R3,)),
    TableFunction(1, ((R0, R34), (R3, R0))),
    Constant(R34),
)
# (functions of f, values of the stage maps) per group.
GROUP_CASES = (
    (STAGE_POOL, (E, A, B, C, DYADIC.parse_element("(1)"))),
    (S3_POOL, tuple(S3_LEFT.dense_enumeration(0))),
    (REAL_FNS, (R0, R12, R34, R3, REAL.parse_element("1/2^3"))),
)


def side_points(side):
    """A probe side's points: the point itself, or the points of a clopen
    side on the depth-7 grid, deep enough for every stage pool pair, and
    1^w."""
    if isinstance(side, CantorPoint):
        return (side,)
    return tuple(p for p in grid_points(7) + (ALL_ONES,) if side.contains(p))


def some_stage_settles(f, stages, probes, levels):
    """The reference closure diagonal check, point by point: for every probe
    and level l, some stage m from which every later stage stays within
    2^-l of f on the probe rectangle."""
    for probe in probes:
        pairs = [(x, y) for x in side_points(probe.kx) for y in side_points(probe.ky)]
        sups = [max(f.group.dist(f.eval(x, y), g.eval(x, y)) for x, y in pairs) for g in stages]
        for l in levels:
            tol = Fraction(1, 2**l)
            if not any(all(s <= tol for s in sups[m:]) for m in range(len(stages))):
                return False
    return True


@st.composite
def stage_maps(draw, cases=GROUP_CASES):
    """f from one group's pool and one to four maps over image(f), each
    random or constant."""
    fns, values = draw(st.sampled_from(cases))
    f = draw(st.sampled_from(fns))
    img = image(f)
    one_map = st.one_of(
        st.lists(st.sampled_from(values), min_size=len(img), max_size=len(img))
        .map(lambda vs: dict(zip(img, vs))),
        st.sampled_from(values).map(lambda c: dict.fromkeys(img, c)),
    )
    return f, draw(st.lists(one_map, min_size=1, max_size=4))


class TestClosureProbe:
    def make_stages(self, f, n_max=4):
        stages = build_tower(image(f), n_max)[0]
        schedule = [Fraction(1, 2**n) for n in range(n_max + 1)]
        return stages, schedule

    def test_constant_stages_pass(self):
        f = Constant(A)
        stages = [{A: A}] * 4
        schedule = [Fraction(1, 2**n) for n in range(4)]
        rep = closure_probe(f, stages, schedule, PROBES, [1, 2])
        assert rep.passed and rep.failed_stage is None

    def test_tower_stages_within_schedule(self):
        stages, schedule = self.make_stages(DIAG)
        rep = closure_probe(DIAG, stages, schedule, PROBES, [1, 2])
        assert rep.passed
        for row in rep.stages:
            assert row.dist_l <= Fraction(1, 2**row.stage)
            assert row.dist_r <= Fraction(1, 2**row.stage)

    def test_corrupted_stage_fails_with_index(self):
        stages, schedule = self.make_stages(DIAG)
        stages[3] = dict.fromkeys(image(DIAG), A)  # distance 1/2 at stage 3
        rep = closure_probe(DIAG, stages, schedule, PROBES, [1, 2])
        assert not rep.passed
        assert rep.failed_stage == 3

    def test_schedule_length_mismatch(self):
        stages, schedule = self.make_stages(DIAG)
        with pytest.raises(ValueError):
            closure_probe(DIAG, stages, schedule[:-1], PROBES, [1])

    def test_no_stages_rejected(self):
        with pytest.raises(ValueError, match="no stages"):
            closure_probe(DIAG, [], [], PROBES, [1])

    def test_last_stage_off_a_probe_fails_the_diagonal(self):
        # f takes C on member 4 = [11110] alone, so a last map that moves C
        # to E changes f on member 4 only.  Its distance 1/2 there fails the
        # stage's radius; with radius 1 every stage is within, and the probe
        # through member 4 fails the diagonal.
        f = OnesDiagonal((A,), prefix=(A,) * 4 + (C,))
        stages, schedule = self.make_stages(f)
        stages[-1] = {**stages[-1], C: E}
        rep = closure_probe(f, stages, schedule, PROBES, [1, 2])
        assert rep.failed_stage == 4 and rep.stages[4].dist_l == Fraction(1, 2)
        wide = [Fraction(1)] * len(stages)
        rep = closure_probe(f, stages, wide, PROBES + [MEMBER_4], [1, 2])
        assert rep.failed_stage is None and all(row.within for row in rep.stages)
        assert not rep.diagonal_passed and not rep.passed
        assert closure_probe(f, stages, wide, PROBES, [1, 2]).passed

    def test_stage_at_its_radius_is_within(self):
        # d(E, A) = 1/2 on both sides: the stage sits exactly on radius 1/2.
        rep = closure_probe(Constant(E), [{E: A}], [Fraction(1, 2)], PROBES, [1])
        half = Fraction(1, 2)
        assert rep.stages == ((0, half, half, half, True),)
        assert rep.failed_stage is None and rep.passed

    def test_stage_within_on_one_side_only_is_not_within(self):
        # On the left-invariant S3, f = r and phi(r) = r s: d(r, r s) = 1/8,
        # but d((r s)^-1, r^-1) = 1/2, so radius 1/4 admits only the l side.
        eps = Fraction(1, 4)
        rep = closure_probe(Constant(S3_R), [{S3_R: S3_LEFT.mul(S3_R, S3_S)}], [eps], PROBES, [1])
        assert rep.stages == ((0, eps, Fraction(1, 8), Fraction(1, 2), False),)
        assert rep.failed_stage == 0 and not rep.passed

    @given(
        stage_maps(GROUP_CASES[:1]),
        st.lists(st.sampled_from(PROBES + [MEMBER_4]), max_size=3),
        st.lists(st.integers(0, 4), max_size=3),
    )
    def test_diagonal_check_is_the_settling_stage_search(self, case, probes, levels):
        # Radius 1 admits every stage (the metric is bounded by 1/2), so the
        # diagonal check decides the report.
        f, maps = case
        rep = closure_probe(f, maps, [Fraction(1)] * len(maps), probes, levels)
        stages = [PostCompose(f, phi) for phi in maps]
        assert rep.diagonal_passed == some_stage_settles(f, stages, probes, levels)

    @given(
        stage_maps(),
        st.lists(st.sampled_from(PROBES + [MEMBER_4, BLOCKS]), max_size=3),
        st.lists(st.integers(0, 4), max_size=3),
    )
    def test_map_reads_are_the_sweeps(self, case, probes, levels):
        # Each row is the uniform sweep of f against the stage phi o f, on
        # the dyadic group, the left-invariant S3 (where l and r differ) and
        # the reals; the diagonal is the pointwise settling-stage search.
        f, maps = case
        rep = closure_probe(f, maps, [Fraction(1)] * len(maps), probes, levels)
        stages = [PostCompose(f, phi) for phi in maps]
        for row, g in zip(rep.stages, stages):
            assert row.dist_l == uniform_dist(f, g, "l").value
            assert row.dist_r == uniform_dist(f, g, "r").value
        assert rep.diagonal_passed == some_stage_settles(f, stages, probes, levels)


class TestProblem3:
    def test_identical_candidate(self):
        z = REAL.parse_element("1/2^1")
        f = Constant(z)
        rep = problem3_check(f, f)
        assert rep.within and rep.sup_raw == 0
        assert rep.image_size == 1 and rep.min_gap is None

    def test_mild_oscillation_passes(self):
        z0, z34 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^2")
        f = TableFunction(1, ((z0, z34), (z34, z0)))
        g = Constant(REAL.parse_element("1/2^1"))
        rep = problem3_check(f, g)
        assert rep.within and rep.sup_raw == Fraction(1, 2)

    def test_wild_oscillation_fails_with_witness(self):
        z0, z3 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^0")
        f = TableFunction(1, ((z0, z3), (z3, z0)))
        g = Constant(REAL.parse_element("1/2^1"))
        rep = problem3_check(f, g)
        assert not rep.within
        assert rep.sup_raw == Fraction(5, 2)
        assert rep.witness is not None
        # the raw sup exceeds 1 even though the group metric caps at 1/2
        assert rep.sup_group_metric == Fraction(1, 2)

    def test_sup_equal_to_bound_passes(self):
        z0, z34 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^2")
        f = TableFunction(1, ((z0, z34), (z34, z0)))
        rep = problem3_check(f, Constant(REAL.parse_element("1/2^1")), Fraction(1, 2))
        assert rep.sup_raw == rep.bound == Fraction(1, 2)
        assert rep.within and rep.witness is None

    def test_requires_real_group(self):
        with pytest.raises(ValueError):
            problem3_check(DIAG, DIAG)

    def test_min_gap_reported(self):
        z0, z34 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^2")
        f = Constant(z0)
        g = TableFunction(1, ((z0, z34), (z34, z0)))
        rep = problem3_check(f, g)
        assert rep.min_gap == Fraction(3, 4)
