from fractions import Fraction
from itertools import product

import pytest

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet, Cylinder, grid_points
from sepcont.config import parse_function
from sepcont.errors import UnsupportedStructureError
from sepcont.functions import (
    Constant,
    DiagonalIndicator,
    FiniteCylinderFamily,
    GridMemo,
    PointwiseInverse,
    PointwiseProduct,
    PostCompose,
    SepFunction,
    SubbasicNbhd,
    TableFunction,
    grid_sup,
    in_subbasic,
    side_sample,
    uniform_dist,
    _Profile,
)
from sepcont.groups import get_group
from sym3 import symmetric_group_3

DYADIC = get_group("dyadic")
C3 = get_group("cyclic:3")
E = DYADIC.identity()
A = DYADIC.parse_element("1(0)")
B = DYADIC.parse_element("01(0)")

DIAG = DiagonalIndicator.ones_schema([A])
MULTI = DiagonalIndicator.ones_schema([A, B, DYADIC.parse_element("001(0)")])
FINITE_DIAG = DiagonalIndicator.from_pairs([(Cylinder("0"), A), (Cylinder("10"), B)])

PROBE_POINTS = [CantorPoint.parse(s) for s in ["(0)", "(1)", "10(0)", "110(0)", "01(1)", "1(10)"]]


def brute_section_values(f: SepFunction, axis, fixed, depth=5):
    """Oracle: sample the section on a deep grid."""
    out = {}
    for p in grid_points(depth):
        val = f.eval(fixed, p) if axis == "x" else f.eval(p, fixed)
        out[p] = val
    return out


class TestEval:
    def test_constant_everywhere(self):
        c = Constant(A)
        for x, y in product(PROBE_POINTS, repeat=2):
            assert c.eval(x, y) == A

    def test_diag_matched_and_unmatched(self):
        x = CantorPoint.parse("110(0)")
        assert DIAG.eval(x, x) == A
        assert DIAG.eval(x, CantorPoint.parse("(0)")) == E

    def test_diag_at_accumulation_point(self):
        for y in PROBE_POINTS:
            assert DIAG.eval(ALL_ONES, y) == E
            assert DIAG.eval(y, ALL_ONES) == E

    def test_multi_value_schedule(self):
        x0 = CantorPoint.parse("0(0)")
        x1 = CantorPoint.parse("10(0)")
        x2 = CantorPoint.parse("110(0)")
        x3 = CantorPoint.parse("1110(0)")
        assert MULTI.eval(x0, x0) == A
        assert MULTI.eval(x1, x1) == B
        assert MULTI.eval(x2, x2) == DYADIC.parse_element("001(0)")
        assert MULTI.eval(x3, x3) == A  # cycles
        assert MULTI.eval(x0, x1) == E

    def test_finite_family(self):
        x = CantorPoint.parse("0(0)")
        y = CantorPoint.parse("10(0)")
        assert FINITE_DIAG.eval(x, x) == A
        assert FINITE_DIAG.eval(y, y) == B
        assert FINITE_DIAG.eval(x, y) == E
        assert FINITE_DIAG.eval(ALL_ONES, ALL_ONES) == E

    def test_disjointness_validated(self):
        with pytest.raises(ValueError):
            DiagonalIndicator.from_pairs([(Cylinder("0"), A), (Cylinder("01"), B)])

    def test_table_lookup(self):
        t = TableFunction(1, ((E, A), (A, E)))
        assert t.eval(CantorPoint.parse("0(0)"), CantorPoint.parse("1(0)")) == A
        assert t.eval(CantorPoint.parse("1(0)"), CantorPoint.parse("1(0)")) == E

    def test_product_inverse(self):
        f = PointwiseProduct(Constant(A), DIAG)
        x = CantorPoint.parse("0(0)")
        assert f.eval(x, x) == DYADIC.mul(A, A)
        g = PointwiseInverse(DIAG)
        assert g.eval(x, x) == A  # dyadic elements are involutions


class TestOnesSchedule:
    """Both ``diag ones`` grammar forms against the closed forms of the
    cycling and the finite value lists they denote."""

    @pytest.mark.parametrize(
        "group, texts",
        [
            (DYADIC, ["1(0)", "1(0),01(0)", "01(0),0(0),11(0)"]),
            (get_group("cyclic:5"), ["2", "1,3", "4,0,2"]),
        ],
        ids=["dyadic", "cyclic5"],
    )
    @pytest.mark.parametrize("kind", ["ones", "ones-finite"])
    def test_schedule_matches_closed_form(self, group, texts, kind, tmp_path):
        e = group.identity()
        for text in texts:
            vals = [group.parse_element(t) for t in text.split(",")]
            f = parse_function(f"diag {kind} {text}", group, tmp_path)
            for n in range(41):
                if kind == "ones":
                    value, tail = vals[n % len(vals)], frozenset(vals)
                else:
                    value = vals[n] if n < len(vals) else e
                    tail = frozenset(vals[n:]) | {e}
                point = CantorPoint("1" * n, "0")
                assert f.family.value_at(n) == value
                assert f.family.tail_values(n) == tail
                assert f.eval(point, point) == value
                assert f.eval(point, ALL_ONES) == f.eval(ALL_ONES, point) == e
            assert f.eval(ALL_ONES, ALL_ONES) == e


class TestDeclaredImage:
    @pytest.mark.parametrize(
        "f",
        [Constant(A), DIAG, MULTI, FINITE_DIAG, PointwiseProduct(DIAG, Constant(A)),
         PointwiseInverse(MULTI)],
        ids=["const", "diag", "multi", "finite", "prod", "inv"],
    )
    def test_grid_values_in_declared(self, f):
        pts = grid_points(4)
        assert {f.eval(x, y) for x, y in product(pts, repeat=2)} <= set(f.declared_image())

    def test_postcompose_requires_total_mapping(self):
        with pytest.raises(UnsupportedStructureError):
            PostCompose(DIAG, {E: E}, "partial")


def preimage(f: SepFunction, axis, fixed, z) -> ClopenSet:
    """The section preimage of z, empty when the section misses z."""
    return f.section_partition(axis, fixed).get(z, ClopenSet.empty())


class TestSectionPreimage:
    def test_constant(self):
        c = Constant(A)
        assert preimage(c, "x", PROBE_POINTS[0], A).is_whole()
        assert preimage(c, "x", PROBE_POINTS[0], E).is_empty()

    def test_diag_fixed_in_member(self):
        x = CantorPoint.parse("110(0)")
        assert preimage(DIAG, "x", x, A) == ClopenSet.parse("{110}")
        assert preimage(DIAG, "x", x, E) == ClopenSet.parse("{110}").complement()

    def test_diag_member_covering_the_line_has_no_identity_piece(self):
        whole = DiagonalIndicator.from_pairs([(Cylinder(""), A)])
        assert whole.section_partition("y", PROBE_POINTS[2]) == {A: ClopenSet.whole()}
        assert DIAG.section_partition("x", ALL_ONES) == {E: ClopenSet.whole()}

    def test_table_row(self):
        t = TableFunction(2, tuple(tuple(A if (i + j) % 2 else E for j in range(4)) for i in range(4)))
        pre = preimage(t, "x", CantorPoint.parse("00(0)"), A)
        assert pre == ClopenSet.from_prefixes(["01", "11"])

    @pytest.mark.parametrize(
        "f",
        [Constant(A), DIAG, MULTI, FINITE_DIAG,
         PointwiseProduct(DIAG, Constant(A)), PointwiseInverse(MULTI),
         PointwiseProduct(PointwiseInverse(DIAG), MULTI)],
        ids=["const", "diag", "multi", "finite", "prod", "inv", "prod2"],
    )
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_partition_property(self, f, axis):
        # separate continuity: preimages partition the space
        for fixed in PROBE_POINTS:
            parts = f.section_partition(axis, fixed)
            total = ClopenSet.empty()
            for pre in parts.values():
                assert total.intersect(pre).is_empty()
                total = total.union(pre)
            assert total.is_whole()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_sections_match_brute_force(self, axis):
        for f in [DIAG, MULTI, FINITE_DIAG, PointwiseProduct(PointwiseInverse(DIAG), MULTI)]:
            for fixed in PROBE_POINTS[:4]:
                sampled = brute_section_values(f, axis, fixed)
                for p, val in sampled.items():
                    assert preimage(f, axis, fixed, val).contains(p)

    def test_certificate_helper(self):
        # the separate-continuity certificate: at every probe, on both axes,
        # the section preimages are pairwise disjoint and cover the line
        for fixed in PROBE_POINTS:
            for axis in ("x", "y"):
                total = ClopenSet.empty()
                for pre in DIAG.section_partition(axis, fixed).values():
                    assert total.intersect(pre).is_empty()
                    total = total.union(pre)
                assert total.is_whole()


class TestValuesOnRect:
    def test_diag_oracle_small_rects(self):
        # oracle: deep-grid sampling within each rectangle must stay inside
        # the reported value set, and hit it exactly on rectangles of depth 3
        prefixes = ["", "0", "1", "11", "10", "111", "110"]
        for pu, pv in product(prefixes, repeat=2):
            u, v = Cylinder(pu), Cylinder(pv)
            vals = DIAG.values_on_rect(u, v)
            seen = set()
            for x in grid_points(6):
                if not u.contains(x):
                    continue
                for y in grid_points(6):
                    if v.contains(y):
                        seen.add(DIAG.eval(x, y))
            # include the accumulation-point rows not on the zero-tail grid
            if all(c == "1" for c in pu):
                for y in grid_points(6):
                    if v.contains(y):
                        seen.add(DIAG.eval(ALL_ONES, y))
                if all(c == "1" for c in pv):
                    seen.add(DIAG.eval(ALL_ONES, ALL_ONES))
            assert seen <= set(vals)
            if len(pu) >= 3 and len(pv) >= 3:
                assert seen == set(vals)

    def test_finite_family_profile(self):
        # The members' union is built once per family; every profile still
        # equals the one read off a freshly built union.
        family = FiniteCylinderFamily(
            ((Cylinder("01"), A), (Cylinder("001"), B), (Cylinder("11"), A))
        )
        union = ClopenSet.from_prefixes(["01", "001", "11"])
        for depth in range(5):
            for bits in product("01", repeat=depth):
                c = Cylinder("".join(bits))
                hit = frozenset(n for n, (m, _) in enumerate(family.members) if m.overlaps(c))
                out = not ClopenSet.from_cylinder(c).is_subset_of(union)
                assert family.profile(c) == _Profile(indices=hit, out=out)
        assert family._union is family._union

    @pytest.mark.parametrize(
        "family",
        [
            DIAG.family,
            DiagonalIndicator.ones_schema([E], prefix=[A, B]).family,
            FiniteCylinderFamily(((Cylinder("01"), A), (Cylinder("001"), B), (Cylinder("11"), A))),
        ],
        ids=["ones", "ones-finite", "cyl"],
    )
    def test_profile_memo_matches_family(self, family):
        # Asked twice per cylinder: the memo's miss and its hit both equal
        # the family's own profile.
        f = DiagonalIndicator(family)
        for _ in range(2):
            for depth in range(6):
                for bits in product("01", repeat=depth):
                    c = Cylinder("".join(bits))
                    assert f._profile(c) == family.profile(c)
        assert len(f._profiles) == 2**6 - 1
        assert DiagonalIndicator(family)._profiles == {}

    def test_constant_value_on(self):
        assert DIAG.constant_value_on(Cylinder("110"), Cylinder("110")) == A
        assert DIAG.constant_value_on(Cylinder("0"), Cylinder("1")) == E
        assert DIAG.constant_value_on(Cylinder("11"), Cylinder("11")) is None
        assert DIAG.constant_value_on(Cylinder(""), Cylinder("")) is None


def section_sup(f, g, axis, fixed, region, grid_depth):
    """The grid sup of d(f, g) over the section at ``fixed`` (axis 'x' fixes
    x), on the grid points of ``region``: the layer-wise distance."""
    ts = side_sample(region, grid_depth)
    xs, ys = ((fixed,), ts) if axis == "x" else (ts, (fixed,))
    return grid_sup(f.group.dist, f, g, xs, ys, GridMemo())[0]


class TestLayerwiseDist:
    def test_zero_on_equal(self):
        assert section_sup(DIAG, DIAG, "x", PROBE_POINTS[0], ClopenSet.whole(), 4) == 0

    def test_constant_distance(self):
        d = section_sup(Constant(E), Constant(A), "x", PROBE_POINTS[0], ClopenSet.whole(), 3)
        assert d == Fraction(1, 2)

    @pytest.mark.parametrize("depth", range(2, 6))
    def test_monotone_in_grid_depth(self, depth):
        x = CantorPoint.parse("10(0)")
        lo = section_sup(DIAG, Constant(E), "x", x, ClopenSet.whole(), depth)
        hi = section_sup(DIAG, Constant(E), "x", x, ClopenSet.whole(), depth + 1)
        assert hi >= lo

    def test_region_restriction(self):
        x = CantorPoint.parse("10(0)")
        inside = section_sup(DIAG, Constant(E), "x", x, ClopenSet.parse("{10}"), 4)
        outside = section_sup(DIAG, Constant(E), "x", x, ClopenSet.parse("{0}"), 4)
        assert inside == Fraction(1, 2)
        assert outside == 0


class TestUniformDist:
    def test_zero_on_equal(self):
        assert uniform_dist(DIAG, DIAG, "l", 3).value == 0

    def test_abelian_l_equals_r(self):
        for f, g in [(DIAG, Constant(E)), (MULTI, Constant(A)), (DIAG, MULTI)]:
            assert uniform_dist(f, g, "l", 3).value == uniform_dist(f, g, "r", 3).value

    def test_const_vs_diag(self):
        for depth in [2, 3, 4]:
            assert uniform_dist(Constant(E), DIAG, "l", depth).value == Fraction(1, 2)

    def test_s3_sides_both_defined(self):
        S3 = symmetric_group_3()
        r, s = S3.parse_element("r"), S3.parse_element("s")
        f, g = Constant(r), Constant(s)
        # discrete metric: both sides see the same mismatch
        assert uniform_dist(f, g, "l", 1).value == Fraction(1, 2)
        assert uniform_dist(f, g, "r", 1).value == Fraction(1, 2)

    def test_l_value_is_plain_metric_sup(self):
        # left-invariance: d(1, f^-1 g) == d(f, g) pointwise
        depth = 3
        got = uniform_dist(DIAG, MULTI, "l", depth).value
        pts = grid_points(depth)
        direct = max(
            DYADIC.dist(DIAG.eval(x, y), MULTI.eval(x, y)) for x in pts for y in pts
        )
        assert got == direct

    @pytest.mark.parametrize("depth", range(1, 4))
    def test_monotone_in_grid_depth(self, depth):
        lo = uniform_dist(DIAG, Constant(E), "l", depth).value
        hi = uniform_dist(DIAG, Constant(E), "l", depth + 1).value
        assert hi >= lo


class TestInSubbasic:
    def test_whole_image_always_member(self):
        nb = SubbasicNbhd(PROBE_POINTS[0], ClopenSet.whole(), frozenset(DIAG.declared_image()))
        assert in_subbasic(DIAG, nb).member

    def test_accumulation_row_identity(self):
        nb = SubbasicNbhd(ALL_ONES, ClopenSet.whole(), frozenset([E]))
        res = in_subbasic(DIAG, nb)
        assert res.member

    def test_violation_with_witness(self):
        nb = SubbasicNbhd(CantorPoint.parse("110(0)"), ClopenSet.whole(), frozenset([E]))
        res = in_subbasic(DIAG, nb)
        assert not res.member
        wx, wy, val = res.witness
        assert val == A and Cylinder("110").contains(wy)

    def test_singleton_both_sides(self):
        nb = SubbasicNbhd(CantorPoint.parse("0(0)"), CantorPoint.parse("0(0)"), frozenset([A]))
        assert in_subbasic(DIAG, nb).member

    def test_y_singleton_side(self):
        nb = SubbasicNbhd(ClopenSet.parse("{1}"), CantorPoint.parse("0(0)"), frozenset([E]))
        assert in_subbasic(DIAG, nb).member

    def test_requires_singleton(self):
        with pytest.raises(ValueError):
            SubbasicNbhd(ClopenSet.whole(), ClopenSet.whole(), frozenset([E]))

    def test_grid_agreement(self):
        # the exact decision agrees with brute-force grid sweeps
        for f in [DIAG, MULTI]:
            for fixed in PROBE_POINTS[:4]:
                for allowed in [frozenset([E]), frozenset([E, A])]:
                    nb = SubbasicNbhd(fixed, ClopenSet.whole(), allowed)
                    exact = in_subbasic(f, nb).member
                    sweep = all(
                        f.eval(fixed, y) in allowed for y in grid_points(5)
                    ) and f.eval(fixed, ALL_ONES) in allowed
                    assert exact == sweep

