from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet, Cylinder
from sepcont.config import parse_function
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    DiagonalIndicator,
    GridMemo,
    OnesDiagonal,
    PointwiseInverse,
    PointwiseProduct,
    SepFunction,
    SubbasicNbhd,
    TableFunction,
    exact_sup,
    image,
    in_subbasic,
    uniform_dist,
)
from sepcont.groups import get_group
from grid import grid_points
from sym3 import symmetric_group_3

DYADIC = get_group("dyadic")
C3 = get_group("cyclic:3")
E = DYADIC.identity()
A = DYADIC.parse_element("1(0)")
B = DYADIC.parse_element("01(0)")

DIAG = OnesDiagonal((A,))
MULTI = OnesDiagonal((A, B, DYADIC.parse_element("001(0)")))
FINITE_DIAG = CylinderDiagonal(((Cylinder("0"), A), (Cylinder("10"), B)))

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
            CylinderDiagonal(((Cylinder("0"), A), (Cylinder("01"), B)))

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
                point, ones = CantorPoint("1" * n, "0"), Cylinder("1" * n)
                assert f.value_at(n) == value
                assert f.values_on_rect(ones, ones) == tail | {e}
                assert f.eval(point, point) == value
                assert f.eval(point, ALL_ONES) == f.eval(ALL_ONES, point) == e
            assert f.eval(ALL_ONES, ALL_ONES) == e


class TestGrammarLeaves:
    @pytest.mark.parametrize(
        "text",
        [
            "const 1(0)",
            "table 1 t.csv",
            "diag ones 1(0),01(0)",
            "diag ones-finite 1(0),01(0)",
            "diag cyl 0:1(0),11:01(0)",
            "prod(diag ones 1(0), table 1 t.csv)",
            "inv(diag cyl 0:1(0))",
            "quant(diag ones 1(0),01(0), 2)",
        ],
    )
    def test_every_leaf_is_a_table_a_constant_or_a_diagonal(self, text, tmp_path):
        # The class build reads every other leaf through the diagonal's
        # axis keys, so no grammar form may build any other leaf.
        (tmp_path / "t.csv").write_text("(0),1(0)\n1(0),(0)\n", encoding="utf-8")
        leaves = parse_function(text, DYADIC, tmp_path)._leaves()
        assert all(isinstance(v, (TableFunction, Constant, DiagonalIndicator)) for v in leaves)


class TestImage:
    @pytest.mark.parametrize(
        "f",
        [Constant(A), DIAG, MULTI, FINITE_DIAG, PointwiseProduct(DIAG, Constant(A)),
         PointwiseInverse(MULTI)],
        ids=["const", "diag", "multi", "finite", "prod", "inv"],
    )
    def test_grid_values_are_the_image(self, f):
        # Every value of these functions is taken on the depth-4 grid.
        pts = grid_points(4)
        assert {f.eval(x, y) for x, y in product(pts, repeat=2)} == set(image(f))

    def test_product_with_its_inverse_takes_the_identity_alone(self, tmp_path):
        # prod(f, inv(f)) would take the 7 products of f's values by their
        # inverses if each factor ranged over f's image on its own.
        f = parse_function("prod(diag ones 1(0),01(0),001(0), inv(diag ones 1(0),01(0),001(0)))",
                           DYADIC, tmp_path)
        assert image(f) == (E,)

    def test_member_covering_the_square_leaves_no_identity(self, tmp_path):
        # The one member [] holds every point, so the identity off the
        # matched blocks is never taken.
        assert image(parse_function("diag cyl :1(0)", DYADIC, tmp_path)) == (A,)


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
        whole = CylinderDiagonal(((Cylinder(""), A),))
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


def _reference_profile(f: DiagonalIndicator, c: Cylinder):
    """The members a cylinder can meet, as (indices, tail_from, out): finitely
    many indices, every index from ``tail_from`` on, and whether c holds a
    point outside every member."""
    if isinstance(f, OnesDiagonal):
        ones = 0
        for ch in c.prefix:
            if ch == "0":
                return frozenset((ones,)), None, False
            ones += 1
        return frozenset(), ones, True
    hit = frozenset(n for n, (m, _) in enumerate(f.members) if m.overlaps(c))
    union = ClopenSet.from_prefixes([m.prefix for m, _ in f.members])
    return hit, None, not ClopenSet.from_cylinder(c).is_subset_of(union)


def _reference_tail_values(f: DiagonalIndicator, start: int):
    if isinstance(f, OnesDiagonal):
        return frozenset((*f.prefix[start:], *f.period))
    return frozenset(z for n, (_, z) in enumerate(f.members) if n >= start)


def reference_values_on_rect(f: DiagonalIndicator, u: Cylinder, v: Cylinder):
    """The value superset on u x v read off the two sides' member profiles:
    the values of the members both sides meet, the tails both sides reach,
    and the identity unless both sides lie in one single member."""
    (iu, tu, ou), (iv, tv, ov) = _reference_profile(f, u), _reference_profile(f, v)
    matched = {f.value_at(n) for n in iu & iv}
    if tv is not None:
        matched.update(f.value_at(n) for n in iu if n >= tv)
    if tu is not None:
        matched.update(f.value_at(n) for n in iv if n >= tu)
    if tu is not None and tv is not None:
        matched.update(_reference_tail_values(f, max(tu, tv)))

    def single(indices, tail_from, out):
        if tail_from is None and not out and len(indices) == 1:
            return next(iter(indices))
        return None

    su, sv = single(iu, tu, ou), single(iv, tv, ov)
    if not (su is not None and su == sv):
        matched.add(f.group.identity())
    return frozenset(matched)


def _disjoint(prefixes):
    """The prefixes that overlap no earlier one."""
    kept = []
    for p in prefixes:
        if not any(Cylinder(p).overlaps(Cylinder(q)) for q in kept):
            kept.append(p)
    return kept


_LITERALS = {
    "dyadic": ["(0)", "1(0)", "01(0)", "001(0)", "11(0)"],
    "cyclic:5": ["0", "1", "2", "3", "4"],
}


@st.composite
def diag_texts(draw):
    """(group name, text) of a random ``diag ones``, ``ones-finite`` or
    ``cyl`` family; values may be the identity."""
    name = draw(st.sampled_from(sorted(_LITERALS)))
    values = st.lists(st.sampled_from(_LITERALS[name]), min_size=1, max_size=3)
    kind = draw(st.sampled_from(["ones", "ones-finite", "cyl"]))
    if kind != "cyl":
        return name, f"diag {kind} {','.join(draw(values))}"
    prefixes = _disjoint(draw(st.lists(st.text("01", max_size=4), min_size=1, max_size=4)))
    lits = draw(st.lists(st.sampled_from(_LITERALS[name]), min_size=len(prefixes),
                         max_size=len(prefixes)))
    return name, "diag cyl " + ",".join(f"{p}:{z}" for p, z in zip(prefixes, lits))


RECT_DEPTH = 5


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

    def test_constant_value_on(self):
        assert DIAG.constant_value_on(Cylinder("110"), Cylinder("110")) == A
        assert DIAG.constant_value_on(Cylinder("0"), Cylinder("1")) == E
        assert DIAG.constant_value_on(Cylinder("11"), Cylinder("11")) is None
        assert DIAG.constant_value_on(Cylinder(""), Cylinder("")) is None

    @settings(max_examples=40)
    @given(case=diag_texts())
    def test_closed_forms_match_profile_reference(self, case, tmp_path_factory):
        # On every cylinder pair up to depth 5 the closed form equals the
        # profile reference and holds f's value at the sample points of
        # u x v: cell representatives, 1^w and 1^k 0^w past the period.
        name, text = case
        f = parse_function(text, get_group(name), tmp_path_factory.getbasetemp())
        period = len(f.period) if isinstance(f, OnesDiagonal) else 0
        points = [*grid_points(RECT_DEPTH), ALL_ONES]
        points += [CantorPoint("1" * k, "0") for k in range(RECT_DEPTH + period + 3)]
        values = [[f.eval(x, y) for y in points] for x in points]
        cyls = [Cylinder("".join(bits)) for d in range(RECT_DEPTH + 1)
                for bits in product("01", repeat=d)]
        inside = {c: [i for i, p in enumerate(points) if c.contains(p)] for c in cyls}
        for u, v in product(cyls, repeat=2):
            got = f.values_on_rect(u, v)
            assert got == reference_values_on_rect(f, u, v), (text, u, v)
            assert {values[i][j] for i in inside[u] for j in inside[v]} <= got, (text, u, v)


def section_sup(f, g, axis, fixed, region):
    """The sup of d(f, g) over the section at ``fixed`` (axis 'x' fixes x),
    on ``region``: the layer-wise distance."""
    sides = (fixed, region) if axis == "x" else (region, fixed)
    return exact_sup(f.group.dist, f, g, GridMemo(), SubbasicNbhd(*sides, frozenset()))[0]


# Off the zero-tail grids: 1^w, 1^k 0 1^w and the deep members 1^k 0^w.
DEEP_POINTS = (*grid_points(6), ALL_ONES,
               *(CantorPoint("1" * k + "0", "1") for k in range(4)),
               *(CantorPoint("1" * k) for k in range(7, 12)))


class TestLayerwiseDist:
    def test_zero_on_equal(self):
        assert section_sup(DIAG, DIAG, "x", PROBE_POINTS[0], ClopenSet.whole()) == 0

    def test_constant_distance(self):
        d = section_sup(Constant(E), Constant(A), "x", PROBE_POINTS[0], ClopenSet.whole())
        assert d == Fraction(1, 2)

    @pytest.mark.parametrize("x", PROBE_POINTS + [CantorPoint("1" * 9)], ids=str)
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_exact_at_every_fixed_point(self, x, axis):
        # The sup over the exact points is the max over a deep sample.
        whole = ClopenSet.whole()
        got = section_sup(MULTI, DIAG, axis, x, whole)
        pairs = [(x, t) if axis == "x" else (t, x) for t in DEEP_POINTS + (x,)]
        assert got == max(DYADIC.dist(MULTI.eval(*p), DIAG.eval(*p)) for p in pairs)

    def test_region_restriction(self):
        x = CantorPoint.parse("10(0)")
        inside = section_sup(DIAG, Constant(E), "x", x, ClopenSet.parse("{10}"))
        outside = section_sup(DIAG, Constant(E), "x", x, ClopenSet.parse("{0}"))
        assert inside == Fraction(1, 2)
        assert outside == 0


class TestUniformDist:
    def test_zero_on_equal(self):
        assert uniform_dist(DIAG, DIAG, "l").value == 0

    def test_abelian_l_equals_r(self):
        for f, g in [(DIAG, Constant(E)), (MULTI, Constant(A)), (DIAG, MULTI)]:
            assert uniform_dist(f, g, "l").value == uniform_dist(f, g, "r").value

    def test_const_vs_diag(self):
        assert uniform_dist(Constant(E), DIAG, "l").value == Fraction(1, 2)

    def test_s3_sides_both_defined(self):
        S3 = symmetric_group_3()
        r, s = S3.parse_element("r"), S3.parse_element("s")
        f, g = Constant(r), Constant(s)
        # discrete metric: both sides see the same mismatch
        assert uniform_dist(f, g, "l").value == Fraction(1, 2)
        assert uniform_dist(f, g, "r").value == Fraction(1, 2)

    @pytest.mark.parametrize(
        "f, g", [(DIAG, Constant(E)), (MULTI, Constant(A)), (DIAG, MULTI)],
        ids=["diag-e", "multi-a", "diag-multi"],
    )
    def test_l_value_is_plain_metric_sup(self, f, g):
        # left-invariance: d(1, f^-1 g) == d(f, g) pointwise, and the sup is
        # the max over a deep sample with points off every grid
        got = uniform_dist(f, g, "l")
        direct = max(DYADIC.dist(f.eval(x, y), g.eval(x, y)) for x in DEEP_POINTS for y in DEEP_POINTS)
        assert got.value == direct
        assert DYADIC.dist(f.eval(*got.witness), g.eval(*got.witness)) == direct


class TestInSubbasic:
    def test_whole_image_always_member(self):
        nb = SubbasicNbhd(PROBE_POINTS[0], ClopenSet.whole(), frozenset(image(DIAG)))
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

