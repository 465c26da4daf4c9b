from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcont.cantor import (
    ALL_ONES,
    CantorPoint,
    ClopenSet,
    Cylinder,
    basis_cylinder,
    basis_index,
    partition_at_depth,
)
from sepcont.discrete import DiscreteApproximator
from sepcont.errors import RefinementExhaustedError
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    MembershipResult,
    OnesDiagonal,
    SubbasicNbhd,
    TableFunction,
    image,
    in_subbasic,
)
from sepcont.groups import get_group
from grid import grid_points
from sym3 import symmetric_group_3

DYADIC = get_group("dyadic")
C3 = get_group("cyclic:3")
S3 = symmetric_group_3()
E = DYADIC.identity()
A = DYADIC.parse_element("1(0)")
DIAG = OnesDiagonal((A,))
WHOLE = ClopenSet.whole()


class TestFiltration:
    def test_levels_nondecreasing_and_exhaustive(self):
        filtration = DiscreteApproximator(DIAG).image
        for n in range(4):
            assert set(filtration[: n + 1]) <= set(filtration[: n + 2])
        assert set(filtration[:11]) == set(image(DIAG))


def strip_cells(f, k, cells):
    """The direct strip pass, kept as the oracle for the engine's inherited
    strips: the indices of the depth-D cells u grouped by the certified
    constant value of f on u x V_k (x side) and on V_k x u (y side)."""
    v = basis_cylinder(k)
    x_cells, y_cells = {}, {}
    for i, u in enumerate(cells):
        cx = f.constant_value_on(u, v)
        if cx is not None:
            x_cells.setdefault(cx, []).append(i)
        cy = f.constant_value_on(v, u)
        if cy is not None:
            y_cells.setdefault(cy, []).append(i)
    return x_cells, y_cells


def strip_sets(f, k, d):
    """X(z,k) and Y(z,k) of every certified value z, read off strip_cells."""
    x_cells, y_cells = strip_cells(f, k, partition_at_depth(d))
    return (
        {z: ClopenSet.from_cells(cells, d) for z, cells in x_cells.items()},
        {z: ClopenSet.from_cells(cells, d) for z, cells in y_cells.items()},
    )


def patch_cells(f, z, n, d):
    """The (i, j) depth-d cells of the z-patch of g_n: x-strip cells times the
    cells of V_k and the cells of V_k times y-strip cells, over k <= n."""
    out = set()
    for k in range(n + 1):
        band = basis_cylinder(k).cell_range(d)
        x_cells, y_cells = strip_cells(f, k, partition_at_depth(d))
        out |= {(i, j) for i in x_cells.get(z, ()) for j in band}
        out |= {(i, j) for i in band for j in y_cells.get(z, ())}
    return out


class TestStrips:
    def test_constant_whole_space(self):
        x_sets, y_sets = strip_sets(Constant(A), 0, 1)
        assert set(x_sets) == set(y_sets) == {A}
        assert x_sets[A].is_whole() and y_sets[A].is_whole()

    def test_diag_value_strip(self):
        x_sets, y_sets = strip_sets(DIAG, basis_index("110"), 4)
        assert x_sets[A] == ClopenSet.parse("{110}")
        assert y_sets[A] == ClopenSet.parse("{110}")

    def test_diag_identity_strip(self):
        x_sets, y_sets = strip_sets(DIAG, basis_index("0"), 2)
        assert x_sets[E] == ClopenSet.parse("{1}")
        assert y_sets[E] == ClopenSet.parse("{1}")

    def test_strip_soundness_by_sampling(self):
        # every (x, y) in X(z,k) x V_k and in V_k x Y(z,k) evaluates to z,
        # including limit points
        for k in range(7):
            v = basis_cylinder(k)
            vs = [c.representative() for c in ClopenSet.from_cylinder(v).cells_at_depth(4)]
            vs += [Cylinder(v.prefix + "1" * 3).limit_representative()]
            x_sets, y_sets = strip_sets(DIAG, k, 3)
            for strips, at in ((x_sets, DIAG.eval), (y_sets, lambda u, w: DIAG.eval(w, u))):
                for z, strip in strips.items():
                    us = [c.representative() for c in strip.cells_at_depth(4)]
                    us += [c.limit_representative() for c in strip.cells_at_depth(4)]
                    for u in us:
                        for w in vs:
                            assert at(u, w) == z


class TestPatches:
    def test_all_strips_empty_gives_empty_patch(self):
        # the diagonal value never fills a whole-space strip
        assert patch_cells(DIAG, A, 0, 1) == set()

    def test_patches_disjoint(self):
        engine = DiscreteApproximator(DIAG)
        for n in [2, 6, 12]:
            d = engine.working_depth(n)
            patches = [patch_cells(DIAG, z, n, d) for z in engine.image[: n + 1]]
            assert any(patches)
            for i in range(len(patches)):
                for j in range(i + 1, len(patches)):
                    assert not patches[i] & patches[j], (n, i, j)

    def test_patch_contains_matched_square(self):
        engine = DiscreteApproximator(DIAG)
        n = basis_index("110")
        d = engine.working_depth(n)
        square = set(product(Cylinder("110").cell_range(d), repeat=2))
        assert square and square <= patch_cells(DIAG, A, n, d)
        g = engine.approximant(n)
        assert all(g.values[i][j] == A for i, j in square)

    def test_patch_soundness(self):
        # every grid point of every cell painted for z evaluates to z under
        # f and under g_n
        engine = DiscreteApproximator(DIAG)
        grid = grid_points(4)
        for n in [6, 12]:
            d = engine.working_depth(n)
            g = engine.approximant(n)
            cells = partition_at_depth(d)
            for z in engine.image[: n + 1]:
                for i, j in patch_cells(DIAG, z, n, d):
                    for a in cells[i].cell_range(4):
                        for b in cells[j].cell_range(4):
                            assert DIAG.eval(grid[a], grid[b]) == z
                            assert g.eval(grid[a], grid[b]) == z


class TestApproximants:
    def test_locally_constant_function_reproduced(self):
        # oracle: brute-force comparison on the full depth-2 grid
        rows = tuple(
            tuple(A if (i ^ j) & 1 else E for j in range(4)) for i in range(4)
        )
        f = TableFunction(2, rows)
        engine = DiscreteApproximator(f)
        g = engine.approximant(6)
        for x, y in product(grid_points(2), repeat=2):
            assert g.eval(x, y) == f.eval(x, y)

    def test_matched_square_value_once_patch_exists(self):
        engine = DiscreteApproximator(DIAG)
        n = basis_index("110")
        g = engine.approximant(n)
        x = CantorPoint.parse("110(0)")
        assert g.eval(x, x) == A

    def test_accumulation_row_identically_identity(self):
        engine = DiscreteApproximator(DIAG)
        for n in [0, 3, 8, 12]:
            g = engine.approximant(n)
            for y in grid_points(4):
                assert g.eval(ALL_ONES, y) == E
            assert g.eval(ALL_ONES, ALL_ONES) == E

    def test_approximants_locally_constant(self):
        engine = DiscreteApproximator(DIAG)
        for n in [0, 4, 9]:
            g = engine.approximant(n)
            d = g.depth
            for cell_x in partition_at_depth(d)[:4]:
                for cell_y in partition_at_depth(d)[:4]:
                    v1 = g.eval(cell_x.representative(), cell_y.representative())
                    v2 = g.eval(cell_x.limit_representative(), cell_y.limit_representative())
                    assert v1 == v2


class TestCertificates:
    def test_constant_certificate_stage_is_entry_index(self):
        f = Constant(A)
        engine = DiscreteApproximator(f)
        cert = engine.certificate(SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset()), 4)
        assert cert.m == engine.image.index(A) == 0
        assert cert.passed

    def test_accumulation_point_probe(self):
        engine = DiscreteApproximator(DIAG)
        cert = engine.certificate(SubbasicNbhd(ALL_ONES, WHOLE, frozenset()), 12)
        assert cert.target_values == (E,)
        assert cert.m == 0
        assert cert.passed

    def test_matched_block_probe_deep(self):
        # x = 110..., K_Y = [11]: the certificate needs the depth-3 cylinders
        engine = DiscreteApproximator(DIAG)
        nb = SubbasicNbhd(CantorPoint.parse("110(0)"), ClopenSet.parse("{11}"), frozenset())
        cert = engine.certificate(nb, 16)
        assert set(cert.target_values) == {E, A}
        assert cert.m == 14  # covers [110] (index 13) and [111] (index 14)
        assert cert.passed

    def test_eleven_probes_pass_through_twelve(self):
        engine = DiscreteApproximator(DIAG)
        probes = [
            SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "p1"),
            SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset(), "p2"),
            SubbasicNbhd(CantorPoint.parse("(0)"), ClopenSet.parse("{0}"), frozenset(), "p3"),
            SubbasicNbhd(CantorPoint.parse("(0)"), ClopenSet.parse("{1}"), frozenset(), "p4"),
            SubbasicNbhd(CantorPoint.parse("10(0)"), WHOLE, frozenset(), "p5"),
            SubbasicNbhd(CantorPoint.parse("10(0)"), ClopenSet.parse("{11}"), frozenset(), "p6"),
            SubbasicNbhd(CantorPoint.parse("10(0)"), ClopenSet.parse("{0}"), frozenset(), "p7"),
            SubbasicNbhd(WHOLE, ALL_ONES, frozenset(), "p8"),
            SubbasicNbhd(WHOLE, CantorPoint.parse("(0)"), frozenset(), "p9"),
            SubbasicNbhd(ClopenSet.parse("{0}"), CantorPoint.parse("(0)"), frozenset(), "p10"),
            SubbasicNbhd(ClopenSet.parse("{1}"), CantorPoint.parse("(0)"), frozenset(), "p11"),
        ]
        expected_m = {"p1": 0, "p2": 2, "p3": 1, "p4": 2, "p5": 6, "p6": 6,
                      "p7": 1, "p8": 0, "p9": 2, "p10": 1, "p11": 2}
        for probe in probes:
            cert = engine.certificate(probe, 12)
            assert cert.passed, probe.probe_id
            assert cert.m == expected_m[probe.probe_id]

    def test_membership_verified_exactly(self):
        # the per-stage checks agree with a direct membership recomputation
        engine = DiscreteApproximator(DIAG)
        nb = SubbasicNbhd(CantorPoint.parse("0(0)"), ClopenSet.parse("{1}"), frozenset(), "q")
        cert = engine.certificate(nb, 8)
        for n, member, _ in cert.checks:
            again = in_subbasic(
                engine.approximant(n), SubbasicNbhd(nb.kx, nb.ky, frozenset(cert.target_values))
            )
            assert member == again.member


class TestDepthCap:
    def test_refinement_exhausted_under_low_cap(self, monkeypatch):
        monkeypatch.setenv("SEPCONT_MAX_DEPTH", "1")
        engine = DiscreteApproximator(DIAG)
        with pytest.raises(RefinementExhaustedError):
            engine.approximant(6)  # needs working depth 2

    def test_cap_override_allows_deeper(self, monkeypatch):
        monkeypatch.setenv("SEPCONT_MAX_DEPTH", "3")
        engine = DiscreteApproximator(DIAG)
        assert engine.approximant(6).depth == 2


class TestC3Tables:
    def test_pipeline_agrees_with_table_oracle(self):
        # a sample of depth-2 tables over C3 with two values
        e, a = C3.identity(), C3.element(1)
        for mask in [0, 1, 0x5A5A, 0xFFFF, 0x8001, 0x1234]:
            rows = tuple(
                tuple(a if (mask >> (4 * i + j)) & 1 else e for j in range(4))
                for i in range(4)
            )
            f = TableFunction(2, rows)
            engine = DiscreteApproximator(f)
            g = engine.approximant(6)
            for x, y in product(grid_points(2), repeat=2):
                assert g.eval(x, y) == f.eval(x, y), (mask, str(x), str(y))


# Reference construction of g_n, kept as the oracle for the painted one: the
# strips swept once per target value z, the working depth as a max over the
# basis cylinders, and every depth-d cell tested against every patch rectangle.
def brute_working_depth(n):
    return max(1, max(basis_cylinder(k).depth() for k in range(n + 1)))


def brute_strips(f, z, k, d):
    v = basis_cylinder(k)
    cells = partition_at_depth(d)
    x_strip = ClopenSet.from_prefixes(u.prefix for u in cells if f.constant_value_on(u, v) == z)
    y_strip = ClopenSet.from_prefixes(u.prefix for u in cells if f.constant_value_on(v, u) == z)
    return x_strip, y_strip


def mask_bits(mask):
    """The positions of the set bits of ``mask``."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def brute_patch(f, z, n, d):
    """The z-patch of g_n as a tuple of nonempty (x side, y side) clopen
    rectangles: X(z,k) x V_k and V_k x Y(z,k) for k <= n."""
    rects = []
    for k in range(n + 1):
        x_strip, y_strip = brute_strips(f, z, k, d)
        v = ClopenSet.from_cylinder(basis_cylinder(k))
        if not x_strip.is_empty():
            rects.append((x_strip, v))
        if not y_strip.is_empty():
            rects.append((v, y_strip))
    return tuple(rects)


def brute_meets(rects, u, v):
    cu, cv = ClopenSet.from_cylinder(u), ClopenSet.from_cylinder(v)
    return any(
        not cu.intersect(a).is_empty() and not cv.intersect(b).is_empty() for a, b in rects
    )


def brute_approximant(f, n):
    d = brute_working_depth(n)
    level = image(f)[: n + 1]
    patches = [(z, brute_patch(f, z, n, d)) for z in level]
    patches = [(z, p) for z, p in patches if p]
    cells = partition_at_depth(d)
    rows = []
    for u in cells:
        row = []
        for v in cells:
            hits = [z for z, p in patches if brute_meets(p, u, v)]
            if len(hits) > 1:
                raise RefinementExhaustedError(
                    f"cell {u.prefix} x {v.prefix} meets patches of "
                    f"{[str(h) for h in hits]} at depth {d}"
                )
            if hits:
                row.append(hits[0])
            else:
                row.append(f.eval(u.limit_representative(), v.limit_representative()))
        rows.append(tuple(row))
    return TableFunction(d, tuple(rows))


DYADIC_POOL = tuple(DYADIC.parse_element(t) for t in ["(0)", "1(0)", "01(0)", "11(0)", "(1)"])
C3_POOL = tuple(C3.element(i) for i in range(3))
S3_POOL = tuple(S3.parse_element(t) for t in ["e", "r", "rr", "s", "sr"])
OFF_GRID = tuple(CantorPoint.parse(t) for t in ["(1)", "1(0)", "01(1)", "1(10)", "110(0)"])

_schedules = st.lists(st.sampled_from(DYADIC_POOL), min_size=1, max_size=3, unique=True)
_cyl_prefixes = st.one_of(
    st.integers(1, 3).flatmap(
        lambda length: st.lists(
            st.sampled_from([format(i, f"0{length}b") for i in range(2**length)]),
            min_size=1, max_size=3, unique=True,
        )
    ),
    st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True).map(
        lambda ns: ["1" * n + "0" for n in sorted(ns)]
    ),
)
dyadic_families = st.one_of(
    _schedules.map(tuple).map(OnesDiagonal),
    _schedules.map(lambda vals: OnesDiagonal((E,), prefix=tuple(vals))),
    _cyl_prefixes.flatmap(
        lambda prefixes: st.lists(
            st.sampled_from(DYADIC_POOL), min_size=len(prefixes), max_size=len(prefixes)
        ).map(lambda vals: CylinderDiagonal(tuple(zip(map(Cylinder, prefixes), vals))))
    ),
)


def tables(pool, max_depth):
    def build(depth, cells):
        n = 2**depth
        return TableFunction(depth, tuple(tuple(cells[i * n : (i + 1) * n]) for i in range(n)))

    return st.integers(0, max_depth).flatmap(
        lambda d: st.lists(st.sampled_from(pool), min_size=4**d, max_size=4**d).map(
            lambda cells: build(d, cells)
        )
    )


families = st.one_of(dyadic_families, tables(C3_POOL, 2), tables(S3_POOL, 2))


class TestPaintedApproximants:
    @given(families, st.permutations(range(13)))
    def test_painting_matches_cell_by_patch_oracle(self, f, order):
        # The stage tables grow only as far as asked, in any order.
        engine = DiscreteApproximator(f)
        for n in order:
            assert engine.approximant(n).values == brute_approximant(f, n).values, n

    @given(families, st.permutations([(k, d) for d in (1, 2, 3) for k in range(13)]))
    def test_inherited_strips_match_direct_strips(self, f, order):
        # Whichever coarser cells and wider cylinders are already known when
        # a strip is asked for, the copied verdicts equal the direct pass.
        engine = DiscreteApproximator(f)
        for k, d in order:
            for z, *masks in zip(engine.image, *engine.strips(k, d)):
                inherited = tuple(ClopenSet.from_cells(mask_bits(m), d) for m in masks)
                assert inherited == brute_strips(f, z, k, d), (k, d)

    def test_working_depth_closed_form(self):
        engine = DiscreteApproximator(DIAG)
        for n in range(201):
            assert engine.working_depth(n) == brute_working_depth(n), n


class _OverlappingClaims(CylinderDiagonal):
    """Certifies a constant on each listed rectangle and on all of its
    sub-rectangles, whether or not the claims agree: overlapping claims of
    two values make strips that no single-valued function has.  A rectangle
    inside claims of two values is not certified.  The test's claims overlap
    only in depth-2 cells off row and column 00, which no strip query of
    g_3 covers, so each query gets the same answer whether it is asked
    directly or copied from a larger rectangle.

    Its members take exactly the listed values, the identity first: one
    member per other value, so ``image``, which reads the members, is the
    list.  Evaluation and the rectangle answers ignore the members."""

    def __init__(self, claims, values=(E, A)):
        prefixes = map(Cylinder, ("0", "10", "110", "1110", "11110"))
        super().__init__(tuple(zip(prefixes, values[1:])))
        self.claims = claims

    def eval(self, x, y):
        return E

    def values_on_rect(self, u, v):
        hits = {
            z for (cu, cv), z in self.claims.items()
            if u.prefix.startswith(cu) and v.prefix.startswith(cv)
        }
        return frozenset(hits) if hits else frozenset((E, A))


class TestOverlappingPatches:
    def test_the_members_take_the_listed_values(self):
        values = tuple(map(DYADIC.parse_element, ["(0)", "1(0)", "01(0)", "11(0)", "001(0)", "011(0)"]))
        assert image(_OverlappingClaims({}, values)) == values
        assert image(_OverlappingClaims({})) == (E, A)

    def test_first_overlapping_cell_row_major_is_reported(self):
        # At n = 3 (depth 2) the E patch is [11] x [] (k = 0, x strip) and
        # [01] x [1] (k = 2, x strip); the A patch is [] x [11] (k = 0, y
        # strip).  Painting meets the overlap at 11 x 11 first (k = 0), but
        # 01 x 11 (k = 2) comes first row-major.
        f = _OverlappingClaims({("11", ""): E, ("", "11"): A, ("01", "1"): E})
        expected = "cell 01 x 11 meets patches of ['(0)', '1(0)'] at depth 2"
        with pytest.raises(RefinementExhaustedError) as oracle:
            brute_approximant(f, 3)
        assert str(oracle.value) == expected
        with pytest.raises(RefinementExhaustedError) as painted:
            DiscreteApproximator(f).approximant(3)
        assert str(painted.value) == expected

    def test_smaller_stage_after_a_checked_larger_one(self):
        # At depth 2 (stages 3 to 6) cell 01 x 10 gets E at stage 3, from the
        # y strip [0] x [10], and F, the sixth value, at stage 5, from the x
        # strip [01] x [1]: stages 3 and 4 are clash-free, stage 5 is not.
        image = tuple(map(DYADIC.parse_element, ["(0)", "1(0)", "01(0)", "11(0)", "001(0)", "011(0)"]))
        f = _OverlappingClaims({("0", "10"): E, ("01", "1"): image[-1]}, image)
        engine = DiscreteApproximator(f)
        assert engine.approximant(4).values == DiscreteApproximator(f).approximant(4).values
        assert engine.approximant(3).values == DiscreteApproximator(f).approximant(3).values
        expected = "cell 01 x 10 meets patches of ['(0)', '011(0)'] at depth 2"
        # Asked twice: a failed stage is not marked checked.
        for asked in (engine, engine, DiscreteApproximator(f)):
            with pytest.raises(RefinementExhaustedError) as painted:
                asked.approximant(5)
            assert str(painted.value) == expected
        # The failed stage leaves the checked ones readable.
        row = SubbasicNbhd(CantorPoint.parse("01(0)"), WHOLE, frozenset((E,)))
        assert engine.memberships(row, [4, 3]) == [True, True]

    @pytest.mark.parametrize("n", [5, 6])
    def test_fresh_engine_past_the_first_stage_raises_the_oracle_message(self, n):
        # A fresh engine builds depth 2's covers straight through stage n and
        # checks only n: the reported cell is still the oracle's.
        image = tuple(map(DYADIC.parse_element, ["(0)", "1(0)", "01(0)", "11(0)", "001(0)", "011(0)"]))
        f = _OverlappingClaims({("0", "10"): E, ("01", "1"): image[-1]}, image)
        with pytest.raises(RefinementExhaustedError) as oracle:
            brute_approximant(f, n)
        row = SubbasicNbhd(CantorPoint.parse("01(0)"), WHOLE, frozenset((E,)))
        for ask in (lambda engine: engine.approximant(n), lambda engine: engine.memberships(row, [n])):
            with pytest.raises(RefinementExhaustedError) as painted:
                ask(DiscreteApproximator(f))
            assert str(painted.value) == str(oracle.value)


class TestTableSectionPartition:
    @given(
        st.one_of(tables(DYADIC_POOL, 3), tables(C3_POOL, 3), tables(S3_POOL, 3)),
        st.integers(0, 3).flatmap(lambda d: st.sampled_from(grid_points(d) + OFF_GRID)),
        st.sampled_from(["x", "y"]),
    )
    def test_one_pass_matches_per_value_preimages(self, f, fixed, axis):
        # Brute partition: every depth-d cell read at a representative, the
        # cells of each value united, keyed in canonical order.
        at = (lambda t: f.eval(fixed, t)) if axis == "x" else (lambda t: f.eval(t, fixed))
        cells: dict = {}
        for u in partition_at_depth(f.depth):
            cells.setdefault(at(u.representative()), []).append(u.prefix)
        slow = {z: ClopenSet.from_prefixes(cells[z]) for z in f.group.sort_canonically(cells)}
        fast = f.section_partition(axis, fixed)
        assert list(fast) == list(slow)
        assert list(fast.values()) == list(slow.values())


# Reference membership test, kept as the oracle for the table path of
# in_subbasic: the allowed part of the section is assembled as a clopen set
# from the cells whose value is allowed, and the witness is the first
# cylinder of the region minus that set.
def trie_in_subbasic(f, nbhd):
    axis, fixed, region = nbhd.sides()
    at = (lambda t: f.eval(fixed, t)) if axis == "x" else (lambda t: f.eval(t, fixed))
    allowed_region = ClopenSet.from_prefixes(
        u.prefix for u in partition_at_depth(f.depth) if at(u.representative()) in nbhd.allowed
    )
    violating = region.intersect(allowed_region.complement())
    if violating.is_empty():
        return MembershipResult(True)
    t = violating.cylinders()[0].representative()
    fx, fy = (fixed, t) if axis == "x" else (t, fixed)
    return MembershipResult(False, (fx, fy, f.eval(fx, fy)))


_prefix_sets = st.integers(0, 5).flatmap(
    lambda d: st.lists(
        st.integers(0, 2**d - 1).map(lambda i: format(i, f"0{d}b") if d else ""), max_size=4
    )
).map(ClopenSet.from_prefixes)
regions = st.one_of(
    st.just(ClopenSet.empty()),
    st.just(ClopenSet.whole()),
    _prefix_sets,
    _prefix_sets.map(ClopenSet.complement),
)
tables_with_pool = st.sampled_from([DYADIC_POOL, C3_POOL, S3_POOL]).flatmap(
    lambda pool: st.tuples(tables(pool, 3), st.just(pool))
)


class TestTableMembership:
    @settings(max_examples=300)
    @given(
        tables_with_pool,
        regions,
        st.integers(0, 3).flatmap(lambda d: st.sampled_from(grid_points(d) + OFF_GRID)),
        st.sampled_from(["x", "y"]),
        st.data(),
    )
    def test_row_read_matches_set_algebra(self, table_pool, region, fixed, axis, data):
        f, pool = table_pool
        # U is the section's values on the region (a member), those less
        # one value (a near miss), or a random set.
        cells = region.cells_at_depth(max(f.depth, region.depth()))
        at = (lambda t: f.eval(fixed, t)) if axis == "x" else (lambda t: f.eval(t, fixed))
        hit = frozenset(at(c.representative()) for c in cells)
        near = [hit - {z} for z in sorted(hit, key=str)]
        allowed = data.draw(
            st.one_of(
                st.just(hit),
                st.sampled_from(near) if near else st.just(hit),
                st.sets(st.sampled_from(pool)).map(frozenset),
            )
        )
        nbhd = SubbasicNbhd(fixed, region, allowed) if axis == "x" else SubbasicNbhd(region, fixed, allowed)
        expected = trie_in_subbasic(f, nbhd)
        assert in_subbasic(f, nbhd) == expected
        # g_7 has working depth 3 >= the table's depth, so it equals f: the
        # engine's stage-7 verdict, read off its stage table, must agree.
        assert DiscreteApproximator(f).memberships(nbhd, [7]) == [expected.member]

    def test_region_cells_read_once_per_certificate(self, monkeypatch):
        # Every stage reads the probe region's cells; they are computed once.
        reads = []
        cell_indices = ClopenSet.cell_indices

        def counting(self, d):
            reads.append(self)
            return cell_indices(self, d)

        monkeypatch.setattr(ClopenSet, "cell_indices", counting)
        engine = DiscreteApproximator(DIAG)
        region = ClopenSet.parse("{0, 11}")
        cert = engine.certificate(SubbasicNbhd(CantorPoint.parse("10(0)"), region, frozenset()), 12)
        assert cert.passed and len(cert.checks) > 1
        assert sum(r is region for r in reads) == 1


# The failing probes of configs/discrete-witness.cfg: each fails at its
# first stages and names a witness there.
WITNESS_F = CylinderDiagonal(
    ((Cylinder("11"), DYADIC.parse_element("1101(100)")), (Cylinder("00"), A))
)
WITNESS_PROBES = (
    SubbasicNbhd(ClopenSet.parse("{0}"), CantorPoint.parse("01(0)"), frozenset(), "p01"),
    SubbasicNbhd(WHOLE, CantorPoint.parse("1(0)"), frozenset(), "p03"),
    SubbasicNbhd(CantorPoint.parse("011(10)"), WHOLE, frozenset(), "p06"),
    SubbasicNbhd(CantorPoint.parse("0(1)"), ClopenSet.parse("{0,00}"), frozenset(), "p10"),
)
points = st.integers(0, 3).flatmap(lambda d: st.sampled_from(grid_points(d) + OFF_GRID))
probes = st.tuples(points, st.one_of(regions, points), st.booleans()).map(
    lambda p: SubbasicNbhd(p[0], p[1], frozenset()) if p[2] else SubbasicNbhd(p[1], p[0], frozenset())
)


def oracle_checks(gs, probe, m):
    """The certificate rows from stage m on, from the oracle's g_n (``gs``)
    tested by in_subbasic."""
    rows = []
    for n in range(m, len(gs)):
        res = in_subbasic(gs[n], probe)
        rows.append((n, res.member, "" if res.member else "({},{})->{}".format(*res.witness)))
    return tuple(rows)


class TestStageTableCertificates:
    @given(families, probes, st.data())
    def test_rows_match_per_stage_oracle(self, f, nbhd, data):
        engine = DiscreteApproximator(f)
        gs = [brute_approximant(f, n) for n in range(13)]
        cert = engine.certificate(nbhd, 12)
        probe = SubbasicNbhd(nbhd.kx, nbhd.ky, frozenset(cert.target_values))
        assert cert.checks == oracle_checks(gs, probe, cert.m)
        # Against any U, stages fail too: every stage's table read must
        # still agree with the oracle's g_n.
        allowed = data.draw(st.sets(st.sampled_from(engine.image)).map(frozenset))
        probe = SubbasicNbhd(nbhd.kx, nbhd.ky, allowed)
        expected = [member for _, member, _ in oracle_checks(gs, probe, 0)]
        assert engine.memberships(probe, range(13)) == expected

    @given(
        families,
        probes,
        st.lists(st.integers(0, 12), min_size=1, max_size=24),
        st.data(),
    )
    def test_shuffled_stages_match_per_stage_oracle(self, f, nbhd, stages, data):
        # Stages asked in any order, across depths and more than once, read
        # the same verdicts as the oracle's g_n; so does a stage asked after
        # a larger one has extended its depth's covers.
        engine = DiscreteApproximator(f)
        allowed = data.draw(st.sets(st.sampled_from(engine.image)).map(frozenset))
        probe = SubbasicNbhd(nbhd.kx, nbhd.ky, allowed)
        gs = {n: brute_approximant(f, n) for n in set(stages)}
        assert engine.memberships(probe, stages) == [in_subbasic(gs[n], probe).member for n in stages]
        n = data.draw(st.integers(0, max(stages)))
        assert engine.approximant(n).values == brute_approximant(f, n).values, n

    def test_failing_stages_match_per_stage_oracle(self):
        engine = DiscreteApproximator(WITNESS_F)
        gs = [brute_approximant(WITNESS_F, n) for n in range(13)]
        for nbhd in WITNESS_PROBES:
            cert = engine.certificate(nbhd, 12)
            assert not cert.passed, nbhd.probe_id
            probe = SubbasicNbhd(nbhd.kx, nbhd.ky, frozenset(cert.target_values))
            assert cert.checks == oracle_checks(gs, probe, cert.m), nbhd.probe_id
