from functools import lru_cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet, basis_index
from sepcont.config import MAX_N
from sepcont.discrete import DiscreteApproximator, _limit_points
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
from grid import (
    basis_prefix,
    cell_pair_values,
    cell_prefixes,
    cell_range,
    grid_points,
    limit_point,
)
from sym3 import symmetric_group_3
from test_grid_values import functions as trees

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


@lru_cache(maxsize=256)
def strip_cells(f, k, d):
    """The strip oracle, from pointwise evaluation: the indices of the
    depth-d cells u grouped by the value f takes alone at the sample points
    of u x V_k (x side) and of V_k x u (y side), V_k no deeper than d."""
    band = cell_range(basis_prefix(k), d)
    values = cell_pair_values(f, d)
    x_cells, y_cells = {}, {}
    for i in range(1 << d):
        for cells, rect in ((x_cells, [(i, j) for j in band]), (y_cells, [(j, i) for j in band])):
            taken = frozenset().union(*map(values.__getitem__, rect))
            if len(taken) == 1:
                cells.setdefault(*taken, []).append(i)
    return x_cells, y_cells


def strip_sets(f, k, d):
    """X(z,k) and Y(z,k) of every value z f is constant at, read off strip_cells."""
    x_cells, y_cells = strip_cells(f, k, d)
    return (
        {z: ClopenSet.from_cells(cells, d) for z, cells in x_cells.items()},
        {z: ClopenSet.from_cells(cells, d) for z, cells in y_cells.items()},
    )


def patch_cells(f, z, n, d):
    """The (i, j) depth-d cells of the z-patch of g_n: x-strip cells times the
    cells of V_k and the cells of V_k times y-strip cells, over k <= n."""
    out = set()
    for k in range(n + 1):
        band = cell_range(basis_prefix(k), d)
        x_cells, y_cells = strip_cells(f, k, d)
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
        cells = cell_prefixes(4)
        for k in range(7):
            v = basis_prefix(k)
            vs = [CantorPoint(cells[i]) for i in ClopenSet.from_prefixes([v]).cell_indices(4)]
            vs += [limit_point(v + "1" * 3)]
            x_sets, y_sets = strip_sets(DIAG, k, 3)
            for strips, at in ((x_sets, DIAG.eval), (y_sets, lambda u, w: DIAG.eval(w, u))):
                for z, strip in strips.items():
                    us = [CantorPoint(cells[i]) for i in strip.cell_indices(4)]
                    us += [limit_point(cells[i]) for i in strip.cell_indices(4)]
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
        square = set(product(cell_range("110", d), repeat=2))
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
            cells = cell_prefixes(d)
            for z in engine.image[: n + 1]:
                for i, j in patch_cells(DIAG, z, n, d):
                    for a in cell_range(cells[i], 4):
                        for b in cell_range(cells[j], 4):
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
            for cell_x in cell_prefixes(d)[:4]:
                for cell_y in cell_prefixes(d)[:4]:
                    v1 = g.eval(CantorPoint(cell_x), CantorPoint(cell_y))
                    v2 = g.eval(limit_point(cell_x), limit_point(cell_y))
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


class TestDepthBound:
    # The config loader bounds every stage by MAX_N, and that is the only
    # bound on the working depth.
    def test_working_depth_is_at_most_3_through_max_n(self):
        engine = DiscreteApproximator(DIAG)
        assert [engine.working_depth(n) for n in range(MAX_N + 1)] == [1] * 3 + [2] * 4 + [3] * 6

    def test_stage_tables_through_max_n_have_at_most_64_cells(self):
        engine = DiscreteApproximator(DIAG)
        for n in range(MAX_N + 1):
            rows = engine.approximant(n).values
            assert len(rows) * len(rows[0]) <= 64, n
        assert engine.approximant(MAX_N).depth == 3


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
    return max(1, max(len(basis_prefix(k)) for k in range(n + 1)))


def brute_strips(f, z, k, d):
    x_cells, y_cells = strip_cells(f, k, d)
    return ClopenSet.from_cells(x_cells.get(z, []), d), ClopenSet.from_cells(y_cells.get(z, []), d)


def brute_patch(f, z, n, d):
    """The z-patch of g_n as a tuple of nonempty (x side, y side) clopen
    rectangles: X(z,k) x V_k and V_k x Y(z,k) for k <= n."""
    rects = []
    for k in range(n + 1):
        x_strip, y_strip = brute_strips(f, z, k, d)
        v = ClopenSet.from_prefixes([basis_prefix(k)])
        if not x_strip.is_empty():
            rects.append((x_strip, v))
        if not y_strip.is_empty():
            rects.append((v, y_strip))
    return tuple(rects)


def brute_meets(rects, u, v):
    cu, cv = ClopenSet.from_prefixes([u]), ClopenSet.from_prefixes([v])
    return any(
        not cu.intersect(a).is_empty() and not cv.intersect(b).is_empty() for a, b in rects
    )


def brute_approximant(f, n):
    d = brute_working_depth(n)
    level = image(f)[: n + 1]
    patches = [(z, brute_patch(f, z, n, d)) for z in level]
    patches = [(z, p) for z, p in patches if p]
    cells = cell_prefixes(d)
    rows = []
    for u in cells:
        row = []
        for v in cells:
            hits = [z for z, p in patches if brute_meets(p, u, v)]
            if hits:
                row.append(hits[0])
            else:
                row.append(f.eval(limit_point(u), limit_point(v)))
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
        ).map(lambda vals: CylinderDiagonal(tuple(zip(prefixes, vals))))
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


class TestLimitTables:
    def test_limit_points_end_in_their_last_bit(self):
        # Each depth-d cell's prefix followed by its last bit forever: the
        # all-ones cell gives the all-ones point, and depth 0 the zero point.
        assert _limit_points(0) == (CantorPoint("", "0"),)
        assert _limit_points(2) == (
            CantorPoint("", "0"), CantorPoint("01", "1"), CantorPoint("1", "0"), ALL_ONES,
        )
        for d in range(7):
            assert _limit_points(d) == tuple(map(limit_point, cell_prefixes(d)))

    def test_diag_tables_at_depths_one_and_three(self):
        # [0] x [0] lies in member 0, where f is A; the cross pairs are off
        # every block and the corner is the identity.  At depth 3, [110] x
        # [110] lies in member 2, [011] x [100] is off every block, and the
        # corner pair is the identity again.
        engine = DiscreteApproximator(DIAG)
        assert engine.approximant(0).values == ((A, E), (E, E))
        rows = engine.approximant(7).values
        assert (rows[0b110][0b110], rows[0b011][0b100], rows[0b111][0b111]) == (A, E, E)

    @given(st.one_of(families, trees))
    def test_approximant_is_f_at_the_limit_representatives(self, f):
        # Against pointwise evaluation, through one depth change past MAX_N.
        engine = DiscreteApproximator(f)
        for n in range(MAX_N + 4):
            cells = cell_prefixes(brute_working_depth(n))
            expected = tuple(
                tuple(f.eval(limit_point(u), limit_point(v)) for v in cells)
                for u in cells
            )
            assert engine.approximant(n).values == expected, n

    def test_one_table_per_working_depth(self):
        engine = DiscreteApproximator(DIAG)
        for n, m in product(range(16), repeat=2):
            same = engine.working_depth(n) == engine.working_depth(m)
            assert (engine.approximant(n) is engine.approximant(m)) == same, (n, m)

    def test_one_grid_values_call_per_depth(self, monkeypatch):
        # Every stage through MAX_N and every certificate stage read the
        # three tables, each built by one lowering of f.
        engine = DiscreteApproximator(DIAG)
        calls = []
        lower = OnesDiagonal.grid_values
        monkeypatch.setattr(OnesDiagonal, "grid_values", lambda *a: calls.append(a) or lower(*a))
        for n in range(MAX_N + 1):
            engine.approximant(n)
        engine.certificate(SubbasicNbhd(CantorPoint.parse("10(0)"), WHOLE, frozenset()), MAX_N)
        assert len(calls) == 3

    @given(trees, trees)
    def test_interleaved_engines_read_their_own_tables(self, f, g):
        # Two engines built in turn read the same kept limit points of each
        # depth, and neither reads the other's values.
        engines = DiscreteApproximator(f), DiscreteApproximator(g)
        for n in range(MAX_N + 1):
            for engine in engines:
                alone = DiscreteApproximator(engine.f)
                assert engine.approximant(n).values == alone.approximant(n).values, n


def painted(f, n):
    """{(i, j): z} for the depth-d cell pairs of g_n that the z-patch meets,
    d = brute_working_depth(n), read off patch_cells."""
    d = brute_working_depth(n)
    return {c: z for z in image(f)[: n + 1] for c in patch_cells(f, z, n, d)}


class TestMonotonePainting:
    # Through MAX_N, so across both depth changes the traffic meets (stages
    # 2 to 3 and 6 to 7), on the painted reference construction.
    @given(st.one_of(families, trees))
    def test_painting_changes_no_value(self, f):
        # A painted cell pair carries f's value at its limit representatives,
        # so g_n is that table whatever the patches.
        for n in range(MAX_N + 1):
            cells = cell_prefixes(brute_working_depth(n))
            for (i, j), z in painted(f, n).items():
                u, v = limit_point(cells[i]), limit_point(cells[j])
                assert f.eval(u, v) == z, (n, i, j)

    @given(st.one_of(families, trees))
    def test_painted_cells_stay_painted_with_their_value(self, f):
        # A cell pair painted in g_n is painted with the same value in
        # g_{n+1}; across a depth change, so is each of its sub-pairs.
        engine = DiscreteApproximator(f)
        now = painted(f, 0)
        for n in range(MAX_N):
            nxt, rows = painted(f, n + 1), engine.approximant(n + 1).values
            shift = brute_working_depth(n + 1) - brute_working_depth(n)
            for (i, j), z in now.items():
                for a, b in product(range(1 << shift), repeat=2):
                    s = (i << shift) + a, (j << shift) + b
                    assert nxt.get(s) == z == rows[s[0]][s[1]], (n, i, j, s)
            now = nxt


class TestPaintedApproximants:
    @given(st.one_of(families, trees), st.permutations(range(13)))
    def test_painting_matches_cell_by_patch_oracle(self, f, order):
        # The stage tables grow only as far as asked, in any order.
        engine = DiscreteApproximator(f)
        for n in order:
            assert engine.approximant(n).values == brute_approximant(f, n).values, n

    def test_working_depth_closed_form(self):
        engine = DiscreteApproximator(DIAG)
        for n in range(201):
            assert engine.working_depth(n) == brute_working_depth(n), n


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
        for u in cell_prefixes(f.depth):
            cells.setdefault(at(CantorPoint(u)), []).append(u)
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
        u for u in cell_prefixes(f.depth) if at(CantorPoint(u)) in nbhd.allowed
    )
    violating = region.intersect(allowed_region.complement())
    if violating.is_empty():
        return MembershipResult(True)
    t = CantorPoint(violating.prefixes()[0])
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
        d = max(f.depth, region.depth())
        cells = cell_prefixes(d)
        at = (lambda t: f.eval(fixed, t)) if axis == "x" else (lambda t: f.eval(t, fixed))
        hit = frozenset(at(CantorPoint(cells[i])) for i in region.cell_indices(d))
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
    (("11", DYADIC.parse_element("1101(100)")), ("00", A))
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

    @given(families, probes)
    def test_each_n_max_reads_a_prefix_of_the_rows(self, f, nbhd):
        # n_max below m, at m and past it, inside a working depth and at
        # its ends: the rows are those of the n <= n_max.
        engine = DiscreteApproximator(f)
        full = engine.certificate(nbhd, 12)
        for n_max in range(13):
            cert = engine.certificate(nbhd, n_max)
            assert cert.m == full.m and cert.checks == tuple(c for c in full.checks if c[0] <= n_max)

    def test_failing_stages_match_per_stage_oracle(self):
        engine = DiscreteApproximator(WITNESS_F)
        gs = [brute_approximant(WITNESS_F, n) for n in range(13)]
        for nbhd in WITNESS_PROBES:
            cert = engine.certificate(nbhd, 12)
            assert not cert.passed, nbhd.probe_id
            probe = SubbasicNbhd(nbhd.kx, nbhd.ky, frozenset(cert.target_values))
            assert cert.checks == oracle_checks(gs, probe, cert.m), nbhd.probe_id
