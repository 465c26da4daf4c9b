import csv
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    OnesDiagonal,
    PointwiseInverse,
    PointwiseProduct,
    SubbasicNbhd,
    TableFunction,
    exact_points,
    image,
)
from sepcont import config, zerodim
from sepcont.cli import main
from sepcont.groups import DyadicGroup, get_group
from sepcont.zerodim import ZerodimPipeline, _cover, build_tower
from grid import (
    cell_prefixes,
    factor,
    factor_approximants,
    grid_points,
    limit_point,
    replace_factor,
)
from sym3 import S3_LEFT

DYADIC = get_group("dyadic")
C3 = get_group("cyclic:3")
REAL = get_group("real")
E = DYADIC.identity()
A = DYADIC.parse_element("1(0)")
DIAG = OnesDiagonal((A,))
MULTI = OnesDiagonal(
    (A, DYADIC.parse_element("01(0)"), DYADIC.parse_element("001(0)"))
)
C5 = get_group("cyclic:5")
C5_CYCLE = OnesDiagonal((C5.element(1), C5.element(3), C5.element(2)))
WHOLE = ClopenSet.whole()
ZERO = CantorPoint.parse("(0)")

STANDARD_PROBES = [
    SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "acc_x"),
    SubbasicNbhd(ZERO, WHOLE, frozenset(), "zero_x"),
    SubbasicNbhd(WHOLE, ALL_ONES, frozenset(), "acc_y"),
]


def _table(sample):
    """A depth-2 table whose image is the set of ``sample``'s elements."""
    cells = [sample[i % len(sample)] for i in range(16)]
    return TableFunction(2, tuple(tuple(cells[4 * i : 4 * i + 4]) for i in range(4)))


def _cells(group, sample, top):
    """The cells of levels 0..top as ``build_tower`` builds them."""
    levels = [[list(sample)]]
    for n in range(1, top + 1):
        levels.append(_cover(group, sample, levels[-1], n))
    return levels


def assert_cover_contract(group, sample, tower):
    """At every level n of the tower: the cells partition the sample, each
    has diameter <= 2^-(n+1), each lies in one cell of level n - 1, and
    r_n is constant on each."""
    levels = _cells(group, sample, len(tower) - 1)
    for n, cells in enumerate(levels):
        assert sorted(map(group.canonical_key, (z for c in cells for z in c))) == list(
            map(group.canonical_key, sample)
        )
        bound = Fraction(1, 2 ** (n + 1))
        for cell in cells:
            assert all(group.dist(a, b) <= bound for a, b in product(cell, repeat=2))
            assert len({tower[n][z] for z in cell}) == 1
            if n:
                assert sum(set(cell) <= set(c) for c in levels[n - 1]) == 1
    return levels


def _first_failing_witness(pipe, probe, m_l, budget):
    """The witness the diagonal writes for a probe: at the last stage
    n >= m_l where d(f, f_{n,n}) >= budget somewhere on the probe
    rectangle, the first such exact point, x-major (one side is the fixed
    point, so the other side's order is x-major).  f_{n,n} is the product
    of the factors' stage-n approximants, as the paper builds it."""
    f, dist = pipe.f, pipe.group.dist
    _, fixed, other = probe.sides()
    for n in reversed(range(m_l, pipe.n_max + 1)):
        diag = reduce(PointwiseProduct, factor_approximants(pipe, n)[: n + 1])
        points = map(probe.point, exact_points((f, diag), other, fixed))
        failing = [(x, y) for x, y in points if dist(f.eval(x, y), diag.eval(x, y)) >= budget]
        if failing:
            return f"n={n} ({failing[0][0]},{failing[0][1]})"
    return ""


class TestCovers:
    def test_level_zero_single_cell(self):
        sample = image(DIAG)
        tower, _ = build_tower(sample, 3)
        levels = assert_cover_contract(DYADIC, sample, tower)
        assert levels[0] == [list(sample)]
        assert set(tower[0].values()) == {E}

    def test_two_far_elements_split_at_level_one(self):
        sample = image(_table((E, A)))
        tower, _ = build_tower(sample, 1)  # distance 1/2 > 1/4
        levels = assert_cover_contract(DYADIC, sample, tower)
        assert levels[1] == [[E], [A]]
        assert tower[1] == {E: E, A: A}

    def test_refinement_chain(self):
        sample = image(MULTI)
        tower, _ = build_tower(sample, 5)
        assert_cover_contract(DYADIC, sample, tower)

    def test_greedy_covers_real_group(self):
        values = tuple(REAL.parse_element(t) for t in ["0/2^0", "1/2^3", "3/2^3", "-1/2^2"])
        sample = image(_table(values))
        tower, _ = build_tower(sample, 4)
        assert sample == tuple(REAL.sort_canonically(values))
        levels = assert_cover_contract(REAL, sample, tower)
        assert len(levels[4]) == 4

    def test_greedy_covers_c3(self):
        sample = image(_table(tuple(C3.element(i) for i in range(3))))
        tower, _ = build_tower(sample, 2)
        levels = assert_cover_contract(C3, sample, tower)
        assert levels[1] == [[z] for z in sample]  # discrete metric forces singletons
        assert levels[2] == levels[1]

    @given(st.one_of(
        st.lists(st.sampled_from(DYADIC.dense_enumeration(5)), min_size=1, max_size=8, unique=True),
        st.lists(
            st.integers(0, 5).flatmap(
                lambda e: st.integers(-(2**e), 2**e).map(lambda j: REAL.element(Fraction(j, 2**e)))
            ),
            min_size=1, max_size=8, unique=True,
        ),
        st.lists(st.sampled_from([C5.element(i) for i in range(5)]), min_size=1, max_size=5,
                 unique=True),
    ))
    def test_cover_contract_on_random_samples(self, values):
        group = values[0].group
        sample = image(_table(tuple(values)))
        tower, _ = build_tower(sample, 4)
        assert sample == tuple(group.sort_canonically(values))
        assert_cover_contract(group, sample, tower)


class TestQuantizerTower:
    def make(self, sample, levels):
        return build_tower(image(_table(sample)), levels)

    def test_r0_is_identity_map(self):
        sample = (E, A)
        tower, factors = self.make(sample, 3)
        assert tower[0] == {E: E, A: E}
        assert len(tower) == 4 and len(factors) == 3

    def test_identity_image_stays_identity(self):
        sample = (E,)
        tower, _ = self.make(sample, 4)
        for q in tower:
            assert q[E] == E
        rows = ZerodimPipeline(Constant(E), n_max=3).condition_rows()
        assert all(r.cond2_sup == 0 for r in rows[1:])

    @pytest.mark.parametrize("f", [DIAG, MULTI], ids=["diag", "multi"])
    def test_conditions_certified_exactly(self, f):
        rows = ZerodimPipeline(f, n_max=3).condition_rows()
        assert len(rows) == 5
        for r in rows:
            assert r.cond2_ok and r.cond2_sup <= Fraction(1, 2**r.level)
            assert r.cond3

    @pytest.mark.parametrize("shift, ok", [("01(0)", True), ("1(0)", False)])
    def test_cond2_holds_at_its_bound(self, shift, ok):
        # r_2 replaced by z -> z * shift moves every value by d(0, shift):
        # exactly 2^-2 for 01(0), so cond2 holds at equality, and 1/2 for 1(0).
        pipe = ZerodimPipeline(DIAG, n_max=3)
        s = DYADIC.parse_element(shift)
        pipe.tower[2] = {z: DYADIC.mul(z, s) for z in pipe.sample}
        row = pipe.condition_rows()[2]
        assert row.cond2_sup == DYADIC.dist(E, s) and row.cond2_ok is ok

    def test_conditions_on_deep_dyadic_sample(self):
        # image sample at depth 5: all elements with support in [0, 5),
        # the image of a depth-3 table that holds each twice
        sample = DYADIC.dense_enumeration(5)
        cells = [sample[i % len(sample)] for i in range(64)]
        f = TableFunction(3, tuple(tuple(cells[8 * i : 8 * i + 8]) for i in range(8)))
        pipe = ZerodimPipeline(f, n_max=2)
        assert set(pipe.sample) == set(sample)
        for r in pipe.condition_rows():
            assert r.cond2_ok and r.cond2_sup <= Fraction(1, 2**r.level) and r.cond3

    def test_real_cover_joins_points_at_the_diameter_bound(self):
        # 0 and 1/4 lie at distance 2^-2, the level-1 cell diameter bound, so
        # one cell holds both and r_1 maps both to 0.
        z0, q = REAL.parse_element("0/2^0"), REAL.parse_element("1/2^2")
        tower, _ = build_tower(image(_table((z0, q))), 1)
        assert tower[1] == {z0: z0, q: z0}

    def test_c3_tower(self):
        sample = tuple(C3.element(i) for i in range(3))
        f = TableFunction(1, ((sample[0], sample[1]), (sample[2], sample[0])))
        pipe = ZerodimPipeline(f, n_max=2)
        for r in pipe.condition_rows():
            assert r.cond2_ok and r.cond2_sup <= Fraction(1, 2**r.level) and r.cond3
        # by level 1 the discrete metric forces exact reproduction
        for z in sample:
            assert pipe.tower[1][z] == z


class TestPipeline:
    def test_uniform_rate(self):
        pipe = ZerodimPipeline(DIAG, n_max=3)
        for n in range(4):
            assert pipe.uniform_rate(n).value <= Fraction(1, 2**n)

    def test_factor_images_in_nets(self):
        for f in [DIAG, MULTI]:
            pipe = ZerodimPipeline(f, n_max=4)
            for n in range(5):
                assert pipe.factor_discreteness(n)

    def test_factor_image_validated_on_grid(self):
        pipe = ZerodimPipeline(MULTI, n_max=3)
        pts = grid_points(5)
        for n in range(4):
            g = factor(pipe, n)
            assert {g.eval(x, y) for x, y in product(pts, repeat=2)} == set(image(g))

    def test_factor_discreteness_sees_a_factor_altered_off_the_grid(self):
        # b is taken only on [11111] x [11111], which no point of the depth-4
        # grid reaches; the altered factor maps b, a value of f, to A, which
        # is not in net(2).
        b = DYADIC.parse_element("01(0)")
        f = CylinderDiagonal((("0", A), ("11111", b)))
        pipe = ZerodimPipeline(f, n_max=3)
        pts = grid_points(4)
        assert b not in {f.eval(x, y) for x, y in product(pts, repeat=2)}
        assert pipe.factor_discreteness(2) and DYADIC.net_nearest(2, A) is not A
        pipe.factors[2] = {**pipe.factors[2], b: A}
        assert not pipe.factor_discreteness(2)

    def test_constant_function_factors_trivial(self):
        pipe = ZerodimPipeline(Constant(A), n_max=3)
        pts = grid_points(3)
        for n in range(1, 4):
            g = factor(pipe, n)
            assert all(g.eval(x, y) == E for x, y in product(pts, repeat=2))

    def test_product_with_its_inverse_has_a_trivial_tower(self):
        # f f^-1 takes the identity alone, so every quantizer is {E: E}.
        pipe = ZerodimPipeline(PointwiseProduct(MULTI, PointwiseInverse(MULTI)), n_max=3)
        assert pipe.sample == (E,)
        assert pipe.tower == [{E: E}] * 5
        assert all(r.cond2_sup == 0 and r.cond3 for r in pipe.condition_rows())

    def test_g0_equals_f1(self):
        # r_0 is constant identity, so the first factor equals f_1 pointwise
        pipe = ZerodimPipeline(MULTI, n_max=3)
        g0, f1 = factor(pipe, 0), pipe.quantized(1)
        pts = grid_points(4)
        assert all(g0.eval(x, y) == f1.eval(x, y) for x, y in product(pts, repeat=2))

    def test_telescoping(self):
        # Every cond3 row holds, so phi_0 ... phi_n = r_{n+1} by induction
        # from r_0 = 1.
        for f in [DIAG, MULTI]:
            pipe = ZerodimPipeline(f, n_max=3)
            assert all(r.cond3 for r in pipe.condition_rows())
            prod = dict.fromkeys(pipe.sample, E)
            for phi, r in zip(pipe.factors, pipe.tower[1:]):
                prod = {z: DYADIC.mul(prod[z], phi[z]) for z in pipe.sample}
                assert prod == r

    def test_telescoping_fails_on_a_factor_altered_off_the_grid(self):
        # b is taken only on [11111] x [11111], which no point of the depth-4
        # grid reaches.  phi_2(b) replaced by phi_2(b) b, another element of
        # net(2): every value of phi_2 stays in net(2), but r_2(b) phi_2(b)
        # is no longer r_3(b), so condition (3) fails at level 3 alone.
        b = DYADIC.parse_element("01(0)")
        f = CylinderDiagonal((("0", A), ("11111", b)))
        pipe = ZerodimPipeline(f, n_max=3)
        pts = grid_points(4)
        assert b in image(f)
        assert b not in {f.eval(x, y) for x, y in product(pts, repeat=2)}
        assert all(r.cond3 for r in pipe.condition_rows())
        altered = DYADIC.mul(pipe.factors[2][b], b)
        assert altered != pipe.factors[2][b] and DYADIC.net_nearest(2, altered) is altered
        pipe.factors[2] = {**pipe.factors[2], b: altered}
        assert not pipe.factor_discreteness(2)
        assert [r.cond3 for r in pipe.condition_rows()] == [True, True, True, False, True]


def _phi(pipe, n, z):
    """r_n(z)^-1 r_{n+1}(z), read off the quantizer tower."""
    group = pipe.group
    return group.mul(group.inv(pipe.tower[n][z]), pipe.tower[n + 1][z])


# The diag ones 1(0) family, the diag-multi.cfg family at its n_max, and a cyclic:5 family.
FACTOR_CASES = [(DIAG, 4), (MULTI, 6), (C5_CYCLE, 4)]


@pytest.fixture(scope="module", params=FACTOR_CASES, ids=["diag", "diag-multi", "cyclic5"])
def factor_pipe(request):
    f, n_max = request.param
    return ZerodimPipeline(f, n_max=n_max)


class TestFactorAsMap:
    """g_n is one finite map of f; each check runs for every n <= n_max."""

    def test_eval_is_quotient_of_quantized(self, factor_pipe):
        pipe, group = factor_pipe, factor_pipe.group
        pts = grid_points(4)
        pairs = [*product(pts, repeat=2), *((ALL_ONES, p) for p in pts),
                 *((p, ALL_ONES) for p in pts), (ALL_ONES, ALL_ONES)]
        for n in range(pipe.n_max + 1):
            g, f_n, f_n1 = factor(pipe, n), pipe.quantized(n), pipe.quantized(n + 1)
            for x, y in pairs:
                assert g.eval(x, y) == group.mul(group.inv(f_n.eval(x, y)), f_n1.eval(x, y))

    def test_image_is_phi_of_sample(self, factor_pipe):
        pipe = factor_pipe
        for n in range(pipe.n_max + 1):
            expected = tuple(pipe.group.sort_canonically({_phi(pipe, n, z) for z in pipe.sample}))
            assert image(factor(pipe, n)) == expected

    def test_grid_values_are_phi_of_f_values(self, factor_pipe):
        # On the exact points of the square and on the limit representatives
        # of the depth-3 cells, where a factor's approximants of working
        # depth 3 read it.
        pipe = factor_pipe
        limits = tuple(map(limit_point, cell_prefixes(3)))
        for pts in (exact_points((pipe.f,)), limits):
            f_vals = pipe.f.grid_values(pts, pts)
            for n in range(pipe.n_max + 1):
                g = factor(pipe, n)
                assert g.grid_values(pts, pts) == [_phi(pipe, n, w) for w in f_vals]


DYADIC_POOL = tuple(DYADIC.parse_element(t) for t in ["(0)", "1(0)", "01(0)", "11(0)", "(1)"])
dyadic_trees = st.recursive(
    st.one_of(
        st.lists(st.sampled_from(DYADIC_POOL), min_size=1, max_size=3).map(tuple).map(OnesDiagonal),
        st.lists(st.sampled_from(DYADIC_POOL), min_size=2, max_size=2).map(
            lambda vals: CylinderDiagonal(tuple(zip(("0", "11"), vals)))
        ),
        st.lists(st.sampled_from(DYADIC_POOL), min_size=16, max_size=16).map(_table),
    ),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda lr: PointwiseProduct(*lr)), kids.map(PointwiseInverse)
    ),
    max_leaves=3,
)
# Depth-2 tables with S3 values, whose metric is left-invariant only.
s3_tables = st.lists(
    st.sampled_from([S3_LEFT.parse_element(t) for t in ["e", "r", "s", "sr", "srr"]]),
    min_size=16, max_size=16,
).map(_table)


class TestStageFunction:
    @given(st.one_of(dyadic_trees, s3_tables))
    def test_stage_is_the_product_of_the_factor_approximants(self, f):
        # The paper's f_{n,m} = g_{0,m} ... g_{n,m}, each factor's stage-m
        # approximant from an engine of its own; S3 is not abelian, so a
        # product in the wrong order shows.
        pipe, pts = ZerodimPipeline(f, n_max=4), grid_points(4)
        for m in range(pipe.n_max + 1):
            tables = factor_approximants(pipe, m)
            for n in range(pipe.n_max + 1):
                stage, paper = pipe.stage_function(n, m), reduce(PointwiseProduct, tables[: n + 1])
                for x, y in product(pts, repeat=2):
                    assert stage.eval(x, y) == paper.eval(x, y), (n, m, str(x), str(y))


c5_families = st.lists(
    st.sampled_from([C5.element(i) for i in range(5)]), min_size=1, max_size=3,
).map(tuple).map(OnesDiagonal)


class BitCoverDyadic(DyadicGroup):
    """The dyadic group with its level-n cover cells keyed by bit n alone,
    so the cells of two levels need not nest."""

    name = "dyadic-bit-cover"

    def cover_key(self, a, level):
        return a.payload.prefix(level + 1)[level]


class TestFactors:
    @given(st.one_of(dyadic_trees, c5_families, s3_tables))
    def test_factors_are_the_quotients_and_telescope(self, f):
        # phi_n = r_n^-1 r_{n+1} and phi_0 ... phi_n = r_{n+1} as maps on
        # f's image, left to right: S3 is not abelian.
        pipe, group = ZerodimPipeline(f, n_max=4), f.group
        assert len(pipe.factors) == pipe.n_max + 1
        prod = dict.fromkeys(pipe.sample, group.identity())
        for n, phi in enumerate(pipe.factors):
            assert phi == {z: _phi(pipe, n, z) for z in pipe.sample}
            prod = {z: group.mul(prod[z], phi[z]) for z in pipe.sample}
            assert prod == pipe.tower[n + 1]

    def test_cond3_fails_where_the_covers_stop_nesting(self):
        group = BitCoverDyadic()
        sample = group.dense_enumeration(3)
        pipe = ZerodimPipeline(_table(sample), n_max=3)
        levels = _cells(group, pipe.sample, len(pipe.tower) - 1)
        first = next(n for n in range(1, len(levels))
                     if any(sum(set(c) <= set(p) for p in levels[n - 1]) != 1 for c in levels[n]))
        rows = pipe.condition_rows()
        assert first == 2
        assert all(r.cond3 for r in rows[:first]) and not rows[first].cond3


class TestDiagonal:
    def test_constant_all_zero_distances(self):
        pipe = ZerodimPipeline(Constant(A), n_max=3)
        rep = pipe.diagonal(STANDARD_PROBES[:2], [1, 2])
        assert rep.passed
        assert all(s == 0 for _, s in rep.stage_sups)
        assert all(r.m_l is not None and r.final_sup == 0 for r in rep.results)

    @pytest.mark.parametrize("f", [DIAG, MULTI], ids=["diag", "multi"])
    def test_budget_certified(self, f):
        pipe = ZerodimPipeline(f, n_max=4)
        rep = pipe.diagonal(STANDARD_PROBES, [1, 2])
        assert rep.passed
        for r in rep.results:
            assert r.layer_ok and r.final_ok and r.tail_ok
            assert r.final_sup < r.budget
            assert r.m_l >= r.level_l

    def test_level_up_to_n_max(self):
        pipe = ZerodimPipeline(DIAG, n_max=3)
        rep = pipe.diagonal(STANDARD_PROBES[:1], [3])
        assert [r.level_l for r in rep.results] == [3] and 3 in rep.stage_of_level
        with pytest.raises(ValueError, match="level 4 needs factors up to 4"):
            pipe.diagonal(STANDARD_PROBES[:1], [4])

    def test_levels_are_checked_before_any_sweep(self, monkeypatch):
        pipe, sweeps = ZerodimPipeline(DIAG, n_max=3), []
        for name in ("exact_sup", "value_pairs"):
            sweep = getattr(zerodim, name)
            monkeypatch.setattr(zerodim, name, lambda *a, sweep=sweep: sweeps.append(a) or sweep(*a))
        with pytest.raises(ValueError, match="level 4 needs factors up to 4; raise n_max"):
            pipe.diagonal(STANDARD_PROBES, [1, 4])
        assert sweeps == []
        pipe.diagonal(STANDARD_PROBES, [1, 3])
        assert sweeps

    def test_budget_l1_vacuous_but_sup_recorded(self):
        pipe = ZerodimPipeline(DIAG, n_max=3)
        rep = pipe.diagonal(STANDARD_PROBES[:1], [1])
        (r,) = rep.results
        assert r.budget == Fraction(2)
        assert r.final_sup <= Fraction(1, 2)  # metric diameter bound

    def test_tail_product_containment_direct(self):
        # recompute the tail-product bound directly at every grid point
        pipe = ZerodimPipeline(MULTI, n_max=4)
        pipe.diagonal(STANDARD_PROBES[:1], [1])
        l = 1
        one = DYADIC.identity()
        pts = grid_points(4)
        for n in range(l + 1, 5):
            stages = factor_approximants(pipe, n)[l + 1 : n + 1]
            for x in pts:
                for y in pts:
                    acc = one
                    for g in stages:
                        acc = DYADIC.mul(acc, g.eval(x, y))
                    assert DYADIC.dist(one, acc) <= Fraction(1, 2**l)

    @staticmethod
    def _diagonal_with_wrong_factor(l, wrong_k):
        # At l = 3 the budget 4 * 2^-l is 1/2, so a stage value at distance
        # 1/2 from the true one must fail it.  Factor wrong_k is multiplied
        # by A, which flips the first bit, at the identity alone: the value
        # f takes off the family's blocks.  On zero_x the first points,
        # y in [0], lie in the block of member 0, so its witness is not the
        # probe's first point.
        pipe = ZerodimPipeline(MULTI, n_max=5)
        phi = pipe.factors[wrong_k]
        replace_factor(pipe, wrong_k, {**phi, E: DYADIC.mul(phi[E], A)})
        return pipe, pipe.diagonal(STANDARD_PROBES, [l])

    def test_budget_and_tail_pass_before_the_substitution(self):
        rep = ZerodimPipeline(MULTI, n_max=5).diagonal(STANDARD_PROBES, [3])
        assert rep.passed
        assert all(r.budget == Fraction(1, 2) and r.final_ok and r.tail_ok for r in rep.results)

    def test_wrong_late_factor_fails_final_budget(self):
        pipe, rep = self._diagonal_with_wrong_factor(3, 4)
        assert not rep.passed
        for probe, r in zip(STANDARD_PROBES, rep.results):
            assert r.layer_ok and r.m_l == 3  # factors k <= l are untouched
            assert r.budget == Fraction(1, 2) == r.final_sup
            assert not r.final_ok
            assert r.witness == _first_failing_witness(pipe, probe, r.m_l, r.budget)
        assert rep.results[1].witness == "n=5 ((0),1(0))"
        assert exact_points((MULTI,), WHOLE, ZERO)[0] == ZERO

    def test_wrong_late_factor_fails_tail_containment(self):
        _, rep = self._diagonal_with_wrong_factor(3, 4)
        assert not rep.passed
        for r in rep.results:
            assert r.layer_ok and not r.tail_ok

    def test_table_function_diagonal(self):
        rows = tuple(tuple(A if (i ^ j) & 1 else E for j in range(4)) for i in range(4))
        f = TableFunction(2, rows)
        pipe = ZerodimPipeline(f, n_max=4)
        rep = pipe.diagonal(STANDARD_PROBES[:2], [1, 2])
        assert rep.passed


class TestRealGroupPipeline:
    def test_real_table_end_to_end(self):
        z0, z34 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^2")
        f = TableFunction(1, ((z0, z34), (z34, z0)))
        pipe = ZerodimPipeline(f, n_max=3)
        for r in pipe.condition_rows():
            assert r.cond2_ok and r.cond2_sup <= Fraction(1, 2**r.level) and r.cond3
        for n in range(4):
            assert pipe.uniform_rate(n).value <= Fraction(1, 2**n)
            assert pipe.factor_discreteness(n)
        rep = pipe.diagonal(STANDARD_PROBES[:2], [1, 2])
        assert rep.passed


class NetAnswerDyadic(DyadicGroup):
    """The dyadic group whose net(k) is the one point ``answer`` at every
    level k in ``levels``; the other levels keep the closed form."""

    name = "dyadic-net-answer"

    def __init__(self, answer, levels):
        self.answer, self.levels = CantorPoint.parse(answer), levels

    def net_nearest(self, k, t):
        return self.element(self.answer) if k in self.levels else super().net_nearest(k, t)


class TestErrorPaths:
    def test_value_far_from_the_ball_passes_its_rows(self):
        # net(0) holds every multiple of 1/4 on the reals, so r_1 keeps the
        # value 3, outside the window [-1, 1] of the enumerated nets.
        z0, z3 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^0")
        pipe = ZerodimPipeline(_table((z0, z3)), 2)
        assert pipe.tower[1] == {z0: z0, z3: z3}
        assert all(r.cond2_ok and r.cond3 for r in pipe.condition_rows())

    def test_quantizer_at_the_ball_radius_passes_condition_two(self):
        # A net(0) that answers 1(0) for every point makes r_1 = 1(0) on the
        # image {1}, at distance 1/2 = 2^-1 from it: condition (2) at level 1
        # holds on the closed ball, and its row says so.
        group = NetAnswerDyadic("1(0)", {0})
        one, a = group.identity(), group.parse_element("1(0)")
        pipe = ZerodimPipeline(Constant(one), 1)
        assert pipe.sample == (one,) and pipe.tower[1][one] is a
        row = pipe.condition_rows()[1]
        assert row.level == 1 and row.cond2_sup == Fraction(1, 2) and row.cond2_ok

    def test_a_net_that_is_not_maximal_fails_condition_two(self, tmp_path, monkeypatch):
        # net(k) of the identity alone at every level is not maximal: 01(0)
        # lies 2^-2 from it, at least the separation 2^-(k+2).  Every r_n
        # maps f's one value 01(0) to the identity, so condition (2) fails
        # from level 3 on; the run writes its rows and exits 1.
        group = NetAnswerDyadic("(0)", range(64))
        monkeypatch.setattr(config, "get_group", lambda name: group)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\ngroup = dyadic\nfunction = const 01(0)\nn_max = 3\n")
        out = tmp_path / "rep"
        assert main(["approx-zerodim", "--config", str(cfg), "--out", str(out)]) == 1
        with open(out / "zerodim.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["cond2_sup"] for r in rows] == ["1/2^2"] * 4
        assert [r["cond3"] for r in rows] == ["1"] * 4
        assert [r["pass"] for r in rows] == ["1", "1", "1", "0"]
        assert (out / "manifest.json").exists()