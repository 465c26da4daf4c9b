from fractions import Fraction
from itertools import product

import pytest

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet, Cylinder
from sepcont.errors import CoverConstructionError
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    OnesDiagonal,
    PointwiseInverse,
    PointwiseProduct,
    PostCompose,
    SubbasicNbhd,
    TableFunction,
    image,
)
from sepcont.groups import ball_net, get_group
from sepcont.zerodim import ZerodimPipeline, build_covers, build_quantizer_tower
from grid import grid_points

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

STANDARD_PROBES = [
    SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "acc_x"),
    SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset(), "zero_x"),
    SubbasicNbhd(WHOLE, ALL_ONES, frozenset(), "acc_y"),
]


class TestCovers:
    def test_level_zero_single_cell(self):
        sample = image(DIAG)
        covers = build_covers(DYADIC, sample, 3)
        assert len(covers[0].cells) == 1
        assert set(covers[0].cells[0]) == set(sample)

    def test_two_far_elements_split_at_level_one(self):
        sample = (E, A)  # distance 1/2 > 1/4
        covers = build_covers(DYADIC, sample, 1)
        assert len(covers[1].cells) == 2
        assert all(len(c) == 1 for c in covers[1].cells)

    def test_refinement_chain(self):
        sample = image(MULTI)
        covers = build_covers(DYADIC, sample, 5)
        for n in range(1, 6):
            assert covers[n].refines(covers[n - 1])
            assert covers[n].max_cell_diameter(DYADIC) <= Fraction(1, 2 ** (n + 1))

    def test_greedy_covers_real_group(self):
        sample = tuple(REAL.parse_element(t) for t in ["0/2^0", "1/2^3", "3/2^3", "-1/2^2"])
        covers = build_covers(REAL, sample, 4)
        for n in range(1, 5):
            assert covers[n].refines(covers[n - 1])
            assert covers[n].max_cell_diameter(REAL) <= Fraction(1, 2 ** (n + 1))

    def test_greedy_covers_c3(self):
        sample = tuple(C3.element(i) for i in range(3))
        covers = build_covers(C3, sample, 2)
        assert len(covers[1].cells) == 3  # discrete metric forces singletons
        assert covers[2].refines(covers[1])

    def test_empty_sample_rejected(self):
        with pytest.raises(CoverConstructionError):
            build_covers(DYADIC, (), 2)


class TestQuantizerTower:
    def make(self, sample, levels, group=DYADIC):
        covers = build_covers(group, sample, levels)
        nets = [
            ball_net(group, k, group.net_enumeration_depth(k, sample))
            for k in range(levels)
        ]
        tower = build_quantizer_tower(group, covers, nets)
        return tower, nets

    def test_r0_is_identity_map(self):
        sample = (E, A)
        tower, _ = self.make(sample, 3)
        for z in sample:
            assert tower[0][z] == E

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
            g = pipe.factor(n)
            assert {g.eval(x, y) for x, y in product(pts, repeat=2)} == set(image(g))

    def test_factor_discreteness_sees_a_factor_altered_off_the_grid(self, monkeypatch):
        # b is taken only on [11111] x [11111], which no point of the depth-4
        # grid reaches; the altered factor maps b, a value of f, to A, which
        # is not in net(2).
        b = DYADIC.parse_element("01(0)")
        f = CylinderDiagonal(((Cylinder("0"), A), (Cylinder("11111"), b)))
        pipe = ZerodimPipeline(f, n_max=3)
        pts = grid_points(4)
        assert b not in {f.eval(x, y) for x, y in product(pts, repeat=2)}
        assert pipe.factor_discreteness(2) and A not in pipe.nets[2].elements
        factor, g2 = pipe.factor, pipe.factor(2)
        altered = PostCompose(f, {**g2.mapping, b: A})
        monkeypatch.setattr(pipe, "factor", lambda n: altered if n == 2 else factor(n))
        assert not pipe.factor_discreteness(2)

    def test_constant_function_factors_trivial(self):
        pipe = ZerodimPipeline(Constant(A), n_max=3)
        pts = grid_points(3)
        for n in range(1, 4):
            g = pipe.factor(n)
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
        g0, f1 = pipe.factor(0), pipe.quantized(1)
        pts = grid_points(4)
        assert all(g0.eval(x, y) == f1.eval(x, y) for x, y in product(pts, repeat=2))

    def test_telescoping(self):
        for f in [DIAG, MULTI]:
            pipe = ZerodimPipeline(f, n_max=3)
            assert pipe.telescoping_ok()

    def test_telescoping_fails_on_a_factor_altered_off_the_grid(self, monkeypatch):
        # b is taken only on [11111] x [11111], which no point of the depth-4
        # grid reaches; the identity of finite maps still sees a factor map
        # altered at b.
        b = DYADIC.parse_element("01(0)")
        f = CylinderDiagonal(((Cylinder("0"), A), (Cylinder("11111"), b)))
        pipe = ZerodimPipeline(f, n_max=3)
        pts = grid_points(4)
        assert b in image(f)
        assert b not in {f.eval(x, y) for x, y in product(pts, repeat=2)}
        assert pipe.telescoping_ok()
        factor, g2 = pipe.factor, pipe.factor(2)
        altered = PostCompose(f, {**g2.mapping, b: DYADIC.mul(g2.mapping[b], A)})
        monkeypatch.setattr(pipe, "factor", lambda n: altered if n == 2 else factor(n))
        assert not pipe.telescoping_ok()


def _phi(pipe, n, z):
    """r_n(z)^-1 r_{n+1}(z), read off the quantizer tower."""
    group = pipe.group
    return group.mul(group.inv(pipe.tower[n][z]), pipe.tower[n + 1][z])


# The diag ones 1(0) family, the diag-multi.cfg family at its n_max, and a cyclic:5 family.
FACTOR_CASES = [(DIAG, 4), (MULTI, 6), (C5_CYCLE, 4)]
CYLINDERS_TO_3 = [Cylinder("".join(bits)) for d in range(4) for bits in product("01", repeat=d)]


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
            g, f_n, f_n1 = pipe.factor(n), pipe.quantized(n), pipe.quantized(n + 1)
            for x, y in pairs:
                assert g.eval(x, y) == group.mul(group.inv(f_n.eval(x, y)), f_n1.eval(x, y))

    def test_image_is_phi_of_sample(self, factor_pipe):
        pipe = factor_pipe
        for n in range(pipe.n_max + 1):
            expected = tuple(pipe.group.sort_canonically({_phi(pipe, n, z) for z in pipe.sample}))
            assert image(pipe.factor(n)) == expected

    def test_values_on_rect_are_phi_of_f_values(self, factor_pipe):
        pipe = factor_pipe
        for n in range(pipe.n_max + 1):
            g = pipe.factor(n)
            for u, v in product(CYLINDERS_TO_3, repeat=2):
                f_vals = pipe.f.values_on_rect(u, v)
                vals = g.values_on_rect(u, v)
                assert vals == frozenset(_phi(pipe, n, w) for w in f_vals)
                if len(f_vals) == 1:
                    assert len(vals) == 1


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
            stages = [pipe.factor_approximator(k).approximant(n) for k in range(l + 1, n + 1)]
            for x in pts:
                for y in pts:
                    acc = one
                    for g in stages:
                        acc = DYADIC.mul(acc, g.eval(x, y))
                    assert DYADIC.dist(one, acc) <= Fraction(1, 2**l)

    @staticmethod
    def _diagonal_with_wrong_factor(monkeypatch, l, wrong_k):
        # At l = 3 the budget 4 * 2^-l is 1/2, so a stage value at distance
        # 1/2 from the true one must fail it.  Only this pipeline's
        # approximator of factor wrong_k is altered: every stage table is
        # multiplied by A, which flips the first bit of each value.
        pipe = ZerodimPipeline(MULTI, n_max=5)
        approx = pipe.factor_approximator(wrong_k)
        correct, wrong = approx.approximant, {}

        def flipped(n):
            if n not in wrong:
                g = correct(n)
                wrong[n] = TableFunction(
                    g.depth, tuple(tuple(DYADIC.mul(v, A) for v in row) for row in g.values)
                )
            return wrong[n]

        monkeypatch.setattr(approx, "approximant", flipped)
        return pipe.diagonal(STANDARD_PROBES, [l])

    def test_budget_and_tail_pass_before_the_substitution(self):
        rep = ZerodimPipeline(MULTI, n_max=5).diagonal(STANDARD_PROBES, [3])
        assert rep.passed
        assert all(r.budget == Fraction(1, 2) and r.final_ok and r.tail_ok for r in rep.results)

    def test_wrong_late_factor_fails_final_budget(self, monkeypatch):
        rep = self._diagonal_with_wrong_factor(monkeypatch, 3, 4)
        assert not rep.passed
        for r in rep.results:
            assert r.layer_ok and r.m_l == 3  # factors k <= l are untouched
            assert r.budget == Fraction(1, 2) == r.final_sup
            assert not r.final_ok
            assert r.witness.startswith("n=")

    def test_wrong_late_factor_fails_tail_containment(self, monkeypatch):
        rep = self._diagonal_with_wrong_factor(monkeypatch, 3, 4)
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


class TestErrorPaths:
    def test_net_maximality_error_on_shallow_enumeration(self):
        # nets from a depth-0 enumeration cannot serve a sample point at 3/8
        from sepcont.errors import NetMaximalityError

        sample = tuple(REAL.sort_canonically(
            [REAL.parse_element("0/2^0"), REAL.parse_element("3/2^3")]
        ))
        covers = build_covers(REAL, sample, 2)
        shallow_nets = [ball_net(REAL, k, 0) for k in range(2)]
        with pytest.raises(NetMaximalityError):
            build_quantizer_tower(REAL, covers, shallow_nets)
