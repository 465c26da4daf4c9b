"""The grid kernel against pointwise evaluation.

Every sweep in the zerodim and uniform layers is a ``grid_sup`` over value
classes, which lowers a combinator tree through ``class_values``; the
classes are built per axis from the axis keys of the leaves (a diagonal
indicator reads each point's member index once).  The brute-force loops below evaluate
pointwise, the way the sweeps did before the kernel (ball membership with
its early exit, the diagonal's final budget with its last failing point as
witness), and are kept as the reference; the two-sided ball test is
checked against a brute search over u.  The same random combinator trees
also check that every point of every class takes its class's values
pointwise, that a product with a constant answers structural queries as
the finite map it equals, that
``grid_sup`` gives the pointwise max and witness, that
``product_chain``'s folded tables equal the unfolded product chains of
the same tables, and that every combinator's ``section_partition`` is a
partition keyed by pointwise values, as the probe's ``pieces`` read it.
They also check the facts that let the zerodim and problem3 layers decide
each check once: condition (2), exact over the image, bounds the
pointwise distance of r_n o f from f; condition (3) is the previous
factor's discreteness; and the group-metric sup of problem3 is the raw sup
capped at 1/2.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sepcont import functions as functions_module
from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet, Cylinder
from sepcont.config import load_experiment, parse_function
from sepcont.errors import ConfigError
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    GridMemo,
    OnesDiagonal,
    PointwiseInverse,
    PointwiseProduct,
    PostCompose,
    SepFunction,
    SubbasicNbhd,
    TableFunction,
    _cell,
    exact_sup,
    grid_sup,
    image,
    product_chain,
    resolution,
    uniform_dist,
)
from sepcont.groups import FiniteTableGroup, get_group
from sepcont.uniform import BallQuery, BallResult, ball_membership, problem3_check
from sepcont.zerodim import DiagonalLevelResult, DiagonalReport, ZerodimPipeline
from grid import grid_points
from sym3 import symmetric_group_3

CONFIGS = Path(__file__).parent.parent / "configs"

DYADIC = get_group("dyadic")
S3 = symmetric_group_3()
C3 = get_group("cyclic:3")
REAL = get_group("real")


class LeftInvariantS3(FiniteTableGroup):
    """S3 with a left-invariant metric that is not right-invariant: d(a, b)
    is 1/8 when a^-1 b is the reflection s, else 1/2 (0 on the diagonal).
    The shipped groups are bi-invariant, so only here do the l and r
    tests of a ball query disagree."""

    def _dist(self, a: int, b: int) -> Fraction:
        c = self._mul(self._inv(a), b)
        if c == self.identity().payload:
            return Fraction(0)
        return Fraction(1, 8) if self._labels[c] == "s" else Fraction(1, 2)


S3_LEFT = LeftInvariantS3("sym:3-left", S3._table, S3._labels)
POOLS = (
    tuple(DYADIC.parse_element(t) for t in ["(0)", "1(0)", "01(0)", "11(0)", "(1)"]),
    tuple(S3.parse_element(t) for t in ["e", "r", "rr", "s", "sr"]),
    tuple(C3.element(i) for i in range(3)),
    tuple(S3_LEFT.parse_element(t) for t in ["e", "r", "s", "sr", "srr"]),
)
REAL_POOL = tuple(REAL.parse_element(t) for t in ["0/2^0", "1/2^1", "-3/2^2", "3/2^0", "-1/2^3"])
FAMILY_PREFIXES = (("0", "10"), ("11",), ("01", "001", "11"))
OFF_GRID = tuple(CantorPoint.parse(t) for t in ["(1)", "1(0)", "01(1)", "1(10)", "110(0)"])
REGIONS = tuple(ClopenSet.parse(t) for t in ["!{}", "{}", "{0}", "{10,111}", "{0011,01}"])
WHOLE = ClopenSet.whole()


def _table(pool, max_depth=3):
    def build(depth, cells):
        n = 2**depth
        return TableFunction(depth, tuple(tuple(cells[i * n : (i + 1) * n]) for i in range(n)))

    return st.integers(0, max_depth).flatmap(
        lambda d: st.lists(st.sampled_from(pool), min_size=4**d, max_size=4**d).map(
            lambda cells: build(d, cells)
        )
    )


def _family(pool):
    return st.sampled_from(FAMILY_PREFIXES).flatmap(
        lambda prefixes: st.lists(
            st.sampled_from(pool), min_size=len(prefixes), max_size=len(prefixes)
        ).map(lambda vals: CylinderDiagonal(tuple(zip(map(Cylinder, prefixes), vals))))
    )


def _postcompose(pool, inner):
    values = image(inner)
    return st.lists(st.sampled_from(pool), min_size=len(values), max_size=len(values)).map(
        lambda vals: PostCompose(inner, dict(zip(values, vals)))
    )


def _functions(pool, max_table_depth=3):
    leaves = st.one_of(
        _table(pool, max_table_depth),
        st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple).map(OnesDiagonal),
        st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(
            lambda vals: OnesDiagonal((vals[0].group.identity(),), prefix=tuple(vals))
        ),
        _family(pool),
        st.sampled_from(pool).map(Constant),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda lr: PointwiseProduct(*lr)),
            kids.map(PointwiseInverse),
            kids.flatmap(lambda f: _postcompose(pool, f)),
        ),
        max_leaves=4,
    )


functions = st.sampled_from(POOLS).flatmap(_functions)
function_pairs = st.sampled_from(POOLS).flatmap(
    lambda pool: st.tuples(_functions(pool), _functions(pool))
)


def _perturbed(pool):
    """A center and the center times a family indicator: the two agree off
    the family's diagonal blocks, so a failing ball query can fail past the
    first grid point."""

    def pair(f, h, h_first):
        return f, PointwiseProduct(h, f) if h_first else PointwiseProduct(f, h)

    return st.builds(pair, _functions(pool), _family(pool), st.booleans())


perturbed_pairs = st.sampled_from(POOLS).flatmap(_perturbed)


def _two_indicators(pool):
    """f holds a finite-family and a ones-schema indicator around a random
    tree, so its value classes are keyed on two leaf values; g is any tree."""

    def pair(t, d1, vals, g):
        d2 = OnesDiagonal(tuple(vals))
        return PointwiseProduct(PointwiseProduct(d1, t), PointwiseInverse(d2)), g

    tree = _functions(pool, 4)
    values = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return st.builds(pair, tree, _family(pool), values, tree)


def _sweep_pairs(pool):
    """Trees with tables of depth 0-4, deeper than some of the grids below."""
    return st.one_of(st.tuples(_functions(pool, 4), _functions(pool, 4)), _two_indicators(pool))


def _rectangles(depth):
    grid = grid_points(depth)
    points = st.sampled_from(OFF_GRID + grid)
    return st.one_of(
        st.just((grid, grid)),
        points.map(lambda p: ((p,), grid)),
        points.map(lambda p: (grid, (p,))),
        st.sampled_from([((), grid), (grid, ())]),
    )


point_lists = st.integers(0, 4).map(lambda d: grid_points(d) + OFF_GRID)
# A dyadic or S3 tree and a constant value from the same pool.
constant_products = st.sampled_from(POOLS[:2]).flatmap(
    lambda pool: st.tuples(_functions(pool), st.sampled_from(pool))
)
CYLINDERS_TO_2 = tuple(Cylinder("".join(bits)) for d in range(3) for bits in product("01", repeat=d))


def brute_values(f, xs, ys):
    return [f.eval(x, y) for x in xs for y in ys]


def class_of_each_point(fns, classes, xs, ys):
    """The class index of every point of xs x ys, x-major, found from the
    point's cells and the pointwise values of the leaves the classes are
    keyed on; a KeyError if some point has no class."""
    leaves = {id(v): v for fn in fns for v in fn._leaves()}.values()
    others = [v for v in leaves if not isinstance(v, (TableFunction, Constant))]
    index = {
        (cells, tuple(classes.leaf_values[id(v)][k] for v in others)): k
        for k, cells in enumerate(classes.cells)
    }
    depth = classes.depth
    return [
        index[(_cell(x, depth), _cell(y, depth)), tuple(v.eval(x, y) for v in others)]
        for x in xs
        for y in ys
    ]


def check_classes(fns, xs, ys, memo):
    """Every point of every class takes its class's value of each function
    pointwise, and each class's first index is its first point, x-major."""
    classes = memo.classes(fns, xs, ys)
    owner = class_of_each_point(fns, classes, xs, ys)
    assert classes.firsts == [owner.index(k) for k in range(len(classes.firsts))]
    for f in fns:
        values = f.class_values(classes, memo)
        assert [values[k] for k in owner] == brute_values(f, xs, ys)


def brute_two_sided(group, a, b, eps):
    """Whether d(1, u) < eps and d(u a, b) < eps for some u, searched over a
    finite set that holds such a u whenever one exists.

    A finite group: every element.  The dyadic group, eps >= 2^-e: the
    points that are 0 from bit e + 1 on, since cutting u off there moves it
    by at most 2^-(e+2) < eps.  The reals: the multiples of 2^-(K+1) in
    [-1, 1], K the finest exponent of a, b and eps, since the u form an
    open interval with ends at multiples of 2^-K inside (-1/2, 1/2) unless
    eps > 1/2, when u = 0 does."""
    e = eps.denominator.bit_length() - 1
    if group is DYADIC:
        candidates = group.dense_enumeration(e + 1)
    elif group is REAL:
        k = max(e, *(z.payload.denominator.bit_length() - 1 for z in (a, b))) + 1
        candidates = [group.element(Fraction(j, 2**k)) for j in range(-(2**k), 2**k + 1)]
    else:
        candidates = group.dense_enumeration(0)
    one = group.identity()
    return any(
        group.dist(one, u) < eps
        and group.dist(one, group.mul(group.inv(group.mul(u, a)), b)) < eps
        for u in candidates
    )


def deep_enough(fns, probe=None):
    """A grid depth whose points hold the exact points of fns on the whole
    square or on the probe rectangle, so that a brute sweep of that grid
    meets every value class at its first point."""
    depth, period = resolution(fns)
    if probe is not None:
        _, fixed, other = probe.sides()
        if isinstance(other, ClopenSet):
            depth = max(depth, other.depth(), fixed.leading_ones() or 0)
    return depth + period


def side_points(side, depth):
    """The points of a probe side on the depth-``depth`` grid: the point
    itself, or the representatives of a clopen side's cells."""
    if isinstance(side, CantorPoint):
        return (side,)
    return tuple(c.representative() for c in side.cells_at_depth(max(depth, side.depth())))


def brute_uniform_dist(f, g, side):
    group = f.group
    one = group.identity()
    best, witness = Fraction(0), None
    points = grid_points(deep_enough((f, g)))
    for x in points:
        for y in points:
            fv, gv = f.eval(x, y), g.eval(x, y)
            if side == "l":
                d = group.dist(one, group.mul(group.inv(fv), gv))
            else:
                d = group.dist(one, group.mul(gv, group.inv(fv)))
            if d > best:
                best, witness = d, (x, y)
    return best, witness


def brute_ball_membership(q):
    """Ball membership as it was decided before the kernel: eval at every
    point of a grid deep enough for both functions, x-major, stopping at
    the first failing one."""
    group = q.center.group
    one = group.identity()
    points = grid_points(deep_enough((q.center, q.candidate)))
    for x in points:
        for y in points:
            fv, gv = q.center.eval(x, y), q.candidate.eval(x, y)
            if q.side in ("l", "lr"):
                if group.dist(one, group.mul(group.inv(fv), gv)) >= q.eps:
                    return BallResult(False, (x, y))
            if q.side in ("r", "lr"):
                if group.dist(one, group.mul(gv, group.inv(fv))) >= q.eps:
                    return BallResult(False, (x, y))
            if q.side == "rl" and not brute_two_sided(group, fv, gv, q.eps):
                return BallResult(False, (x, y))
    return BallResult(True, None)


def brute_layerwise_dist(f, g, axis, fixed, region):
    group = f.group
    best, witness = Fraction(0), None
    probe = SubbasicNbhd(*((fixed, region) if axis == "x" else (region, fixed)), frozenset())
    for t in side_points(region, deep_enough((f, g), probe)):
        fx, fy = (fixed, t) if axis == "x" else (t, fixed)
        d = group.dist(f.eval(fx, fy), g.eval(fx, fy))
        if d > best:
            best, witness = d, (fx, fy)
    return best, witness


def brute_raw_sup(f, g):
    points = grid_points(deep_enough((f, g)))
    pairs = [(x, y) for x in points for y in points]
    raws = [abs(f.eval(x, y).payload - g.eval(x, y).payload) for x, y in pairs]
    return max(raws), pairs[raws.index(max(raws))]


def brute_tail_containment(pipe, l, start, grid_pts):
    one = pipe.group.identity()
    tol = Fraction(1, 2**l)
    for n in range(start, pipe.n_max + 1):
        if n < l + 1:
            continue
        stages = [pipe.factor_approximator(k).approximant(n) for k in range(l + 1, n + 1)]
        for x in grid_pts:
            for y in grid_pts:
                acc = one
                for g in stages:
                    acc = pipe.group.mul(acc, g.eval(x, y))
                if pipe.group.dist(one, acc) > tol:
                    return False
    return True


def brute_diagonal(pipe, probes, levels):
    """ZerodimPipeline.diagonal evaluated point by point, on a grid deep
    enough for f and every stage table, and on each probe rectangle's
    points of that grid."""
    group, n_max, f = pipe.group, pipe.n_max, pipe.f
    diagonals = [pipe.stage_function(n, n) for n in range(n_max + 1)]
    depth = max(deep_enough((f, *diagonals), p) for p in [None, *probes])
    grid_pts = grid_points(depth)
    rects = [[(x, y) for x in side_points(p.kx, depth) for y in side_points(p.ky, depth)]
             for p in probes]
    results, stage_of_level = [], {}
    for l in levels:
        target = pipe.quantized(l + 1)
        tol, budget = Fraction(1, 2**l), Fraction(4, 2**l)
        level_stage = None
        for probe, pairs in zip(probes, rects):
            sup_at = {}
            for n in range(l, n_max + 1):
                f_ln = pipe.stage_function(l, n)
                sup_at[n] = max(
                    (group.dist(f_ln.eval(x, y), target.eval(x, y)) for x, y in pairs),
                    default=Fraction(0),
                )
            m_l = next(
                (m for m in range(l, n_max + 1) if all(sup_at[n] <= tol for n in range(m, n_max + 1))),
                None,
            )
            witness, final_sup, final_ok, tail_ok = "", Fraction(0), False, False
            if m_l is not None:
                final_ok = True
                for n in range(m_l, n_max + 1):
                    failing = []
                    for x, y in pairs:
                        d = group.dist(f.eval(x, y), diagonals[n].eval(x, y))
                        final_sup = max(final_sup, d)
                        if d >= budget:
                            failing.append((x, y))
                    if failing:
                        final_ok = False
                        witness = f"n={n} ({failing[0][0]},{failing[0][1]})"
                tail_ok = brute_tail_containment(pipe, l, max(m_l, l + 1), grid_pts)
                level_stage = m_l if level_stage is None else max(level_stage, m_l)
            results.append(
                DiagonalLevelResult(
                    l, probe.probe_id, m_l, m_l is not None, final_sup, budget,
                    final_ok, tail_ok, witness,
                )
            )
        stage_of_level[l] = level_stage
    stage_sups = []
    for n in range(n_max + 1):
        pairs = [(x, y) for x in grid_pts for y in grid_pts] + [p for r in rects for p in r]
        sup = max(group.dist(f.eval(x, y), diagonals[n].eval(x, y)) for x, y in pairs)
        stage_sups.append((n, sup))
    passed = all(r.layer_ok and r.final_ok and r.tail_ok for r in results)
    return DiagonalReport(tuple(results), tuple(stage_sups), stage_of_level, passed)


class TestGridValues:
    @given(functions, point_lists, point_lists)
    def test_equals_pointwise_eval(self, f, xs, ys):
        check_classes((f,), xs, ys, GridMemo())

    @given(function_pairs, point_lists)
    def test_shared_memo_keeps_values_apart(self, fg, pts):
        f, g = fg
        memo = GridMemo()
        check_classes((PointwiseProduct(f, g),), pts, OFF_GRID, memo)
        check_classes((f,), pts, OFF_GRID, memo)
        check_classes((g,), OFF_GRID, pts, memo)
        check_classes((f, g), pts, pts, memo)

    @given(
        st.sampled_from(POOLS),
        st.sampled_from(FAMILY_PREFIXES),
        st.booleans(),
        st.sampled_from(OFF_GRID + (CantorPoint.parse("(0)"), CantorPoint.parse("10(1)"))),
    )
    def test_diagonal_reads_each_axis_once(self, pool, prefixes, ones, y):
        # The class build reads the axis key of every x and every y once,
        # however many points share the row or column.
        if ones:
            identity = pool[0].group.identity()
            f = OnesDiagonal((identity,), prefix=tuple(pool[: len(prefixes)]))
        else:
            f = CylinderDiagonal(tuple(zip(map(Cylinder, prefixes), pool)))
        calls = []
        axis_key = f.axis_key
        object.__setattr__(f, "axis_key", lambda p: calls.append(p) or axis_key(p))
        xs, ys = grid_points(3), (y,) + OFF_GRID
        memo = GridMemo()
        classes = memo.classes((f,), xs, ys)
        assert len(calls) == len(xs) + len(ys)
        check_classes((f,), xs, ys, memo)
        assert memo.classes((f,), xs, ys) is classes

    def test_values_computed_once_per_memo(self):
        # axis_key runs once per point per memo: a second class list over the
        # same points, with a table that deepens the cells, reuses the keys.
        f = OnesDiagonal(tuple(POOLS[0][1:3]))
        calls = []
        axis_key = f.axis_key
        object.__setattr__(f, "axis_key", lambda p: calls.append(p) or axis_key(p))
        memo = GridMemo()
        pts = memo.exact_points((f, OnesDiagonal(tuple(POOLS[0][:2]))))
        assert memo.exact_points((f,)) is pts
        table = TableFunction(1, ((POOLS[0][0],) * 2,) * 2)
        assert memo.classes((f,), pts, pts) is memo.classes((f,), pts, pts)
        assert memo.classes((f, table), pts, pts).depth == 1
        assert len(calls) == len(pts)

    def test_equal_values_share_a_class(self):
        # The schedule repeats 1(0) and 01(0) as separate objects; classes
        # key on values, so the exact points, 1^k 0^w for k in [0, 4], have
        # three: the identity off the diagonal blocks, and one per value on
        # them.
        f = parse_function("diag ones 1(0),01(0),1(0),01(0)", DYADIC, CONFIGS)
        memo = GridMemo()
        pts = memo.exact_points((f,))
        assert pts == tuple(CantorPoint("1" * k) for k in range(5))
        assert len(memo.classes((f,), pts, pts).firsts) == 3
        check_classes((f,), pts, pts, memo)


def raw_diff(a, b):
    return abs(a.payload - b.payload)


def brute_sup(op, f, g, xs, ys):
    """max of op over xs x ys with the first point, x-major, attaining it."""
    best, witness = Fraction(0), None
    for x in xs:
        for y in ys:
            v = op(f.eval(x, y), g.eval(x, y))
            if witness is None or v > best:
                best, witness = v, (x, y)
    return best, witness


# Element sets on which uniform distances are read through left invariance.
INVARIANCE_SETS = (
    DYADIC.dense_enumeration(4) + (DYADIC.parse_element("(1)"), DYADIC.parse_element("1(10)")),
    REAL.dense_enumeration(3) + REAL_POOL,
    C3.dense_enumeration(0),
    get_group("cyclic:5").dense_enumeration(0),
    S3.dense_enumeration(0),
    S3_LEFT.dense_enumeration(0),
)
small_rects = st.lists(st.sampled_from(grid_points(2) + OFF_GRID), max_size=5).map(tuple)
# Small point lists, full grids of depth 0-3, probe rectangles with a
# singleton side and empty rectangles.
rectangles = st.one_of(st.tuples(small_rects, small_rects), st.integers(0, 3).flatmap(_rectangles))
sweep_pairs = st.sampled_from(POOLS).flatmap(
    lambda pool: st.one_of(st.tuples(_functions(pool), _functions(pool)), _sweep_pairs(pool))
)
real_sweep_pairs = st.one_of(
    st.tuples(_table(REAL_POOL), _table(REAL_POOL)), _sweep_pairs(REAL_POOL)
)


class TestKernel:
    @pytest.mark.parametrize(
        "elements", INVARIANCE_SETS, ids=lambda els: els[0].group.name
    )
    def test_left_invariance_identities(self, elements):
        group = elements[0].group
        one, inv, mul, dist = group.identity(), group.inv, group.mul, group.dist
        for f in elements:
            for g in elements:
                assert dist(one, mul(inv(f), g)) == dist(f, g)
                assert dist(one, mul(g, inv(f))) == dist(inv(g), inv(f))

    def test_pairwise_runs_each_op_once_per_distinct_pair(self):
        a, b, c = POOLS[0][:3]
        twin = DYADIC.element(a.payload)  # equal to a, another object
        memo = GridMemo()
        calls = {"mul": [], "dist": []}

        def counted(name, op):
            return lambda x, y: calls[name].append((x, y)) or op(x, y)

        mul, dist = counted("mul", DYADIC.mul), counted("dist", DYADIC.dist)
        sweeps = [([a, b, a, a, c], [b, b, b, c, c]), ([c, twin, a, b], [c, b, b, a])]
        for left, right in sweeps:
            assert memo.pairwise(mul, left, right) == list(map(DYADIC.mul, left, right))
        # twin is a's value, so its pairs share a's entries.
        pairs = {(x, y) for left, right in sweeps for x, y in zip(left, right)}
        assert len(calls["mul"]) == len(pairs) == 5
        # A second op on the same lists has a table of its own.
        for left, right in sweeps:
            assert memo.pairwise(dist, left, right) == list(map(DYADIC.dist, left, right))
        assert len(calls["dist"]) == len(pairs)
        assert len(calls["mul"]) == len(pairs)

    @pytest.mark.parametrize("bool_first", [True, False])
    def test_per_op_tables_keep_false_and_zero_apart(self, bool_first):
        # False == Fraction(0), so one table shared by both ops would hand
        # one op's result to the other.
        e = DYADIC.identity()
        memo = GridMemo()
        ops = [(lambda a, b: False, False), (DYADIC.dist, Fraction(0))]
        for op, want in ops if bool_first else ops[::-1]:
            got = memo.pairwise(op, [e], [e])
            assert got == [want] and type(got[0]) is type(want)

    @settings(max_examples=200)
    @given(sweep_pairs, rectangles)
    def test_grid_sup_of_dist_is_the_brute_max(self, fg, rect):
        f, g = fg
        xs, ys = rect
        memo = GridMemo()
        got = grid_sup(f.group.dist, f, g, xs, ys, memo)
        assert got == brute_sup(f.group.dist, f, g, xs, ys)
        if not (xs and ys):
            assert got == (0, None)

    @settings(max_examples=150)
    @given(real_sweep_pairs, rectangles)
    def test_grid_sup_of_raw_difference_is_the_brute_max(self, fg, rect):
        f, g = fg
        xs, ys = rect
        memo = GridMemo()
        # The dist sweep first: both ops then share the memo's classes.
        grid_sup(REAL.dist, f, g, xs, ys, memo)
        assert grid_sup(raw_diff, f, g, xs, ys, memo) == brute_sup(raw_diff, f, g, xs, ys)


ACC_X = SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "acc_x")
ACC_Y = SubbasicNbhd(WHOLE, ALL_ONES, frozenset(), "acc_y")


def with_wrong_factor(f, c):
    """ZerodimPipeline(f, 5) with every stage table of factor 4
    right-multiplied by c."""
    pipe = ZerodimPipeline(f, 5)
    approx = pipe.factor_approximator(4)
    correct, wrong = approx.approximant, {}

    def flipped(n):
        if n not in wrong:
            g = correct(n)
            rows = tuple(tuple(f.group.mul(v, c) for v in row) for row in g.values)
            wrong[n] = TableFunction(g.depth, rows)
        return wrong[n]

    approx.approximant = flipped
    return pipe


class TestSweepsMatchBruteForce:
    @given(function_pairs, st.sampled_from(["l", "r"]))
    def test_uniform_dist_value_and_witness(self, fg, side):
        f, g = fg
        got = uniform_dist(f, g, side)
        assert (got.value, got.witness) == brute_uniform_dist(f, g, side)

    def test_diagonal_on_shipped_config(self):
        exp = load_experiment(CONFIGS / "diag-dyadic.cfg")
        pipe = ZerodimPipeline(exp.function, exp.n_max)
        reference = ZerodimPipeline(exp.function, exp.n_max)
        assert pipe.diagonal(exp.probes, exp.levels) == brute_diagonal(
            reference, exp.probes, exp.levels
        )

    def test_diagonal_with_failing_levels(self):
        # Probes through single family members and off-grid points: nonzero
        # final sups, levels without a stage m(l) and failed tail checks.
        f = OnesDiagonal(tuple(POOLS[0][1:4]))
        whole = ClopenSet.whole()
        probes = [
            SubbasicNbhd(p, whole, frozenset(), f"x{p}") for p in OFF_GRID
        ] + [SubbasicNbhd(whole, p, frozenset(), f"y{p}") for p in OFF_GRID]
        levels = [1, 2, 3, 4]
        rep = ZerodimPipeline(f, 4).diagonal(probes, levels)
        assert not rep.passed
        assert any(r.m_l is None for r in rep.results)
        assert any(r.final_sup > 0 for r in rep.results)
        assert rep == brute_diagonal(ZerodimPipeline(f, 4), probes, levels)

    def test_diagonal_with_a_wrong_late_factor(self):
        # The injected-factor control of test_zerodim: factor 4's stage tables
        # multiplied by A fail the level-3 final budget at every point of each
        # probe; the witness is the first of them, x-major, at the last
        # failing stage.
        a, b, c = (DYADIC.parse_element(t) for t in ["1(0)", "01(0)", "001(0)"])
        f = OnesDiagonal((a, b, c))
        probes = [ACC_X, SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset(), "zero_x"), ACC_Y]
        rep = with_wrong_factor(f, a).diagonal(probes, [3])
        assert rep == brute_diagonal(with_wrong_factor(f, a), probes, [3])
        assert [r.witness for r in rep.results] == [
            "n=5 ((1),(0))", "n=5 ((0),(0))", "n=5 ((0),(1))"
        ]

    @pytest.mark.parametrize("label, tail_ok", [("s", [1, 1, 1]), ("r", [1, 0, 0])])
    def test_tail_identity_on_a_left_invariant_metric(self, label, tail_ok):
        # The diagonal reads the tail's distance from 1 as d(f_{l,n}, f_{n,n}),
        # which left invariance alone gives.  With factor 4 times s the tail
        # sup is 1/8 (the other order, f_{n,n} f_{l,n}^-1, is 1/2 and fails);
        # times r it is 1/2 and fails levels 2 and 3.
        r, s, sr = (S3_LEFT.parse_element(t) for t in ("r", "s", "sr"))
        f = OnesDiagonal((r, s, sr))
        c, probes, levels = S3_LEFT.parse_element(label), [ACC_X, ACC_Y], [1, 2, 3]
        rep = with_wrong_factor(f, c).diagonal(probes, levels)
        assert rep == brute_diagonal(with_wrong_factor(f, c), probes, levels)
        assert [int(row.tail_ok) for row in rep.results] == [ok for ok in tail_ok for _ in probes]


class TestTwoSidedMember:
    @pytest.mark.parametrize("pool", POOLS + (REAL_POOL + (REAL.parse_element("63/2^7"),),),
                             ids=lambda pool: pool[0].group.name)
    def test_closed_form_is_the_brute_search(self, pool):
        group = pool[0].group
        for eps in (Fraction(m, 2**e) for m in range(1, 8) for e in range(6)):
            for a, b in product(pool, repeat=2):
                assert group.two_sided_member(a, b, eps) == brute_two_sided(group, a, b, eps), (a, b, eps)

    def test_no_grid_gap_in_the_real_ball(self):
        # 63/2^7 = 63/2^8 + 63/2^8 with |63/2^8| < 1/4, so const 63/2^7 lies
        # in the two-sided 1/4-ball around const 0, though no multiple of
        # 2^-7 lies strictly between 31/2^7 and 32/2^7, so a search over
        # those multiples alone misses it.
        f, g = Constant(REAL.parse_element("0")), Constant(REAL.parse_element("63/2^7"))
        q = BallQuery(f, g, "rl", Fraction(1, 4))
        assert ball_membership(q) == brute_ball_membership(q) == BallResult(True, None)
        assert not ball_membership(BallQuery(f, g, "lr", Fraction(1, 4))).member


class TestUniformChecksMatchBruteForce:
    @settings(max_examples=150)
    @given(
        st.one_of(function_pairs, perturbed_pairs),
        st.sampled_from(["l", "r", "lr", "rl"]),
        st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 4)]),
    )
    def test_ball_membership_member_and_witness(self, fg, side, eps):
        q = BallQuery(*fg, side, eps)
        assert ball_membership(q) == brute_ball_membership(q)

    @settings(max_examples=100)
    @given(
        st.one_of(
            st.sampled_from(POOLS[:2]).flatmap(
                lambda pool: st.tuples(_functions(pool), _functions(pool))
            ),
            st.tuples(_table(REAL_POOL), _table(REAL_POOL)),
        ),
        st.integers(1, 7),
        st.integers(0, 5),
    )
    def test_rl_ball_membership_over_dyadic_radii(self, fg, m, e):
        # eps = m / 2^e runs past 1, where the ball is the whole group, and
        # past 1/2, where the reals' interval test gives way to membership.
        q = BallQuery(*fg, "rl", Fraction(m, 2**e))
        assert ball_membership(q) == brute_ball_membership(q)

    def test_ball_sides_apart_on_a_left_invariant_metric(self):
        # f^-1 g = s everywhere, so g is in the l-ball; g f^-1 is the
        # reflection r s r^-1 on [1] x [1], so it is not in the r-ball.
        r, s = (S3_LEFT.parse_element(t) for t in ("r", "s"))
        f = CylinderDiagonal(((Cylinder("1"), r),))
        g = PointwiseProduct(f, Constant(s))
        got = {}
        for side in ("l", "r", "lr", "rl"):
            q = BallQuery(f, g, side, Fraction(1, 4))
            got[side] = ball_membership(q)
            assert got[side] == brute_ball_membership(q)
        assert got["l"].member and got["rl"].member
        assert not got["r"].member and got["lr"].witness == got["r"].witness
        assert got["r"].witness == grid_points(2)[2:3] * 2

    @given(
        function_pairs,
        st.sampled_from(["x", "y"]),
        st.sampled_from(OFF_GRID + grid_points(2)),
        st.sampled_from(REGIONS),
    )
    def test_layerwise_dist_value_and_witness(self, fg, axis, fixed, region):
        # The layer-wise distance is an exact sup over the section rectangle.
        f, g = fg
        probe = SubbasicNbhd(*((fixed, region) if axis == "x" else (region, fixed)), frozenset())
        value, witness = exact_sup(f.group.dist, f, g, GridMemo(), probe)
        got = (value, witness if value > 0 else None)
        assert got == brute_layerwise_dist(f, g, axis, fixed, region)

    @given(_table(REAL_POOL), _table(REAL_POOL))
    def test_problem3_raw_sup_and_witness(self, f, g):
        rep = problem3_check(f, g, Fraction(1, 2))
        sup_raw, witness = brute_raw_sup(f, g)
        assert rep.sup_raw == sup_raw
        assert rep.witness == (None if sup_raw <= Fraction(1, 2) else witness)


chains = st.sampled_from(POOLS).flatmap(lambda pool: st.lists(_table(pool), min_size=1, max_size=3))


def unfolded_chain(funcs):
    out = funcs[0]
    for f in funcs[1:]:
        out = PointwiseProduct(out, f)
    return out


S3_R, S3_S = S3.parse_element("r"), S3.parse_element("s")


class TestFoldedProducts:
    @settings(max_examples=200)
    @given(chains, st.sampled_from(OFF_GRID + grid_points(2)))
    # r s != s r in S3, so this one catches a fold that multiplies the wrong way round.
    @example([TableFunction(1, ((S3_R, S3_S), (S3_S, S3_R))), TableFunction(0, ((S3_S,),))], OFF_GRID[0])
    def test_folded_chain_equals_the_unfolded_chain(self, funcs, fixed):
        folded, chain = product_chain(funcs, GridMemo()), unfolded_chain(funcs)
        assert isinstance(folded, TableFunction)
        assert folded.depth == max(f.depth for f in funcs)
        points = grid_points(3) + OFF_GRID
        assert brute_values(folded, points, points) == brute_values(chain, points, points)
        for axis in ("x", "y"):
            assert folded.section_partition(axis, fixed) == chain.section_partition(axis, fixed)
        # The folded table holds exactly the values the chain takes.
        held = {v for row in folded.values for v in row}
        assert set(image(folded)) == set(image(chain)) == held
        assert held == set(brute_values(chain, points, points))


class TestWorkCounts:
    def test_diagonal_builds_classes_once_per_point_set_and_folds_once_per_pair(self, monkeypatch):
        exp = load_experiment(CONFIGS / "diag-multi.cfg")
        pipe = ZerodimPipeline(exp.function, exp.n_max)
        for n in range(exp.n_max + 1):
            pipe.factor(n)  # its finite map phi_n multiplies once, before the diagonal
        builds, folds = [], []
        mul_calls = [0]
        build, fold = GridMemo._build_classes, functions_module._table_product
        mul = type(pipe.group).mul

        def counted_build(memo, others, depth, xs, ys):
            # A whole-square sweep of f: its points are one kept tuple.
            if xs is ys and any(v is pipe.f for v in others):
                builds.append((depth, id(xs)))
            return build(memo, others, depth, xs, ys)

        def counted_fold(a, b, memo):
            depth = max(a.depth, b.depth)
            pairs = {
                (a.values[i >> (depth - a.depth)][j >> (depth - a.depth)],
                 b.values[i >> (depth - b.depth)][j >> (depth - b.depth)])
                for i in range(2**depth)
                for j in range(2**depth)
            }
            before = mul_calls[0]
            out = fold(a, b, memo)
            folds.append((len(pairs), mul_calls[0] - before))
            return out

        def counted_mul(group, x, y):
            mul_calls[0] += 1
            return mul(group, x, y)

        monkeypatch.setattr(GridMemo, "_build_classes", counted_build)
        monkeypatch.setattr(functions_module, "_table_product", counted_fold)
        monkeypatch.setattr(type(pipe.group), "mul", counted_mul)
        pipe.diagonal(exp.probes, exp.levels)
        assert builds and len(builds) == len(set(builds))
        assert folds and all(calls <= pairs for pairs, calls in folds)
        # Every mul of the diagonal runs inside a fold, never per point.
        assert mul_calls[0] == sum(calls for _, calls in folds)


class TestConstantProducts:
    @given(constant_products, st.booleans(), st.sampled_from(OFF_GRID + grid_points(2)))
    def test_product_with_constant_is_a_finite_map(self, gc, const_first, fixed):
        # prod(const c, g) is z -> c z of g, and prod(g, const c) is z -> z c.
        g, c = gc
        rects = list(product(CYLINDERS_TO_2, repeat=2))
        # The map is keyed by g's image and by the strays that g's rectangle
        # answers may over-approximate, so it keeps them as the product does.
        mul = g.group.mul
        values = {*image(g), *(w for u, v in rects for w in g.values_on_rect(u, v))}
        if const_first:
            prod = PointwiseProduct(Constant(c), g)
            mapped = PostCompose(g, {z: mul(c, z) for z in values})
        else:
            prod = PointwiseProduct(g, Constant(c))
            mapped = PostCompose(g, {z: mul(z, c) for z in values})
        assert image(prod) == image(mapped)
        for u, v in rects:
            assert prod.values_on_rect(u, v) == mapped.values_on_rect(u, v)
        for axis in ("x", "y"):
            assert prod.section_partition(axis, fixed) == mapped.section_partition(axis, fixed)


# Grid points, then points on no grid: OFF_GRID, (01) and 1^k 0 1^w.
SECTION_SAMPLES = grid_points(3) + OFF_GRID + tuple(
    CantorPoint.parse(t) for t in ["(01)", *(f"{'1' * k}0(1)" for k in range(1, 6))]
)


class TestSectionPartition:
    @settings(max_examples=200)
    @given(
        functions,
        st.sampled_from(SECTION_SAMPLES),
        st.sampled_from(["x", "y"]),
        st.sampled_from(REGIONS),
        st.sampled_from(SECTION_SAMPLES),
    )
    def test_pieces_partition_the_space_keyed_by_eval(self, f, fixed, axis, region, point):
        parts = f.section_partition(axis, fixed)
        total = ClopenSet.empty()
        for piece in parts.values():
            assert not piece.is_empty()
            assert total.intersect(piece).is_empty()
            total = total.union(piece)
        assert total.is_whole()
        assert set(parts) <= set(image(f))
        sides = (fixed, region) if axis == "x" else (region, fixed)
        probe = SubbasicNbhd(*sides, frozenset())
        for t in SECTION_SAMPLES:
            assert parts[f.eval(*probe.point(t))].contains(t)
        pieces = probe.pieces(f)
        assert all(not piece.is_empty() and piece.is_subset_of(region) for piece in pieces.values())
        for t in SECTION_SAMPLES:
            if region.contains(t):
                assert pieces[f.eval(*probe.point(t))].contains(t)
        # A point K: its one value keys the whole section preimage.  With
        # both sides points, x is the fixed side.
        z = f.eval(fixed, point)
        pieces = SubbasicNbhd(fixed, point, frozenset()).pieces(f)
        assert pieces == {z: f.section_partition("x", fixed)[z]}


class TestChecksDecidedOnce:
    @settings(max_examples=100)
    @given(functions, st.integers(0, 3), st.integers(0, 2))
    def test_cond2_bounds_the_pointwise_rate(self, f, n_max, depth):
        # cond2_sup is a max over the image, which holds every value
        # f takes, so no point, on the grid or off it, is farther.
        pipe = ZerodimPipeline(f, n_max)
        rows = pipe.condition_rows()
        points = grid_points(depth) + OFF_GRID
        for n in range(n_max + 1):
            f_n = pipe.quantized(n)
            sup = max(f.group.dist(f_n.eval(x, y), f.eval(x, y)) for x in points for y in points)
            assert sup <= rows[n].cond2_sup <= Fraction(1, 2**n) and rows[n].cond2_ok

    @settings(max_examples=100)
    @given(functions, st.integers(0, 3))
    def test_cond3_is_the_previous_factor_discreteness(self, f, n_max):
        pipe = ZerodimPipeline(f, n_max)
        rows = pipe.condition_rows()
        group = f.group
        assert len(rows) == n_max + 2 and rows[0].cond3
        for n in range(1, n_max + 2):
            prev, cur = pipe.tower[n - 1], pipe.tower[n]
            net = set(pipe.nets[n - 1].elements)
            direct = all(group.mul(group.inv(prev[z]), cur[z]) in net for z in pipe.sample)
            assert rows[n].cond3 == pipe.factor_discreteness(n - 1) == direct

    @settings(max_examples=100)
    @given(real_sweep_pairs)
    def test_problem3_group_metric_sup_is_the_brute_sup(self, fg):
        f, g = fg
        assume(deep_enough(fg) <= 5)  # the brute sweep is pointwise
        points = grid_points(deep_enough(fg))
        rep = problem3_check(f, g)
        assert rep.sup_group_metric == brute_sup(REAL.dist, f, g, points, points)[0]


# Every cylinder of depth <= 4, and per cylinder those inside it.
RECT_PREFIXES = tuple(format(i, f"0{n}b") if n else "" for n in range(5) for i in range(2**n))
INSIDE = {a: tuple(b for b in RECT_PREFIXES if b.startswith(a)) for a in RECT_PREFIXES}


class TestMonotoneValuesOnRect:
    @given(functions)
    def test_singleton_verdict_holds_on_sub_rectangles(self, f):
        # The contract the discrete engine copies strip verdicts on: a
        # singleton answer on u x v (depth <= 3) is the same singleton on
        # every nonempty sub-rectangle, down to depth 4.
        values = {
            (a, b): f.values_on_rect(Cylinder(a), Cylinder(b))
            for a in RECT_PREFIXES
            for b in RECT_PREFIXES
        }
        for (a, b), vals in values.items():
            if len(vals) == 1 and len(a) <= 3 and len(b) <= 3:
                for sub_a in INSIDE[a]:
                    for sub_b in INSIDE[b]:
                        assert values[sub_a, sub_b] == vals, (a, b, sub_a, sub_b)


# Points off every exact point set of the trees above: 1^w, (01),
# 1^k 0 1^w, and 1^k 0^w past the corner points for k <= 12.
OFF_EXACT = (
    ALL_ONES,
    CantorPoint.parse("(01)"),
    *(CantorPoint("1" * k + "0", "1") for k in range(6)),
    *(CantorPoint("1" * k) for k in range(13)),
)
# Fixed points whose matched block lies past every grid below.
DEEP_FIXED = tuple(CantorPoint.parse(t) for t in ["11111111111111111111(0)",
                                                  "111111111111111111110(1)",
                                                  "11111111111111111111(01)"])


def probe_of(axis, fixed, region):
    return SubbasicNbhd(*((fixed, region) if axis == "x" else (region, fixed)), frozenset())


class TestExactPoints:
    """A sup over ``GridMemo.exact_points`` is the sup over the whole side:
    it equals the sup over a grid P + 3 levels deeper (the kernel there,
    which ``TestKernel`` checks against pointwise evaluation) and bounds
    every point off the grids."""

    @settings(max_examples=100)
    @given(function_pairs)
    def test_square_sup_is_the_deep_grid_sup(self, fg):
        f, g = fg
        depth, period = resolution(fg)
        assume(depth + period + 3 <= 9)
        got = exact_sup(f.group.dist, f, g, GridMemo())
        deep = grid_points(depth + period + 3)
        assert got == grid_sup(f.group.dist, f, g, deep, deep, GridMemo())
        for x, y in product(OFF_EXACT, repeat=2):
            assert got[0] >= f.group.dist(f.eval(x, y), g.eval(x, y))

    @settings(max_examples=150)
    @given(
        function_pairs,
        st.sampled_from(["x", "y"]),
        # 111(0) is matched on the all-ones cylinder [111] of {10,111}.
        st.sampled_from(OFF_GRID + grid_points(2) + (CantorPoint("111"),)),
        st.sampled_from(REGIONS),
    )
    def test_probe_sup_is_the_deep_grid_sup(self, fg, axis, fixed, region):
        f, g = fg
        probe = probe_of(axis, fixed, region)
        depth = deep_enough(fg, probe) + 3
        assume(depth <= 9)
        got = exact_sup(f.group.dist, f, g, GridMemo(), probe)
        ts = side_points(region, depth)
        xs, ys = ((fixed,), ts) if axis == "x" else (ts, (fixed,))
        assert got == grid_sup(f.group.dist, f, g, xs, ys, GridMemo())
        for t in OFF_EXACT:
            if region.contains(t):
                fv, gv = f.eval(*probe.point(t)), g.eval(*probe.point(t))
                assert got[0] >= f.group.dist(fv, gv)

    @given(
        function_pairs,
        st.sampled_from(["x", "y"]),
        st.sampled_from(DEEP_FIXED),
        st.sampled_from(REGIONS),
    )
    def test_sup_at_twenty_leading_ones_is_the_section_sup(self, fg, axis, fixed, region):
        # The matched block of a fixed point 1^20 0 ... lies below every
        # cell the grids reach; 1^20 0^w, added to the other side, meets it.
        f, g = fg
        depth, period = resolution(fg)
        probe = probe_of(axis, fixed, region)
        got = exact_sup(f.group.dist, f, g, GridMemo(), probe)[0]
        near = (CantorPoint("1" * k) for k in range(18, 23))
        ts = [t for t in (*side_points(region, depth + period + 3), *near, ALL_ONES)
              if region.contains(t)]
        brute = max((f.group.dist(f.eval(*probe.point(t)), g.eval(*probe.point(t))) for t in ts),
                    default=Fraction(0))
        assert got == brute

    def test_matched_block_of_a_deep_fixed_point(self):
        # diag ones 1(0) against the identity: a grid of depth 6 misses the
        # value at (1^9 0^w, 1^9 0^w); the exact points hold it.
        f, e = parse_function("diag ones 1(0)", DYADIC, CONFIGS), Constant(DYADIC.identity())
        fixed = CantorPoint("1" * 9)
        ys = GridMemo().exact_points((f, e), WHOLE, fixed)
        assert ys == tuple(CantorPoint("1" * k) for k in (0, 1, 9))
        assert grid_sup(DYADIC.dist, f, e, (fixed,), grid_points(6), GridMemo())[0] == 0
        assert exact_sup(DYADIC.dist, f, e, GridMemo(), probe_of("x", fixed, WHOLE)) == (
            Fraction(1, 2), (fixed, fixed)
        )
        # On the all-ones cylinder [111] the fixed point 111(0) is matched at
        # 111(0) only; 1111(0) meets the rest of the cylinder.
        x, a = CantorPoint("111"), Constant(DYADIC.parse_element("1(0)"))
        probe = probe_of("x", x, ClopenSet.parse("{111}"))
        assert exact_sup(DYADIC.dist, f, a, GridMemo(), probe) == (
            Fraction(1, 2), (x, CantorPoint("1111"))
        )

    def test_points_follow_the_cylinders_of_a_side(self):
        # !{0^20} is 20 cylinders 0^i 1: one point each, and 11(0) off the
        # matched block of the all-ones cylinder [1], where its cells at
        # depth 20 would be 2^20 - 1.
        f, side = OnesDiagonal((POOLS[0][1],)), ClopenSet.parse("!{" + "0" * 20 + "}")
        pts = GridMemo().exact_points((f,), side, CantorPoint(""))
        cells = tuple(CantorPoint("0" * i + "1") for i in reversed(range(20)))
        assert pts == cells + (CantorPoint("11"),)

    def test_one_tuple_per_point_set(self):
        # Two pairs with one resolution (D, P) = (2, 2) share the tuple, so
        # the class lists over it are found again; so do two probe sides.
        a, b = POOLS[0][1:3]
        f, g = OnesDiagonal((a, b)), CylinderDiagonal(((Cylinder("01"), a),))
        h = TableFunction(2, ((b,) * 4,) * 4)
        memo = GridMemo()
        pts = memo.exact_points((f, g))
        assert memo.exact_points((g, f)) is pts and memo.exact_points((h, f)) is pts
        classes = memo.classes((f, g), pts, pts)
        assert memo.classes((f, g), *[memo.exact_points((g, f))] * 2) is classes
        region = ClopenSet.parse("{1}")
        side = memo.exact_points((f, g), region, ALL_ONES)
        assert memo.exact_points((h, f), region, ALL_ONES) is side
        assert memo.exact_points((f,), ALL_ONES) is memo.exact_points((g,), ALL_ONES) == (ALL_ONES,)

    def test_a_leaf_without_a_resolution_is_a_config_error(self):
        class Opaque(SepFunction):
            """A leaf of no kind the point sets know."""

        leaf = PointwiseProduct(OnesDiagonal((POOLS[0][1],)), Opaque())
        with pytest.raises(ConfigError, match="no exact point set for a Opaque leaf"):
            GridMemo().exact_points((leaf,))


# Points on no grid: 1^w, (01), and 1^k 0 1^w and 1^k 0^w for k <= 12.
OFF_IMAGE = (
    ALL_ONES,
    CantorPoint.parse("(01)"),
    *(CantorPoint("1" * k + "0", "1") for k in range(13)),
    *(CantorPoint("1" * k) for k in range(13)),
)


def subtrees(f):
    """f and every combinator below it, root first."""
    kids = [getattr(f, name) for name in ("inner", "left", "right") if hasattr(f, name)]
    return [f, *(t for kid in kids for t in subtrees(kid))]


class TestImage:
    """``image`` is f(X x Y) itself: the values on a grid P + 3 levels
    deeper (the kernel there) and at points off every grid, no more."""

    @settings(max_examples=100)
    @given(function_pairs)
    def test_image_is_every_value_taken(self, fg):
        f, g = fg
        depth, period = resolution((f,))
        assume(depth + period + 3 <= 9)
        deep, memo = grid_points(depth + period + 3), GridMemo()
        taken = {*f.class_values(memo.classes((f,), deep, deep), memo),
                 *brute_values(f, OFF_IMAGE, OFF_IMAGE)}
        got = image(f)
        assert got == tuple(f.group.sort_canonically(taken))
        mul, inv = f.group.mul, f.group.inv
        for t in subtrees(f):
            if isinstance(t, PointwiseProduct):
                assert set(image(t)) <= {mul(a, b) for a in image(t.left) for b in image(t.right)}
            elif isinstance(t, PointwiseInverse):
                assert set(image(t)) == set(map(inv, image(t.inner)))
            elif isinstance(t, PostCompose):
                assert set(image(t)) == {t.mapping[z] for z in image(t.inner)}
        # A memo that already holds g's and every subtree's points and
        # classes gives the same image.
        shared = GridMemo()
        for h in (g, *subtrees(f)[::-1]):
            image(h, shared)
        assert image(f, shared) == got
