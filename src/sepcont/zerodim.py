"""Approximation engine for zero-dimensional image: quantizer tower over
refining image covers, its net-valued factors as finite maps on f's image,
and the diagonal sequence with its exact error budget, read off f's one
discrete engine.

Conventions (recorded in every run manifest): cover level n has cell
diameter <= 2^-(n+1); net(k) is the greedy maximal 2^-(k+2)-separated
subset of B[2^-k]; the quantizer step n -> n+1 draws its increment from
net(n), whose point nearest to any element each group names in closed
form (``GroupSpec.net_nearest``), so no net is listed.  The image sample
is f's image f(X x Y) itself (``image``), so each quantizer r_n and each
factor phi_n is one finite map on it and every check below is exact at
every point.  The covers are built inside ``build_tower``, only to assign
r_n and phi_n; both ways of building them (``_cover``) give the diameter
by construction, so the exact checks are ``condition_rows``'s cond2 and
cond3 below.  The quantizer conditions per level n are

* (1) the quantizer is constant on each cover cell: its map is built from
  one value per cell, so it holds by construction and is not checked;
* (2) sup over the image sample of d(r_n(z), z) <= 2^-n, exactly;
* (3) r_n(z) lies in r_{n-1}(z) * net(n-1) for every sampled z, exactly:
  r_{n-1}(z) phi_{n-1}(z) = r_n(z) with phi_{n-1}(z) in net(n-1), so the
  factor g_{n-1} = phi_{n-1} o f takes its values in net(n-1).  Since
  r_0 = 1, the rows up to n give phi_0(z) ... phi_{n-1}(z) = r_n(z).

The diagonal sequence f_{n,n} is checked on stage tables alone: each
f_{l,n} = g_{0,n} ... g_{l,n} is r_{l+1} of f's stage-n table T, the tail
g_{l+1,n} ... g_{n,n} = f_{l,n}^-1 f_{n,n} is read through left invariance
as d(f_{l,n}, f_{n,n}), and every sup is a max over the ``value_pairs``
(f(p), T(p)) on the exact points of the whole square or a probe rectangle:
the sup over the rectangle itself, not a grid lower bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from sepcont.functions import (
    DistResult,
    PostCompose,
    SepFunction,
    SubbasicNbhd,
    exact_rectangle,
    exact_sup,
    image,
    pairwise,
    uniform_dist,
    value_pairs,
)
from sepcont.discrete import DiscreteApproximator
from sepcont.groups import GroupElement, GroupSpec


class ConditionRow(NamedTuple):
    level: int
    cond2_sup: Fraction
    cond2_ok: bool
    cond3: bool


class DiagonalLevelResult(NamedTuple):
    level_l: int
    probe_id: str
    m_l: int | None
    layer_ok: bool
    final_sup: Fraction
    budget: Fraction
    final_ok: bool
    tail_ok: bool
    witness: str


class DiagonalReport(NamedTuple):
    results: tuple[DiagonalLevelResult, ...]
    stage_sups: tuple[tuple[int, Fraction], ...]
    stage_of_level: dict[int, int | None]
    passed: bool


def build_tower(sample: tuple, top: int):
    """(tower, factors) on ``sample``, f's image in canonical order, up to
    level ``top``: r_0..r_top and phi_0..phi_{top-1}, each r_{n+1} and
    phi_n one value per level-(n+1) cell (``_cover``).  r_0 is identically
    the group identity; the step n -> n+1 picks, per level-(n+1) cell, its
    canonical-first point z', shifts it to g_W^-1 z' with g_W = r_n(z'),
    and takes the net(n) element eps nearest to that (``net_nearest``):
    phi_n is eps and r_{n+1} is g_W eps on the cell.  A step is checked
    only by ``condition_rows``: a far net point fails a cond2 row, and a
    point outside net(n) a cond3 row."""
    group = sample[0].group
    tower, factors, cells = [dict.fromkeys(sample, group.identity())], [], [list(sample)]
    for n in range(top):
        prev, r, phi = tower[n], {}, {}
        cells = _cover(group, sample, cells, n + 1)
        for cell in cells:
            g_w = prev[cell[0]]
            eps = group.net_nearest(n, group.mul(group.inv(g_w), cell[0]))
            r.update(dict.fromkeys(cell, group.mul(g_w, eps)))
            phi.update(dict.fromkeys(cell, eps))
        tower.append(r)
        factors.append(phi)
    return tower, factors


def _cover(group: GroupSpec, sample: tuple, coarser: list, n: int) -> list[list[GroupElement]]:
    """The level-n cells, each in canonical order and of diameter
    <= 2^-(n+1): the group's ``cover_key`` classes when it has them,
    otherwise each ``coarser`` cell split greedily.  A greedy cell lies in
    one coarser cell; key classes nest when the keys do, and a cell across
    two r_{n-1} values fails condition (3)."""
    if group.cover_key(sample[0], n) is not None:
        by_key: dict[object, list[GroupElement]] = {}
        for z in sample:
            by_key.setdefault(group.cover_key(z, n), []).append(z)
        return list(by_key.values())
    bound = Fraction(1, 2 ** (n + 1))
    cells: list[list[GroupElement]] = []
    for coarse in coarser:
        split: list[list[GroupElement]] = []
        for z in coarse:
            for cell in split:
                if all(group.dist(z, w) <= bound for w in cell):
                    cell.append(z)
                    break
            else:
                split.append([z])
        cells += split
    return cells


def quantize(f: SepFunction, n: int) -> PostCompose:
    """f_n = r_n o f, building the tower up to r_n only."""
    return PostCompose(f, build_tower(image(f), n)[0][n])


class ZerodimPipeline:
    """End-to-end construction for one function: sample (f's image),
    quantizer tower, factors, and the diagonal sequence.  It holds one
    discrete engine, f's, which reads the image once and whose tables
    every stage reads."""

    def __init__(self, f: SepFunction, n_max: int):
        self.f = f
        self.group = f.group
        self.n_max = n_max
        self._engine = DiscreteApproximator(f)
        self.sample = self._engine.image
        self.tower, self.factors = build_tower(self.sample, n_max + 1)

    def condition_rows(self) -> list[ConditionRow]:
        """Conditions (2) and (3) per level of the tower.  Condition (3) at
        level n >= 1 is ``factor_discreteness(n - 1)``."""
        rows = []
        for n, r in enumerate(self.tower):
            sup = max(self.group.dist(r[z], z) for z in self.sample)
            cond3 = n == 0 or self.factor_discreteness(n - 1)
            rows.append(ConditionRow(n, sup, sup <= Fraction(1, 2**n), cond3))
        return rows

    def quantized(self, n: int) -> SepFunction:
        """f_n = r_n o f."""
        return PostCompose(self.f, self.tower[n])

    def uniform_rate(self, n: int) -> DistResult:
        """Sup of d(f_n, f).  Condition (2) bounds d(f_n, f) by 2^-n at
        every point, since every value of f lies in the sample, so the CLI
        does not sweep it; the benchmark's tracer wraps it by name."""
        return uniform_dist(self.quantized(n), self.f, "l")

    def factor_discreteness(self, n: int) -> bool:
        """Condition (3) at level n + 1, exactly: r_n(z) phi_n(z) = r_{n+1}(z)
        and phi_n(z) in net(n) at every value z of f, the sample, so the
        factor g_n = f_n^-1 f_{n+1} = phi_n o f takes its values in net(n)
        at every point.  One ``mul`` per distinct (r_n(z), phi_n(z)); a
        distinct value e of phi_n is in net(n) when it is its own nearest
        point there."""
        group, r, phi, nxt = self.group, self.tower[n], self.factors[n], self.tower[n + 1]
        products = pairwise(group.mul, map(r.__getitem__, self.sample),
                            map(phi.__getitem__, self.sample))
        return (all(p == nxt[z] for z, p in zip(self.sample, products))
                and all(group.net_nearest(n, e) is e for e in dict.fromkeys(phi.values())))

    def stage_function(self, n: int, m: int) -> SepFunction:
        """f_{n,m} = g_{0,m} * ... * g_{n,m}, each factor's stage-m approximant,
        as r_{n+1} of f's stage-m table.  An approximant is its function at
        the limit points of the stage's cells, so g_{k,m} is phi_k of f's
        table, and phi_0(z) ... phi_n(z) = r_{n+1}(z), which the cond3 rows
        of ``condition_rows`` give."""
        return PostCompose(self._engine.approximant(m), self.tower[n + 1])

    def diagonal(self, probes: list[SubbasicNbhd], levels: list[int]) -> DiagonalReport:
        """Diagonal budget, read off the stage tables.  Per level l and probe,
        m(l) is the stage from which the partial product f_{l,n} stays within
        2^-l of its limit g_0...g_l = f_{l+1} on the probe rectangle; from
        m(l) on, d(f, f_{n,n}) < 2^-(l-2) must hold there, and the tail
        g_{l+1,n}...g_{n,n} must lie in B[2^-l] at every point.  The tail
        is f_{l,n}^-1 f_{n,n} and the metric is left-invariant, so its
        distance from 1 is d(f_{l,n}, f_{n,n}).  At p, with z = f(p) and
        t = T(p) for f's table T at n's working depth, f_{l,n}(p) = r_{l+1}(t)
        and f_{l+1}(p) = r_{l+1}(z).  So each sup is a max over the distinct
        pairs (z, t) on the square (rectangle 0) or a probe's, on the exact
        points of f and the deepest table: d(z, r_{n+1}(t)) for the final
        budgets and stage sups, d(r_{l+1}(t), r_{n+1}(t)) for the tail and
        d(r_{l+1}(t), r_{l+1}(z)) for m(l), read at the last stage of each
        depth.  f is lowered once per rectangle, the pairs are kept per
        rectangle and depth, and each distance is taken once per call."""
        n_max, dist, tower, engine = self.n_max, self.group.dist, self.tower, self._engine
        for l in levels:
            if l > n_max:
                raise ValueError(f"level {l} needs factors up to {l}; raise n_max")
        deepest, kept, dists, zero = engine.approximant(n_max), {}, {}, Fraction(0)
        rects = [exact_rectangle((self.f, deepest), probe) for probe in (None, *probes)]
        f_values = [self.f.grid_values(*rect) for rect in rects]

        def pairs(i: int, n: int) -> tuple[tuple, tuple]:
            key = (i, engine.working_depth(n))
            if key not in kept:
                found = value_pairs(f_values[i], engine.approximant(n).grid_values(*rects[i]))
                kept[key] = tuple(zip(*found)) or ((), ())
            return kept[key]

        def r(k: int, values: tuple) -> Iterable[GroupElement]:
            return map(tower[k].__getitem__, values)

        def sup(left: Iterable[GroupElement], right: Iterable[GroupElement]) -> Fraction:
            keys = list(zip(left, right))
            for key in set(keys).difference(dists):
                dists[key] = dist(*key)
            return max(map(dists.__getitem__, keys), default=zero)

        final = [[sup(pairs(i, n)[0], r(n + 1, pairs(i, n)[1])) for n in range(n_max + 1)]
                 for i in range(len(rects))]
        results = []
        stage_of_level: dict[int, int | None] = {}
        for l in levels:
            tol, budget = Fraction(1, 2**l), Fraction(4, 2**l)
            last = {self._engine.working_depth(n): n for n in range(l, n_max + 1)}.values()
            tail_from = _settled_from(
                ((n, sup(r(l + 1, pairs(0, n)[1]), r(n + 1, pairs(0, n)[1])))
                 for n in range(l + 1, n_max + 1)), tol, l,
            )
            settled = []
            for i, probe in enumerate(probes, 1):
                m = _settled_from(
                    ((n, sup(r(l + 1, pairs(i, n)[1]), r(l + 1, pairs(i, n)[0])))
                     for n in last), tol, l,
                )
                m_l = m if m <= n_max else None
                witness, final_sup, final_ok, tail_ok = "", Fraction(0), False, False
                if m_l is not None:
                    settled.append(m_l)
                    final_sup = max(final[i][m_l:])
                    final_ok, tail_ok = final_sup < budget, tail_from <= m_l
                    failing = [n for n in range(m_l, n_max + 1) if final[i][n] >= budget]
                    if failing:
                        # The witness is the first failing point, x-major, of
                        # the last failing stage.
                        _, (x, y) = exact_sup(
                            lambda a, b: dist(a, b) >= budget,
                            self.f, self.stage_function(failing[-1], failing[-1]), probe,
                        )
                        witness = f"n={failing[-1]} ({x},{y})"
                results.append(DiagonalLevelResult(
                    l, probe.probe_id, m_l, m_l is not None, final_sup, budget, final_ok, tail_ok,
                    witness,
                ))
            stage_of_level[l] = max(settled, default=None)
        passed = all(row.layer_ok and row.final_ok and row.tail_ok for row in results)
        return DiagonalReport(tuple(results), tuple(enumerate(final[0])), stage_of_level, passed)


def _settled_from(sups: Iterable[tuple[int, Fraction]], tol: Fraction, start: int) -> int:
    """The first stage from which every listed sup is <= tol: the stage after
    the last one outside tol, or ``start`` when none is."""
    return max((n + 1 for n, sup in sups if sup > tol), default=start)
