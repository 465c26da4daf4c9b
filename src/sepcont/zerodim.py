"""Approximation engine for zero-dimensional image: quantizer tower over
refining image covers, factor functions with net-valued image, per-factor
delegation to the discrete engine, and the diagonal sequence with its
exact error budget.

Conventions (recorded in every run manifest): cover level n has cell
diameter <= 2^-(n+1); net(k) is the greedy maximal 2^-(k+2)-separated
subset of B[2^-k]; the quantizer step n -> n+1 draws its increment from
net(n).  The image sample is f's image f(X x Y) itself (``image``), so
each quantizer r_n is one finite map on it and every check below is exact
at every point.  The quantizer conditions per level n are

* (1) the quantizer is constant on each cover cell: its map is built from
  one value per cell, so it holds by construction and is not checked;
* (2) sup over the image sample of d(r_n(z), z) <= 2^-n, exactly;
* (3) r_n(z) lies in r_{n-1}(z) * net(n-1) for every sampled z, exactly:
  the factor g_{n-1} takes its values in net(n-1).

The diagonal sequence f_{n,n} is checked on stage tables alone: each
f_{l,n} = g_{0,n} ... g_{l,n} is one folded table, the tail
g_{l+1,n} ... g_{n,n} = f_{l,n}^-1 f_{n,n} is read through left invariance
as d(f_{l,n}, f_{n,n}), and every sup is an ``exact_sup``: the sup over
the whole square or the probe rectangle itself, not a grid lower bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from sepcont.errors import (
    CoverConstructionError,
    NetMaximalityError,
    QuantizerConditionError,
)
from sepcont.functions import (
    DistResult,
    GridMemo,
    PostCompose,
    SepFunction,
    SubbasicNbhd,
    exact_sup,
    image,
    product_chain,
    uniform_dist,
)
from sepcont.discrete import DiscreteApproximator
from sepcont.groups import GroupElement, GroupSpec, SeparatedNet, ball_net


class ImageCover(NamedTuple):
    """Disjoint partition of the image sample into cells of diameter <= 2^-(level+1)."""

    level: int
    cells: tuple[tuple[GroupElement, ...], ...]

    def cell_index_of(self, z: GroupElement) -> int:
        for i, cell in enumerate(self.cells):
            if z in cell:
                return i
        raise KeyError(f"{z} not in any cover cell")

    def max_cell_diameter(self, group: GroupSpec) -> Fraction:
        worst = Fraction(0)
        for cell in self.cells:
            for i in range(len(cell)):
                for j in range(i + 1, len(cell)):
                    worst = max(worst, group.dist(cell[i], cell[j]))
        return worst

    def refines(self, coarser: "ImageCover") -> bool:
        for cell in self.cells:
            parents = {coarser.cell_index_of(z) for z in cell}
            if len(parents) != 1:
                return False
        return True


def _sorted_cells(group: GroupSpec, cells: Iterable[Iterable[GroupElement]]):
    inner = [tuple(group.sort_canonically(c)) for c in cells]
    return tuple(sorted(inner, key=lambda c: group.canonical_key(c[0])))


def _greedy_split(group: GroupSpec, elements, bound: Fraction):
    cells: list[list[GroupElement]] = []
    for z in elements:
        for cell in cells:
            if all(group.dist(z, w) <= bound for w in cell):
                cell.append(z)
                break
        else:
            cells.append([z])
    return cells


def build_covers(group: GroupSpec, sample: tuple[GroupElement, ...], levels: int) -> list[ImageCover]:
    """Covers for levels 0..levels; level 0 is the single whole-sample cell
    (valid because the metric is bounded by 1/2).  Structural prefix classes
    are used when the group provides them; otherwise each cell of the
    previous level is split greedily, which makes refinement automatic."""
    sample = tuple(group.sort_canonically(sample))
    if not sample:
        raise CoverConstructionError("empty image sample")
    covers = [ImageCover(0, (sample,))]
    structural = group.cover_key(sample[0], 0) is not None
    for n in range(1, levels + 1):
        bound = Fraction(1, 2 ** (n + 1))
        if structural:
            by_key: dict[object, list[GroupElement]] = {}
            for z in sample:
                by_key.setdefault(group.cover_key(z, n), []).append(z)
            cells = _sorted_cells(group, by_key.values())
        else:
            split: list[list[GroupElement]] = []
            for prev_cell in covers[n - 1].cells:
                split.extend(_greedy_split(group, prev_cell, bound))
            cells = _sorted_cells(group, split)
        cover = ImageCover(n, cells)
        if cover.max_cell_diameter(group) > bound:
            raise CoverConstructionError(
                f"cover level {n}: cell diameter exceeds {bound}"
            )
        if not cover.refines(covers[n - 1]):
            raise CoverConstructionError(f"cover level {n} does not refine level {n - 1}")
        covers.append(cover)
    return covers


def build_quantizer_tower(
    group: GroupSpec,
    covers: list[ImageCover],
    nets: list[SeparatedNet],
) -> list[dict[GroupElement, GroupElement]]:
    """The maps r_0, r_1, ... on the image sample, each locally constant:
    one value per cover cell.  Inductive construction: r_0 is identically
    the group identity; the step n -> n+1 picks, per child cell, the
    canonical-first sample point z', checks g_W^-1 z' lands in B[2^-n], and
    multiplies g_W by the nearest net(n) element (ties by canonical order,
    required distance < 2^-(n+2))."""
    one = group.identity()
    tower = [{z: one for cell in covers[0].cells for z in cell}]
    for n in range(len(covers) - 1):
        prev = tower[n]
        r: dict[GroupElement, GroupElement] = {}
        for cell in covers[n + 1].cells:
            z_child = cell[0]
            g_w = prev[z_child]
            shifted = group.mul(group.inv(g_w), z_child)
            if group.dist(one, shifted) > Fraction(1, 2**n):
                raise QuantizerConditionError(
                    f"step {n}: shifted cell point outside B[2^-{n}]"
                )
            eps, d = nets[n].nearest(shifted)
            if d >= Fraction(1, 2 ** (n + 2)):
                raise NetMaximalityError(
                    f"step {n}: nearest net element at distance {d} >= 2^-{n + 2}; "
                    f"enumeration depth {nets[n].enumeration_depth} too small"
                )
            r.update(dict.fromkeys(cell, group.mul(g_w, eps)))
        tower.append(r)
    return tower


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


def build_tower(f: SepFunction, top: int, memo: GridMemo | None = None):
    """(sample, covers, nets, tower) for f up to level ``top``: f's image in
    canonical order, covers 0..top, nets 0..top-1 and r_0..r_top.  ``memo``
    is the one ``image`` reads; a fresh memo gives the same tower."""
    group = f.group
    sample = image(f, memo)
    covers = build_covers(group, sample, top)
    nets = [ball_net(group, k, group.net_enumeration_depth(k, sample)) for k in range(top)]
    return sample, covers, nets, build_quantizer_tower(group, covers, nets)


def quantize(f: SepFunction, n: int) -> PostCompose:
    """f_n = r_n o f, building the tower up to r_n only."""
    return PostCompose(f, build_tower(f, n)[3][n])


class ZerodimPipeline:
    """End-to-end construction for one function: sample (f's image), covers,
    nets, quantizer tower, factors, and the diagonal sequence.  One memo
    serves every sweep, the image and the factor engines: a factor phi_n o f
    has f's leaves, so its image maps f's class list."""

    def __init__(self, f: SepFunction, n_max: int):
        self.f = f
        self.group = f.group
        self.n_max = n_max
        self._memo = GridMemo()
        self.sample, self.covers, self.nets, self.tower = build_tower(f, n_max + 1, self._memo)
        self._factor_cache: dict[int, PostCompose] = {}
        self._approx_cache: dict[int, DiscreteApproximator] = {}
        self._stage_cache: dict[tuple[int, int], SepFunction] = {}

    def condition_rows(self) -> list[ConditionRow]:
        """Conditions (2) and (3) per level of the tower.  Condition (3) at
        level n >= 1 is ``factor_discreteness(n - 1)``: r_{n-1}(z)^-1 r_n(z)
        is phi_{n-1}(z)."""
        rows = []
        for n, r in enumerate(self.tower):
            sup = max(self.group.dist(r[z], z) for z in self.sample)
            cond3 = n == 0 or self.factor_discreteness(n - 1)
            rows.append(ConditionRow(n, sup, sup <= Fraction(1, 2**n), cond3))
        return rows

    def quantized(self, n: int) -> SepFunction:
        """f_n = r_n o f."""
        return PostCompose(self.f, self.tower[n])

    def factor(self, n: int) -> PostCompose:
        """g_n = f_n^-1 * f_{n+1}, built as one finite map of f: g_n = phi_n o f
        with phi_n(z) = r_n(z)^-1 r_{n+1}(z); its image lies in net(n) by construction."""
        if n not in self._factor_cache:
            r_n, r_n1 = self.tower[n], self.tower[n + 1]
            phi = {z: self.group.mul(self.group.inv(r_n[z]), r_n1[z]) for z in self.sample}
            self._factor_cache[n] = PostCompose(self.f, phi)
        return self._factor_cache[n]

    def uniform_rate(self, n: int) -> DistResult:
        """Sup of d(f_n, f).  Condition (2) bounds d(f_n, f) by 2^-n at
        every point, since every value of f lies in the sample, so the CLI
        does not sweep it; the benchmark's tracer wraps it by name."""
        return uniform_dist(self.quantized(n), self.f, "l", self._memo)

    def factor_discreteness(self, n: int) -> bool:
        """g_n takes its values in net(n), exactly: they are phi_n of f's
        image, the sample."""
        phi = self.factor(n).mapping
        return {phi[z] for z in self.sample} <= set(self.nets[n].elements)

    def telescoping_ok(self) -> bool:
        """g_0 g_1 ... g_n == f_{n+1} as finite maps of f, exactly:
        phi_0(z) ... phi_n(z) = r_{n+1}(z) at every value z of f,
        so at every point, not only on a grid."""
        prod = {z: self.group.identity() for z in self.sample}
        for n in range(self.n_max + 1):
            phi = self.factor(n).mapping
            prod = {z: self.group.mul(prod[z], phi[z]) for z in self.sample}
            if prod != self.tower[n + 1]:
                return False
        return True

    def factor_approximator(self, k: int) -> DiscreteApproximator:
        if k not in self._approx_cache:
            self._approx_cache[k] = DiscreteApproximator(self.factor(k), self._memo)
        return self._approx_cache[k]

    def stage_function(self, n: int, m: int) -> SepFunction:
        """f_{n,m} = g_{0,m} * ... * g_{n,m} (each factor's stage-m approximant),
        folded into one table and kept."""
        if (n, m) not in self._stage_cache:
            self._stage_cache[(n, m)] = product_chain(
                [self.factor_approximator(k).approximant(m) for k in range(n + 1)], self._memo
            )
        return self._stage_cache[(n, m)]

    def diagonal(self, probes: list[SubbasicNbhd], levels: list[int]) -> DiagonalReport:
        """Diagonal budget, read off the stage tables.  Per level l and probe,
        m(l) is the stage from which the partial product f_{l,n} stays within
        2^-l of its limit g_0...g_l = f_{l+1} on the probe rectangle; from
        m(l) on, d(f, f_{n,n}) < 2^-(l-2) must hold there, and the tail
        g_{l+1,n}...g_{n,n} must lie in B[2^-l] at every point.  The tail
        is f_{l,n}^-1 f_{n,n} and the metric is left-invariant, so its
        distance from 1 is d(f_{l,n}, f_{n,n}).  d(f, f_{n,n}) is swept once
        per probe and stage, for the final budgets, and once per stage over
        the whole square, for the stage sups."""
        n_max, memo, dist = self.n_max, self._memo, self.group.dist
        diagonals = [self.stage_function(n, n) for n in range(n_max + 1)]
        probe_sups = [
            [exact_sup(dist, self.f, diag, memo, probe)[0] for diag in diagonals]
            for probe in probes
        ]
        results = []
        stage_of_level: dict[int, int | None] = {}
        for l in levels:
            if l > n_max:
                raise ValueError(f"level {l} needs factors up to {l}; raise n_max")
            target = self.quantized(l + 1)
            tol, budget = Fraction(1, 2**l), Fraction(4, 2**l)
            tail_from = _settled_from(
                ((n, exact_sup(dist, self.stage_function(l, n), diagonals[n], memo)[0])
                 for n in range(l + 1, n_max + 1)), tol, l,
            )
            settled = []
            for probe, sups in zip(probes, probe_sups):
                m = _settled_from(
                    ((n, exact_sup(dist, self.stage_function(l, n), target, memo, probe)[0])
                     for n in range(l, n_max + 1)), tol, l,
                )
                m_l = m if m <= n_max else None
                witness, final_sup, final_ok, tail_ok = "", Fraction(0), False, False
                if m_l is not None:
                    settled.append(m_l)
                    final_sup = max(sups[m_l:])
                    final_ok, tail_ok = final_sup < budget, tail_from <= m_l
                    failing = [n for n in range(m_l, n_max + 1) if sups[n] >= budget]
                    if failing:
                        # The witness is the first failing point, x-major, of
                        # the last failing stage.
                        _, (x, y) = exact_sup(
                            lambda a, b: dist(a, b) >= budget,
                            self.f, diagonals[failing[-1]], memo, probe,
                        )
                        witness = f"n={failing[-1]} ({x},{y})"
                results.append(DiagonalLevelResult(
                    l, probe.probe_id, m_l, m_l is not None, final_sup, budget, final_ok, tail_ok,
                    witness,
                ))
            stage_of_level[l] = max(settled, default=None)
        # Each probe rectangle lies in the square, so its sups are no larger.
        stage_sups = tuple(enumerate(exact_sup(dist, self.f, diag, memo)[0] for diag in diagonals))
        passed = all(r.layer_ok and r.final_ok and r.tail_ok for r in results)
        return DiagonalReport(tuple(results), stage_sups, stage_of_level, passed)


def _settled_from(sups: Iterable[tuple[int, Fraction]], tol: Fraction, start: int) -> int:
    """The first stage from which every listed sup is <= tol: the stage after
    the last one outside tol, or ``start`` when none is."""
    return max((n + 1 for n, sup in sups if sup > tol), default=start)
