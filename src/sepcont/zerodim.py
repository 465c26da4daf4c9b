"""Approximation engine for zero-dimensional image: quantizer tower over
refining image covers, factor functions with net-valued image, per-factor
delegation to the discrete engine, and the diagonal sequence with its
exact error budget.

Conventions (recorded in every run manifest): cover level n has cell
diameter <= 2^-(n+1); net(k) is the greedy maximal 2^-(k+2)-separated
subset of B[2^-k]; the quantizer step n -> n+1 draws its increment from
net(n).  The image sample is f's declared image, a finite superset of
f(X x Y), so each quantizer r_n is one finite map on it and every check
below is exact at every point.  The quantizer conditions certified per
level n are

* (1) the quantizer is constant on each cover cell (by representation);
* (2) sup over the image sample of d(r_n(z), z) <= 2^-n, exactly;
* (3) r_n(z) lies in r_{n-1}(z) * net(n-1) for every sampled z, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from sepcont.errors import (
    CoverConstructionError,
    NetMaximalityError,
    QuantizerConditionError,
)
from sepcont.functions import (
    Constant,
    DistResult,
    GridMemo,
    PostCompose,
    SepFunction,
    SubbasicNbhd,
    grid_sup,
    product_chain,
    side_sample,
    uniform_dist,
)
from sepcont.discrete import DiscreteApproximator, ImageFiltration
from sepcont.groups import GroupElement, GroupSpec, SeparatedNet, ball_net


@dataclass(frozen=True)
class ImageCover:
    """Disjoint partition of the image sample into cells of diameter <= 2^-(level+1)."""

    level: int
    cells: tuple[tuple[GroupElement, ...], ...]

    def cell_index_of(self, z: GroupElement) -> int:
        for i, cell in enumerate(self.cells):
            if z in cell:
                return i
        raise KeyError(f"{z} not in any cover cell")

    def diameter_bound(self) -> Fraction:
        return Fraction(1, 2 ** (self.level + 1))

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


@dataclass(frozen=True)
class Quantizer:
    """Locally constant map on the image sample: one value per cover cell."""

    level: int
    cover: ImageCover
    values: tuple[GroupElement, ...]

    @cached_property
    def mapping(self) -> dict[GroupElement, GroupElement]:
        """r_n as one finite map: every sample point to its cell's value."""
        return {z: v for cell, v in zip(self.cover.cells, self.values) for z in cell}


def build_quantizer_tower(
    group: GroupSpec,
    covers: list[ImageCover],
    nets: list[SeparatedNet],
) -> list[Quantizer]:
    """Inductive construction: r_0 is identically the group identity; the
    step n -> n+1 picks, per child cell, the canonical-first sample point
    z', checks g_W^-1 z' lands in B[2^-n], and multiplies g_W by the nearest
    net(n) element (ties by canonical order, required distance < 2^-(n+2))."""
    one = group.identity()
    tower = [Quantizer(0, covers[0], (one,) * len(covers[0].cells))]
    for n in range(len(covers) - 1):
        prev = tower[n]
        child = covers[n + 1]
        values = []
        for cell in child.cells:
            z_child = cell[0]
            g_w = prev.mapping[z_child]
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
            values.append(group.mul(g_w, eps))
        tower.append(Quantizer(n + 1, child, tuple(values)))
    return tower


@dataclass(frozen=True)
class ConditionRow:
    level: int
    cond1: bool
    cond2_sup: Fraction
    cond2_bound: Fraction
    cond2_ok: bool
    cond3: bool


def quantizer_conditions(
    group: GroupSpec,
    sample: tuple[GroupElement, ...],
    tower: list[Quantizer],
    nets: list[SeparatedNet],
) -> list[ConditionRow]:
    rows = []
    for n, q in enumerate(tower):
        cond1 = True  # one stored value per cell: constant by representation
        sup = max((group.dist(q.mapping[z], z) for z in sample), default=Fraction(0))
        bound = Fraction(1, 2**n)
        cond3 = True
        if n >= 1:
            prev = tower[n - 1]
            net_elements = set(nets[n - 1].elements)
            for z in sample:
                eps = group.mul(group.inv(prev.mapping[z]), q.mapping[z])
                if eps not in net_elements:
                    cond3 = False
                    break
        rows.append(ConditionRow(n, cond1, sup, bound, sup <= bound, cond3))
    return rows


@dataclass(frozen=True)
class DiagonalLevelResult:
    level_l: int
    probe_id: str
    m_l: int | None
    layer_ok: bool
    final_sup: Fraction
    budget: Fraction
    final_ok: bool
    tail_ok: bool
    witness: str


@dataclass(frozen=True)
class DiagonalReport:
    results: tuple[DiagonalLevelResult, ...]
    stage_sups: tuple[tuple[int, Fraction], ...]
    stage_of_level: dict[int, int | None]
    passed: bool


class ZerodimPipeline:
    """End-to-end construction for one function: sample (f's declared
    image), covers, nets, quantizer tower, factors, and the diagonal sequence."""

    def __init__(self, f: SepFunction, n_max: int, grid_depth: int = 6):
        self.f = f
        self.group = f.group
        self.n_max = n_max
        self.grid_depth = grid_depth
        self._memo = GridMemo(self.group)
        self.sample = tuple(self.group.sort_canonically(f.declared_image()))
        levels = n_max + 1
        self.covers = build_covers(self.group, self.sample, levels)
        self.nets = [
            ball_net(self.group, k, self.group.net_enumeration_depth(k, self.sample))
            for k in range(levels)
        ]
        self.tower = build_quantizer_tower(self.group, self.covers, self.nets)
        self._factor_cache: dict[int, PostCompose] = {}
        self._approx_cache: dict[int, DiscreteApproximator] = {}
        self._tail_cache: dict[tuple[int, int], bool] = {}
        self._stage_cache: dict[tuple[int, int], SepFunction] = {}

    def condition_rows(self) -> list[ConditionRow]:
        return quantizer_conditions(self.group, self.sample, self.tower, self.nets)

    def quantized(self, n: int) -> SepFunction:
        """f_n = r_n o f."""
        return PostCompose(self.f, self.tower[n].mapping, label=f"r{n}")

    def factor(self, n: int) -> PostCompose:
        """g_n = f_n^-1 * f_{n+1}, built as one finite map of f: g_n = phi_n o f
        with phi_n(z) = r_n(z)^-1 r_{n+1}(z); its image lies in net(n) by construction."""
        if n not in self._factor_cache:
            r_n, r_n1 = self.tower[n].mapping, self.tower[n + 1].mapping
            phi = {z: self.group.mul(self.group.inv(r_n[z]), r_n1[z]) for z in self.sample}
            self._factor_cache[n] = PostCompose(self.f, phi, label=f"g{n}")
        return self._factor_cache[n]

    def uniform_rate(self, n: int) -> DistResult:
        """Grid sup of d(f_n, f); bounded by 2^-n through condition (2)."""
        return uniform_dist(self.quantized(n), self.f, "l", self.grid_depth, self._memo)

    def factor_discreteness(self, n: int) -> bool:
        """g_n takes its values in net(n), exactly: its declared image,
        phi_n of f's, is a superset of every value it takes."""
        return set(self.factor(n).declared_image()) <= set(self.nets[n].elements)

    def telescoping_ok(self) -> bool:
        """g_0 g_1 ... g_n == f_{n+1} as finite maps of f, exactly:
        phi_0(z) ... phi_n(z) = r_{n+1}(z) at every declared value z of f,
        so at every point, not only on a grid."""
        prod = {z: self.group.identity() for z in self.sample}
        for n in range(self.n_max + 1):
            phi = self.factor(n).mapping
            prod = {z: self.group.mul(prod[z], phi[z]) for z in self.sample}
            if prod != self.tower[n + 1].mapping:
                return False
        return True

    def factor_approximator(self, k: int) -> DiscreteApproximator:
        if k not in self._approx_cache:
            self._approx_cache[k] = DiscreteApproximator(
                self.factor(k), ImageFiltration.for_function(self.factor(k))
            )
        return self._approx_cache[k]

    def stage_function(self, n: int, m: int) -> SepFunction:
        """f_{n,m} = g_{0,m} * ... * g_{n,m} (each factor's stage-m approximant),
        folded into one table and kept."""
        if (n, m) not in self._stage_cache:
            self._stage_cache[(n, m)] = product_chain(
                [self.factor_approximator(k).approximant(m) for k in range(n + 1)], self._memo
            )
        return self._stage_cache[(n, m)]

    def diagonal(
        self,
        probes: list[SubbasicNbhd],
        levels: list[int],
    ) -> DiagonalReport:
        """Diagonal budget: per level l and probe, find the first stage m(l)
        from which the partial product f_{l,n} stays within 2^-l of its limit
        g_0...g_l = f_{l+1} on the probe rectangle, then certify
        d(f, f_{n,n}) < 2^-(l-2) there for n >= m(l), and the tail-product
        containment in B[2^-l] at every grid point."""
        n_max = self.n_max
        memo = self._memo
        dist = self.group.dist
        results = []
        stage_of_level: dict[int, int | None] = {}
        sides = [
            (side_sample(p.kx, self.grid_depth), side_sample(p.ky, self.grid_depth))
            for p in probes
        ]
        diagonals = [self.stage_function(n, n) for n in range(n_max + 1)]
        for l in levels:
            if l + 1 > self.n_max + 1:
                raise ValueError(f"level {l} needs factors up to {l}; raise n_max")
            target = self.quantized(l + 1)
            tol = Fraction(1, 2**l)
            budget = Fraction(4, 2**l)
            level_stage: int | None = None
            for probe, (xs, ys) in zip(probes, sides):
                sup_at = {
                    n: grid_sup(dist, self.stage_function(l, n), target, xs, ys, memo)[0]
                    for n in range(l, n_max + 1)
                }
                m_l = None
                for m in range(l, n_max + 1):
                    if all(sup_at[n] <= tol for n in range(m, n_max + 1)):
                        m_l = m
                        break
                witness = ""
                final_sup = Fraction(0)
                final_ok = tail_ok = False
                if m_l is not None:
                    for n in range(m_l, n_max + 1):
                        sup = grid_sup(dist, self.f, diagonals[n], xs, ys, memo)[0]
                        final_sup = max(final_sup, sup)
                        if sup >= budget:
                            # The witness is the last failing point, x-major:
                            # the first one with both axes reversed.
                            _, (x, y) = grid_sup(
                                lambda a, b: dist(a, b) >= budget,
                                self.f, diagonals[n], xs[::-1], ys[::-1], memo,
                            )
                            witness = f"n={n} ({x},{y})"
                    final_ok = final_sup < budget
                    tail_ok = self._tail_containment(l, max(m_l, l + 1))
                    level_stage = m_l if level_stage is None else max(level_stage, m_l)
                results.append(
                    DiagonalLevelResult(
                        l, probe.probe_id, m_l, m_l is not None, final_sup, budget,
                        final_ok, tail_ok, witness,
                    )
                )
            stage_of_level[l] = level_stage
        rects = [(memo.grid_points(self.grid_depth),) * 2, *sides]
        stage_sups = tuple(
            (n, max(grid_sup(dist, self.f, diag, xs, ys, memo)[0] for xs, ys in rects))
            for n, diag in enumerate(diagonals)
        )
        passed = all(r.layer_ok and r.final_ok and r.tail_ok for r in results)
        return DiagonalReport(tuple(results), stage_sups, stage_of_level, passed)

    def _tail_containment(self, l: int, start: int) -> bool:
        """prod_{k=l+1..n} g_{k,n}(p) stays in B[2^-l] at every grid point,
        exactly.  The result depends on (l, start) alone, so it is memoised."""
        if (l, start) not in self._tail_cache:
            memo = self._memo
            grid = memo.grid_points(self.grid_depth)
            one = Constant(self.group.identity())
            tol = Fraction(1, 2**l)
            ok = True
            for n in range(max(start, l + 1), self.n_max + 1):
                tail = product_chain(
                    [self.factor_approximator(k).approximant(n) for k in range(l + 1, n + 1)], memo
                )
                if grid_sup(self.group.dist, one, tail, grid, grid, memo)[0] > tol:
                    ok = False
                    break
            self._tail_cache[(l, start)] = ok
        return self._tail_cache[(l, start)]
