"""Approximation engine for separately continuous functions with finite
discrete image.

From f it builds locally constant (hence jointly continuous) table
functions g_n and certifies layer-wise convergence through an explicit
finite stage: strips X(z,k) = {x : {x} x V_k inside f^-1(z)} computed as
exact clopen under-approximations at a working depth, patch regions
assembled from strips, and a per-neighbourhood certificate stage m with
exact membership verification from m on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from sepcont.cantor import (
    ClopenSet,
    Cylinder,
    basis_cylinder,
    basis_index,
    partition_at_depth,
)
from sepcont.config import depth_cap
from sepcont.errors import RefinementExhaustedError, UnsupportedStructureError
from sepcont.functions import (
    SepFunction,
    SubbasicNbhd,
    TableFunction,
    in_subbasic,
)
from sepcont.groups import GroupElement


@dataclass(frozen=True)
class ImageFiltration:
    """Nondecreasing finite sets exhausting the declared image: level n is
    the first n+1-delay elements in canonical order (empty before delay)."""

    elements: tuple[GroupElement, ...]
    delay: int = 0

    @staticmethod
    def for_function(f: SepFunction, delay: int = 0) -> "ImageFiltration":
        return ImageFiltration(tuple(f.group.sort_canonically(f.declared_image())), delay)

    def level(self, n: int) -> tuple[GroupElement, ...]:
        return self.elements[: max(0, n + 1 - self.delay)]

    def entry_index(self, z: GroupElement) -> int:
        return self.elements.index(z) + self.delay

    def entry_index_of_set(self, values: Iterable[GroupElement]) -> int:
        return max((self.entry_index(z) for z in values), default=0)


@dataclass(frozen=True)
class StripSets:
    """x/y strips at scale k: clopen sets whose product with the k-th basis
    cylinder lies inside f^-1(z), certified structurally cell by cell."""

    z: GroupElement
    k: int
    x_strip: ClopenSet
    y_strip: ClopenSet


@dataclass(frozen=True)
class ClosedPatch:
    """Union of strip rectangles inside f^-1(z), assembled over k <= n."""

    z: GroupElement
    n: int
    rects: tuple[tuple[ClopenSet, ClopenSet], ...]

    def is_empty(self) -> bool:
        return not self.rects

    def meets_cell(self, u: Cylinder, v: Cylinder) -> bool:
        cu, cv = ClopenSet.from_cylinder(u), ClopenSet.from_cylinder(v)
        return any(
            not cu.intersect(a).is_empty() and not cv.intersect(b).is_empty()
            for a, b in self.rects
        )

    def intersects(self, other: "ClosedPatch") -> bool:
        return any(
            not a1.intersect(a2).is_empty() and not b1.intersect(b2).is_empty()
            for a1, b1 in self.rects
            for a2, b2 in other.rects
        )


StripCells = tuple[dict[GroupElement, list[int]], dict[GroupElement, list[int]]]


def strip_cells(f: SepFunction, k: int, working_depth: int) -> StripCells:
    """The indices of the depth-D cells u grouped by the certified constant
    value of f on u x V_k (x side) and on V_k x u (y side); uncertified cells
    are left out.  One pass serves the strips of every target value z."""
    v = basis_cylinder(k)
    x_cells: dict[GroupElement, list[int]] = {}
    y_cells: dict[GroupElement, list[int]] = {}
    for i, u in enumerate(partition_at_depth(working_depth)):
        cx = f.constant_value_on(u, v)
        if cx is not None:
            x_cells.setdefault(cx, []).append(i)
        cy = f.constant_value_on(v, u)
        if cy is not None:
            y_cells.setdefault(cy, []).append(i)
    return x_cells, y_cells


def strips_from_cells(z: GroupElement, k: int, working_depth: int, cells: StripCells) -> StripSets:
    """A depth-D cell u joins X(z,k) iff f is certified constant z on u x V_k
    (never decided by sampling alone); likewise for the y strip."""
    x_cells, y_cells = cells
    return StripSets(
        z,
        k,
        ClopenSet.from_cells(x_cells.get(z, ()), working_depth),
        ClopenSet.from_cells(y_cells.get(z, ()), working_depth),
    )


def compute_strips(f: SepFunction, z: GroupElement, k: int, working_depth: int) -> StripSets:
    """Strips X(z,k) and Y(z,k) at working depth D."""
    return strips_from_cells(z, k, working_depth, strip_cells(f, k, working_depth))


def build_patch(f: SepFunction, z: GroupElement, n: int, strips: list[StripSets]) -> ClosedPatch:
    rects: list[tuple[ClopenSet, ClopenSet]] = []
    for s in strips:
        v = ClopenSet.from_cylinder(basis_cylinder(s.k))
        if not s.x_strip.is_empty():
            rects.append((s.x_strip, v))
        if not s.y_strip.is_empty():
            rects.append((v, s.y_strip))
    return ClosedPatch(z, n, tuple(rects))


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Stage m plus the data behind it and the exact per-stage verification."""

    nbhd: SubbasicNbhd
    target_values: tuple[GroupElement, ...]
    cover_indices: dict[str, tuple[int, ...]]
    m: int
    checks: tuple[tuple[int, bool, str], ...]  # (n, member, witness text)
    passed: bool


class DiscreteApproximator:
    """Builds and caches the locally constant approximants of one function."""

    def __init__(self, f: SepFunction, filtration: ImageFiltration | None = None):
        if len(f.declared_image()) == 0:
            raise UnsupportedStructureError("function has empty declared image")
        self.f = f
        self.group = f.group
        self.filtration = filtration or ImageFiltration.for_function(f)
        self._cells_cache: dict[tuple[int, int], StripCells] = {}
        self._strip_cache: dict[tuple[GroupElement, int, int], StripSets] = {}
        self._gn_cache: dict[int, TableFunction] = {}

    def working_depth(self, n: int) -> int:
        """Max basis-cylinder depth through index n (at least 1).

        Basis cylinder k has depth floor(log2(k + 1)), so the max over k <= n
        is floor(log2(n + 1)).  At this depth every cell is contained in or
        disjoint from each strip rectangle, so a cell meets at most one patch;
        the patches are disjoint because f is single-valued.
        """
        d = max(1, (n + 1).bit_length() - 1)
        if d > depth_cap():
            raise RefinementExhaustedError(
                f"working depth {d} exceeds cap {depth_cap()} (set SEPCONT_MAX_DEPTH to raise)"
            )
        return d

    def _strip_cells(self, k: int, working_depth: int) -> StripCells:
        key = (k, working_depth)
        if key not in self._cells_cache:
            self._cells_cache[key] = strip_cells(self.f, k, working_depth)
        return self._cells_cache[key]

    def strips(self, z: GroupElement, k: int, working_depth: int) -> StripSets:
        key = (z, k, working_depth)
        if key not in self._strip_cache:
            cells = self._strip_cells(k, working_depth)
            self._strip_cache[key] = strips_from_cells(z, k, working_depth, cells)
        return self._strip_cache[key]

    def patch(self, z: GroupElement, n: int) -> ClosedPatch:
        d = self.working_depth(n)
        return build_patch(self.f, z, n, [self.strips(z, k, d) for k in range(n + 1)])

    def approximant(self, n: int) -> TableFunction:
        """g_n: constant z on cells meeting the z-patch, f at the cell's
        limit representative elsewhere; locally constant by construction.

        Each patch rectangle is a union of depth-d cells: x-strip cells times
        the cells of V_k, or the cells of V_k times y-strip cells.  It is
        painted straight from the cached strip cells; a cell painted with
        two values is an overlap."""
        if n in self._gn_cache:
            return self._gn_cache[n]
        d = self.working_depth(n)
        level = self.filtration.level(n)
        size = 2**d
        grid: list[list[GroupElement | None]] = [[None] * size for _ in range(size)]
        for k in range(n + 1):
            band = basis_cylinder(k).cell_range(d)
            x_cells, y_cells = self._strip_cells(k, d)
            for z in level:
                for rows, columns in ((x_cells.get(z, ()), band), (band, y_cells.get(z, ()))):
                    for i in rows:
                        row = grid[i]
                        for j in columns:
                            if row[j] is None:
                                row[j] = z
                            elif row[j] != z:
                                raise _overlap_error([(w, self.patch(w, n)) for w in level], d)
        reps = [u.limit_representative() for u in partition_at_depth(d)]
        rows = tuple(
            tuple(
                self.f.eval(reps[i], reps[j]) if val is None else val
                for j, val in enumerate(row)
            )
            for i, row in enumerate(grid)
        )
        g = TableFunction(d, rows)
        self._gn_cache[n] = g
        return g

    def target_values(self, nbhd: SubbasicNbhd) -> tuple[GroupElement, ...]:
        """W = f(K_X x K_Y), exact via the section partition on the singleton side."""
        axis = nbhd.singleton_axis()
        fixed = nbhd.kx if axis == "x" else nbhd.ky
        other = nbhd.ky if axis == "x" else nbhd.kx
        parts = self.f.section_partition(axis, fixed)  # type: ignore[arg-type]
        if isinstance(other, ClopenSet):
            vals = [z for z, pre in parts.items() if not other.intersect(pre).is_empty()]
        else:
            vals = [
                self.f.eval(fixed, other) if axis == "x" else self.f.eval(other, fixed)  # type: ignore[arg-type]
            ]
        return tuple(self.group.sort_canonically(set(vals)))

    def certificate(self, nbhd: SubbasicNbhd, n_max: int, grid_depth: int = 6) -> ConvergenceCertificate:
        """Stage recipe: per target value z, cover K ∩ section^-1(z) by basis
        cylinders inside the preimage; m caps the filtration entry of the
        target set and all cover indices; then verify membership exactly for
        every n in [m, n_max]."""
        axis = nbhd.singleton_axis()
        fixed = nbhd.kx if axis == "x" else nbhd.ky
        other = nbhd.ky if axis == "x" else nbhd.kx
        region = other if isinstance(other, ClopenSet) else None
        w = self.target_values(nbhd)
        cover: dict[str, tuple[int, ...]] = {}
        max_index = 0
        for z in w:
            pre = self.f.section_preimage(axis, fixed, z)  # type: ignore[arg-type]
            hit = region.intersect(pre) if region is not None else pre
            indices = tuple(sorted(basis_index(c.prefix) for c in hit.cylinders()))
            cover[str(z)] = indices
            if indices:
                max_index = max(max_index, indices[-1])
        m = max(self.filtration.entry_index_of_set(w), max_index)
        allowed = frozenset(w)
        checks = []
        passed = True
        for n in range(m, n_max + 1):
            probe = SubbasicNbhd(nbhd.kx, nbhd.ky, allowed, nbhd.probe_id)
            res = in_subbasic(self.approximant(n), probe, grid_depth)
            note = ""
            if not res.member:
                passed = False
                wx, wy, val = res.witness  # type: ignore[misc]
                note = f"({wx},{wy})->{val}"
            checks.append((n, res.member, note))
        return ConvergenceCertificate(nbhd, w, cover, m, tuple(checks), passed)

    def patch_soundness(self, n: int, grid_depth: int) -> bool:
        """Every grid point of every patch region evaluates to the patch value."""
        for z in self.filtration.level(n):
            patch = self.patch(z, n)
            for a, b in patch.rects:
                for cu in a.cells_at_depth(max(grid_depth, a.depth())):
                    for cv in b.cells_at_depth(max(grid_depth, b.depth())):
                        if self.f.eval(cu.representative(), cv.representative()) != z:
                            return False
        return True

    def patches_disjoint(self, n: int) -> bool:
        zs = self.filtration.level(n)
        patches = [self.patch(z, n) for z in zs]
        for i in range(len(patches)):
            for j in range(i + 1, len(patches)):
                if patches[i].intersects(patches[j]):
                    return False
        return True


def _overlap_error(patches: list[tuple[GroupElement, ClosedPatch]], d: int) -> RefinementExhaustedError:
    """The error for the first cell, row-major, that meets two patches."""
    cells = partition_at_depth(d)
    for u in cells:
        for v in cells:
            hits = [z for z, p in patches if p.meets_cell(u, v)]
            if len(hits) > 1:
                return RefinementExhaustedError(
                    f"cell {u.prefix} x {v.prefix} meets patches of "
                    f"{[str(h) for h in hits]} at depth {d}"
                )
    raise AssertionError("unreachable: a cell painted twice meets two patches")
