"""Approximation engine for separately continuous functions with finite
discrete image.

From f it builds locally constant (hence jointly continuous) table
functions g_n and certifies layer-wise convergence through an explicit
finite stage: strips X(z,k) = {x : {x} x V_k inside f^-1(z)} recorded as
the indices of the working-depth cells on which f is certified constant z,
patches painted cell by cell from those strips, and a per-neighbourhood
certificate stage m with exact membership verification from m on.  The
image filtration is the declared image in canonical order: level n holds
its first n + 1 elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from sepcont.cantor import (
    CantorPoint,
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


StripCells = tuple[dict[GroupElement, list[int]], dict[GroupElement, list[int]]]


def strip_cells(f: SepFunction, k: int, cells: Sequence[Cylinder]) -> StripCells:
    """The indices of the depth-D cells u (``cells`` is the depth-D
    partition) grouped by the certified constant value of f on u x V_k
    (x side) and on V_k x u (y side); uncertified cells are left out.  The
    x-strip X(z,k) is the union of the x-side cells of z, the y-strip
    Y(z,k) that of the y-side cells.  One pass serves every target value z."""
    v = basis_cylinder(k)
    x_cells: dict[GroupElement, list[int]] = {}
    y_cells: dict[GroupElement, list[int]] = {}
    for i, u in enumerate(cells):
        cx = f.constant_value_on(u, v)
        if cx is not None:
            x_cells.setdefault(cx, []).append(i)
        cy = f.constant_value_on(v, u)
        if cy is not None:
            y_cells.setdefault(cy, []).append(i)
    return x_cells, y_cells


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Stage m, the target set it covers and the exact per-stage verification."""

    target_values: tuple[GroupElement, ...]
    m: int
    checks: tuple[tuple[int, bool, str], ...]  # (n, member, witness text)
    passed: bool


class DiscreteApproximator:
    """Builds and caches the locally constant approximants of one function."""

    def __init__(self, f: SepFunction):
        if len(f.declared_image()) == 0:
            raise UnsupportedStructureError("function has empty declared image")
        self.f = f
        self.group = f.group
        self.image = tuple(self.group.sort_canonically(f.declared_image()))
        self._partitions: dict[int, tuple[list[Cylinder], list[CantorPoint]]] = {}
        self._cells_cache: dict[tuple[int, int], StripCells] = {}
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

    def _partition(self, d: int) -> tuple[list[Cylinder], list[CantorPoint]]:
        """The depth-d cells and their limit representatives."""
        if d not in self._partitions:
            cells = partition_at_depth(d)
            self._partitions[d] = cells, [u.limit_representative() for u in cells]
        return self._partitions[d]

    def _strip_cells(self, k: int, d: int) -> StripCells:
        key = (k, d)
        if key not in self._cells_cache:
            self._cells_cache[key] = strip_cells(self.f, k, self._partition(d)[0])
        return self._cells_cache[key]

    def _rectangles(self, n: int, d: int):
        """The patch rectangles of g_n as (z, rows, columns) of depth-d cell
        indices: the x-strip cells of z times the cells of V_k, and the cells
        of V_k times the y-strip cells of z, for every k <= n and every z in
        filtration level n."""
        level = self.image[: n + 1]
        for k in range(n + 1):
            band = basis_cylinder(k).cell_range(d)
            x_cells, y_cells = self._strip_cells(k, d)
            for z in level:
                yield z, x_cells.get(z, ()), band
                yield z, band, y_cells.get(z, ())

    def approximant(self, n: int) -> TableFunction:
        """g_n: constant z on cells meeting the z-patch, f at the cell's
        limit representative elsewhere; locally constant by construction.

        Every patch rectangle is a union of depth-d cells, so it is painted
        straight from the cached strip cells.  A cell painted with two values
        is an overlap: its painting values are collected, and the first such
        cell row-major is reported with them in filtration order.  A depth-d
        cell meets a patch exactly when the patch paints it."""
        if n in self._gn_cache:
            return self._gn_cache[n]
        d = self.working_depth(n)
        size = 2**d
        grid: list[list[GroupElement | None]] = [[None] * size for _ in range(size)]
        overlaps: dict[tuple[int, int], set[GroupElement]] = {}
        for z, rows, columns in self._rectangles(n, d):
            for i in rows:
                row = grid[i]
                for j in columns:
                    if row[j] is None:
                        row[j] = z
                    elif row[j] != z:
                        overlaps.setdefault((i, j), {row[j]}).add(z)
        cells, reps = self._partition(d)
        if overlaps:
            i, j = min(overlaps)
            names = [str(z) for z in self.image[: n + 1] if z in overlaps[i, j]]
            raise RefinementExhaustedError(
                f"cell {cells[i].prefix} x {cells[j].prefix} meets patches of {names} at depth {d}"
            )
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

    def certificate(self, nbhd: SubbasicNbhd, n_max: int) -> ConvergenceCertificate:
        """Stage recipe: per target value z, cover K ∩ section^-1(z) by basis
        cylinders inside the preimage; m caps the filtration entry of the
        target set and all cover indices; then verify membership exactly for
        every n in [m, n_max].  The target set W = f(K_X x K_Y) and the
        pieces to cover are the probe's ``pieces`` of f."""
        pieces = nbhd.pieces(self.f)
        w = tuple(self.group.sort_canonically(pieces))
        cover = (basis_index(c.prefix) for z in w for c in pieces[z].cylinders())
        m = max((*map(self.image.index, w), *cover), default=0)
        probe = SubbasicNbhd(nbhd.kx, nbhd.ky, frozenset(w), nbhd.probe_id)
        checks = []
        for n in range(m, n_max + 1):
            res = in_subbasic(self.approximant(n), probe)
            note = "" if res.member else "({},{})->{}".format(*res.witness)  # type: ignore[misc]
            checks.append((n, res.member, note))
        passed = all(member for _, member, _ in checks)
        return ConvergenceCertificate(w, m, tuple(checks), passed)
