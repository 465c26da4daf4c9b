"""Approximation engine for separately continuous functions with finite
discrete image.

From f it builds locally constant (hence jointly continuous) table
functions g_n and certifies layer-wise convergence through an explicit
finite stage.  The image filtration is f's image f(X x Y) in canonical
order (``image``): level n holds its first n + 1 elements.  At working
depth d, cell u_i of one side has index i.

The paper's g_n paints each depth-d cell pair that meets the z-patch with
z and takes f at the cell pair's limit representatives elsewhere.  A cell
pair is only painted with the one value f takes on all of it, which is
also f's value at its limit representatives, so the painting changes no
value: g_n is f at the limit representatives of the depth-d cells, one
table per working depth, which ``approximant(n)`` returns.  A certificate
reads each working depth once too: one verdict on the probe's line of the
table, and for a failing depth one witness, shared by all its stages.  The
tests keep the painted construction as the reference.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from sepcont.cantor import CantorPoint, basis_index
from sepcont.functions import SepFunction, SubbasicNbhd, TableFunction, image, in_subbasic
from sepcont.groups import GroupElement


class ConvergenceCertificate(NamedTuple):
    """Stage m, the target set it covers and the exact per-stage verification."""

    target_values: tuple[GroupElement, ...]
    m: int
    checks: tuple[tuple[int, bool, str], ...]  # (n, member, witness text)
    passed: bool


@lru_cache(maxsize=None)
def _limit_points(d: int) -> tuple[CantorPoint, ...]:
    """The limit representatives of the depth-d cells, in cell-index order:
    each cell's prefix followed by its own last bit forever, so the all-ones
    cell gives the all-ones point, which a zero tail would never reach.
    Each engine builds a depth's table once, so the tuple is kept only for
    the next engine that reads the depth."""
    prefixes = [format(i, f"0{d}b") for i in range(1 << d)] if d else [""]
    return tuple(CantorPoint(s, s[-1:] or "0") for s in prefixes)


class DiscreteApproximator:
    """Builds and caches the locally constant approximants of one function."""

    def __init__(self, f: SepFunction):
        self.f = f
        self.image = image(f)
        self._tables: dict[int, TableFunction] = {}

    def working_depth(self, n: int) -> int:
        """Max basis-cylinder depth through index n (at least 1).

        Basis cylinder k has depth floor(log2(k + 1)), so the max over k <= n
        is floor(log2(n + 1)).  At this depth every cell is contained in or
        disjoint from each strip rectangle, so a cell meets at most one patch;
        the patches are disjoint because f is single-valued.
        """
        return (n + 1).bit_length() - 1 or 1

    def _table(self, d: int) -> TableFunction:
        """f at the limit representatives of the depth-d cells, one
        ``grid_values`` call per depth."""
        if d not in self._tables:
            pts, size = _limit_points(d), 1 << d
            values = self.f.grid_values(pts, pts)
            rows = (tuple(values[i : i + size]) for i in range(0, size * size, size))
            self._tables[d] = TableFunction(d, tuple(rows))
        return self._tables[d]

    def approximant(self, n: int) -> TableFunction:
        """g_n: constant z on cells meeting the z-patch, f at the cell's
        limit representative elsewhere, which is the table of n's working
        depth; locally constant by construction."""
        return self._table(self.working_depth(n))

    def certificate(self, nbhd: SubbasicNbhd, n_max: int) -> ConvergenceCertificate:
        """Stage recipe: per target value z, cover K ∩ section^-1(z) by basis
        cylinders inside the preimage; m caps the filtration entry of the
        target set and all cover indices; then verify membership exactly for
        every n in [m, n_max].  The target set W = f(K_X x K_Y) and the
        pieces to cover are the probe's ``pieces`` of f; one walk over the
        image, in canonical order, gives W, the filtration entries and the
        covers.

        Each working depth d of [m, n_max] is read once, on the probe's line
        of the table: the cells of K shifted to depth d, in the fixed
        point's row (axis 'x') or column.  The depth passes when each of
        them has its value in W; when it fails, one ``in_subbasic`` witness
        on g_n whole, which every stage of the depth shares.  Depth d >= 2
        holds stages 2^d - 1 .. 2^(d+1) - 2, and depth 1 also stage 0."""
        pieces = nbhd.pieces(self.f)
        w, m = [], 0
        for index, z in enumerate(self.image):
            if z in pieces:
                w.append(z)
                m = max(m, index, basis_index(pieces[z].prefixes()[-1]))
        top = self.working_depth(n_max) if m <= n_max else 0
        axis, fixed, other = nbhd.sides()
        # K's cells at its own depth: a point's one cell at depth top (0 at top 0).
        if isinstance(other, CantorPoint):
            depth, cells = top, [int("0" + other.prefix(top), 2)]
        else:
            depth = other.depth()
            cells = other.cell_indices(depth)
        checks: list[tuple[int, bool, str]] = []
        passed = True
        for d in range(self.working_depth(m), top + 1):
            if depth >= d:
                js = {j >> (depth - d) for j in cells}
            else:
                width = 1 << (d - depth)
                js = [c for j in cells for c in range(j * width, (j + 1) * width)]
            i, rows = int(fixed.prefix(d), 2), self._table(d).values
            line = map(rows[i].__getitem__, js) if axis == "x" else (rows[j][i] for j in js)
            member = all(map(pieces.__contains__, line))
            first, note = max(m, (1 << d) - 1 if d > 1 else 0), ""
            if not member:
                probe = SubbasicNbhd(nbhd.kx, nbhd.ky, frozenset(w), nbhd.probe_id)
                res = in_subbasic(self.approximant(first), probe)
                note = "({},{})->{}".format(*res.witness)  # type: ignore[misc]
                passed = False
            checks += [(n, member, note) for n in range(first, min(n_max, (2 << d) - 2) + 1)]
        return ConvergenceCertificate(tuple(w), m, tuple(checks), passed)
