"""Approximation engine for separately continuous functions with finite
discrete image.

From f it builds locally constant (hence jointly continuous) table
functions g_n and certifies layer-wise convergence through an explicit
finite stage.  The image filtration is the declared image in canonical
order: level n holds its first n + 1 elements.  The strips
X(z,k) = {x : {x} x V_k inside f^-1(z)} are kept as per-cell verdicts of f
on u x V_k (and V_k x u), copied from a certified larger rectangle where
there is one.  The patch rectangles of g_n only grow with n, so one stage
table per working depth records the first stage that paints each cell and
its value; ``approximant(n)`` and every certificate stage read it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from sepcont.cantor import CantorPoint, Cylinder, basis_cylinder, basis_index, partition_at_depth
from sepcont.config import depth_cap
from sepcont.errors import RefinementExhaustedError, UnsupportedStructureError
from sepcont.functions import SepFunction, SubbasicNbhd, TableFunction, in_subbasic
from sepcont.groups import GroupElement

# Per depth-d cell, the image index of the certified constant value of f on
# u x V_k (x side) and on V_k x u (y side), or None.
Strips = tuple[list[int | None], list[int | None]]


class ConvergenceCertificate(NamedTuple):
    """Stage m, the target set it covers and the exact per-stage verification."""

    target_values: tuple[GroupElement, ...]
    m: int
    checks: tuple[tuple[int, bool, str], ...]  # (n, member, witness text)
    passed: bool


class _StageTable:
    """The painting of one working depth d, from its first stage on, as far
    as it has been asked: per cell (i, j), at index i * 2^d + j, the first
    stage that paints it and the value painted, and for a cell painted with
    two values (a clash) the first stage of each value.  Every stage through
    ``through`` is painted and free of clashes."""

    def __init__(self, d: int, first: int, f: SepFunction, reps: list[CantorPoint]):
        self.d, self.first, self.through = d, first, first - 1
        self.f, self.reps = f, reps
        self.stage: list[int | None] = [None] * 4**d
        self.value: list[GroupElement | None] = [None] * 4**d
        self.clashes: dict[int, dict[GroupElement, int]] = {}
        self._limit: dict[int, GroupElement] = {}

    def paint(self, cells, z: GroupElement, s: int) -> None:
        for c in cells:
            if self.stage[c] is None:
                self.stage[c], self.value[c] = s, z
            elif self.value[c] != z:
                stages = self.clashes.setdefault(c, {self.value[c]: self.stage[c]})  # type: ignore[dict-item]
                stages.setdefault(z, s)

    def at(self, c: int, n: int) -> GroupElement:
        """The value of g_n on cell c: the painted value once its stage is
        reached, else f at the cell's limit representatives."""
        s = self.stage[c]
        if s is not None and s <= n:
            return self.value[c]  # type: ignore[return-value]
        if c not in self._limit:
            i, j = divmod(c, 1 << self.d)
            self._limit[c] = self.f.eval(self.reps[i], self.reps[j])
        return self._limit[c]


class DiscreteApproximator:
    """Builds and caches the locally constant approximants of one function."""

    def __init__(self, f: SepFunction):
        if len(f.declared_image()) == 0:
            raise UnsupportedStructureError("function has empty declared image")
        self.f = f
        self.group = f.group
        self.image = tuple(self.group.sort_canonically(f.declared_image()))
        self._rank = {z: r for r, z in enumerate(self.image)}
        self._partitions: dict[int, tuple[list[Cylinder], list[CantorPoint]]] = {}
        self._strips: dict[tuple[int, int], Strips] = {}
        self._tables: dict[int, _StageTable] = {}
        self._gn_cache: dict[int, TableFunction] = {}

    def working_depth(self, n: int) -> int:
        """Max basis-cylinder depth through index n (at least 1).

        Basis cylinder k has depth floor(log2(k + 1)), so the max over k <= n
        is floor(log2(n + 1)).  At this depth every cell is contained in or
        disjoint from each strip rectangle, so a cell meets at most one patch;
        the patches are disjoint because f is single-valued.
        """
        return max(1, (n + 1).bit_length() - 1)

    def _partition(self, d: int) -> tuple[list[Cylinder], list[CantorPoint]]:
        """The depth-d cells and their limit representatives."""
        if d not in self._partitions:
            cells = partition_at_depth(d)
            self._partitions[d] = cells, [u.limit_representative() for u in cells]
        return self._partitions[d]

    def strips(self, k: int, d: int) -> Strips:
        """The x- and y-side verdicts of V_k at depth d, each cell asked at
        most once: a verdict certified on the coarser cell at depth d - 1 or
        on V_{(k-1)//2} x u (u x V_{(k-1)//2}) is copied."""
        key = (k, d)
        if key not in self._strips:
            coarse = self._strips.get((k, d - 1))
            wide = self.strips((k - 1) // 2, d) if k else None
            v = basis_cylinder(k)
            out: Strips = ([], [])
            for i, u in enumerate(self._partition(d)[0]):
                for side, rect in enumerate(((u, v), (v, u))):
                    r = coarse[side][i >> 1] if coarse else None
                    if r is None and wide:
                        r = wide[side][i]
                    if r is None:
                        r = self._rank.get(self.f.constant_value_on(*rect))  # type: ignore[arg-type]
                    out[side].append(r)
            self._strips[key] = out
        return self._strips[key]

    def _paint_stage(self, table: _StageTable, s: int) -> None:
        """Paint the pairs (k, z) that enter at stage s: max(k, index of z)
        is s, or at most s at the depth's first stage.  Past the first stage
        a pair with k < s enters only when z is the image's s-th element."""
        d = table.d
        for k in range(s + 1) if s == table.first or s < len(self.image) else (s,):
            band = basis_cylinder(k).cell_range(d)
            xs, ys = self.strips(k, d)
            for i, r in enumerate(xs):
                if r is not None and max(k, r, table.first) == s:
                    table.paint(((i << d) + j for j in band), self.image[r], s)
            for j, r in enumerate(ys):
                if r is not None and max(k, r, table.first) == s:
                    table.paint(((i << d) + j for i in band), self.image[r], s)

    def _table(self, n: int) -> _StageTable:
        """The stage table of n's working depth, painted through stage n.

        A cell painted with two values by stage n raises: the first such cell
        row-major, with its values in filtration order."""
        d = self.working_depth(n)
        table = self._tables.get(d)
        if table is None:
            cap = depth_cap()
            if d > cap:
                raise RefinementExhaustedError(
                    f"working depth {d} exceeds cap {cap} (set SEPCONT_MAX_DEPTH to raise)"
                )
            first = 0 if d == 1 else 2**d - 1
            table = self._tables[d] = _StageTable(d, first, self.f, self._partition(d)[1])
        if n <= table.through:
            # A cell's values by stage n only grow with n, so a stage below a
            # clash-free one is clash-free too.
            return table
        for s in range(table.through + 1, n + 1):
            self._paint_stage(table, s)
        for c in sorted(table.clashes):
            values = [z for z, s in table.clashes[c].items() if s <= n]
            if len(values) > 1:
                cells = self._partition(d)[0]
                i, j = divmod(c, 1 << d)
                names = [str(z) for z in self.image if z in values]
                raise RefinementExhaustedError(
                    f"cell {cells[i].prefix} x {cells[j].prefix} meets patches of {names} at depth {d}"
                )
        table.through = n
        return table

    def approximant(self, n: int) -> TableFunction:
        """g_n: constant z on cells meeting the z-patch, f at the cell's
        limit representative elsewhere; locally constant by construction."""
        if n not in self._gn_cache:
            table = self._table(n)
            size = 1 << table.d
            rows = tuple(
                tuple(table.at(i * size + j, n) for j in range(size)) for i in range(size)
            )
            self._gn_cache[n] = TableFunction(table.d, rows)
        return self._gn_cache[n]

    @staticmethod
    def _probe_cells(probe: SubbasicNbhd, d: int) -> list[int]:
        """The depth-d cells that the probe rectangle meets: the fixed
        point's row (axis 'x') or column, at K's cells shifted to depth d."""
        axis, fixed, other = probe.sides()
        i = int(fixed.prefix(d), 2)
        if isinstance(other, CantorPoint):
            js = [int(other.prefix(d), 2)]
        else:
            depth, cells = other.own_cells
            if depth >= d:
                js = list(dict.fromkeys(j >> (depth - d) for j in cells))
            else:
                shift = d - depth
                js = [t for j in cells for t in range(j << shift, (j + 1) << shift)]
        return [(i << d) + j for j in js] if axis == "x" else [(j << d) + i for j in js]

    def memberships(self, probe: SubbasicNbhd, stages: Iterable[int]) -> list[bool]:
        """Whether g_n lies in ``probe``, for each n in ``stages``: g_n's
        values on the probe's cells, read off the stage table."""
        cells: dict[int, list[int]] = {}
        out = []
        for n in stages:
            table = self._table(n)
            if table.d not in cells:
                cells[table.d] = self._probe_cells(probe, table.d)
            out.append(all(table.at(c, n) in probe.allowed for c in cells[table.d]))
        return out

    def certificate(self, nbhd: SubbasicNbhd, n_max: int) -> ConvergenceCertificate:
        """Stage recipe: per target value z, cover K ∩ section^-1(z) by basis
        cylinders inside the preimage; m caps the filtration entry of the
        target set and all cover indices; then verify membership exactly for
        every n in [m, n_max].  The target set W = f(K_X x K_Y) and the
        pieces to cover are the probe's ``pieces`` of f.

        Each stage is read off the stage table (``memberships``); only a
        failing stage builds g_n, for ``in_subbasic`` to name its witness."""
        pieces = nbhd.pieces(self.f)
        w = tuple(self.group.sort_canonically(pieces))
        cover = (basis_index(c.prefix) for z in w for c in pieces[z].cylinders())
        m = max((*map(self.image.index, w), *cover), default=0)
        probe = SubbasicNbhd(nbhd.kx, nbhd.ky, frozenset(w), nbhd.probe_id)
        stages = range(m, n_max + 1)
        checks = []
        for n, member in zip(stages, self.memberships(probe, stages)):
            note = ""
            if not member:
                res = in_subbasic(self.approximant(n), probe)
                note = "({},{})->{}".format(*res.witness)  # type: ignore[misc]
            checks.append((n, member, note))
        passed = all(member for _, member, _ in checks)
        return ConvergenceCertificate(w, m, tuple(checks), passed)
