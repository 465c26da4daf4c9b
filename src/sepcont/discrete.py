"""Approximation engine for separately continuous functions with finite
discrete image.

From f it builds locally constant (hence jointly continuous) table
functions g_n and certifies layer-wise convergence through an explicit
finite stage.  The image filtration is f's image f(X x Y) in canonical
order (``image``): level n holds its first n + 1 elements.  Every per-cell
fact is an integer bit mask: at working depth d, cell u_i of one side is
bit i and the cell pair (i, j) is bit i * 2^d + j.  The patches of g_n only
grow with n, so one stage table per working depth keeps, per value, their
union through each stage; ``approximant(n)`` and every certificate stage
read it.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple

from sepcont.cantor import CantorPoint, Cylinder, basis_cylinder, basis_index, partition_at_depth
from sepcont.config import depth_cap
from sepcont.errors import RefinementExhaustedError
from sepcont.functions import GridMemo, SepFunction, SubbasicNbhd, TableFunction, image, in_subbasic
from sepcont.groups import GroupElement


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ConvergenceCertificate(NamedTuple):
    """Stage m, the target set it covers and the exact per-stage verification."""

    target_values: tuple[GroupElement, ...]
    m: int
    checks: tuple[tuple[int, bool, str], ...]  # (n, member, witness text)
    passed: bool


class _StageTable:
    """The patches of one working depth d, as far as asked: ``cover[r][k]``
    masks the rectangles X(z,k') x V_k' and V_k' x Y(z,k'), k' <= k, of the
    r-th value z.  A pair (k, z) enters at stage max(k, rank of z, the depth's
    first stage), so g_n paints cover[r][n] with the r-th value for r <= n."""

    def __init__(self, d: int, cells: list[Cylinder], f: SepFunction, image: tuple[GroupElement, ...]):
        self.d, self.cells, self.f, self.image = d, cells, f, image
        self.cover: list[list[int]] = [[] for _ in image]
        self._bases = (16,) * (d // 2) + (4,) * (d % 2)
        self._stages: dict[int, tuple[list[int], int]] = {}
        self._limit: dict[int, GroupElement] = {}

    def spread(self, line: int) -> int:
        """Bit i of ``line`` moved to bit i * 2^d: cell u_i as the pair (i, 0).
        Read as digits in base 16 (or 4), the bits move to 4i (or 2i)."""
        for base in self._bases:
            line = int(format(line, "b"), base)
        return line

    def add(self, strips: tuple[list[int], list[int]], cols: int) -> None:
        """Extend the covers by V_k's strips, ``cols`` masking its depth-d cells:
        an x strip R adds R x V_k and a y strip C adds V_k x C, one product each."""
        rows = self.spread(cols)
        for cover, x, y in zip(self.cover, *strips):
            rects = (cols * self.spread(x) if x else 0) | y * rows
            cover.append(cover[-1] | rects if cover else rects)

    def stage(self, n: int) -> tuple[list[int], int]:
        """Per rank, the cells g_n paints with that value, and their union.  A cell
        painted twice raises: the first row-major, its values in filtration order."""
        if n not in self._stages:
            masks = [cover[n] if r <= n else 0 for r, cover in enumerate(self.cover)]
            seen = clash = 0
            for m in masks:
                clash |= seen & m
                seen |= m
            if clash:
                c = next(_bits(clash))
                u, v = (self.cells[i].prefix for i in divmod(c, 1 << self.d))
                names = [str(z) for z, m in zip(self.image, masks) if m >> c & 1]
                raise RefinementExhaustedError(f"cell {u} x {v} meets patches of {names} "
                                               f"at depth {self.d}")
            self._stages[n] = masks, seen
        return self._stages[n]

    def limit(self, c: int) -> GroupElement:
        """f at cell c's limit representatives, worked out once per cell."""
        if c not in self._limit:
            u, v = (self.cells[i].limit_representative() for i in divmod(c, 1 << self.d))
            self._limit[c] = self.f.eval(u, v)
        return self._limit[c]

    def function(self, n: int) -> TableFunction:
        """g_n as a table: each painted cell's value, f at the cell's limit
        representatives on the others."""
        masks, painted = self.stage(n)
        size = 1 << self.d
        values: list = [None] * (size * size)
        for z, m in zip(self.image, masks):
            for c in _bits(m):
                values[c] = z
        for c in _bits((1 << size * size) - 1 & ~painted):
            values[c] = self.limit(c)
        rows = (tuple(values[i : i + size]) for i in range(0, size * size, size))
        return TableFunction(self.d, tuple(rows))


class DiscreteApproximator:
    """Builds and caches the locally constant approximants of one function.
    ``memo`` is the one ``image`` reads; a fresh memo gives the same engine."""

    def __init__(self, f: SepFunction, memo: GridMemo | None = None):
        self.f = f
        self.group = f.group
        self.image = image(f, memo)
        self._rank = {z: r for r, z in enumerate(self.image)}
        self._partitions: dict[int, list[Cylinder]] = {}
        self._strips: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        self._tables: dict[int, _StageTable] = {}
        self._gn_cache: dict[int, TableFunction] = {}

    def working_depth(self, n: int) -> int:
        """Max basis-cylinder depth through index n (at least 1).

        Basis cylinder k has depth floor(log2(k + 1)), so the max over k <= n
        is floor(log2(n + 1)).  At this depth every cell is contained in or
        disjoint from each strip rectangle, so a cell meets at most one patch;
        the patches are disjoint because f is single-valued.
        """
        return (n + 1).bit_length() - 1 or 1

    def _partition(self, d: int) -> list[Cylinder]:
        """The depth-d cells, made once per depth."""
        if d not in self._partitions:
            self._partitions[d] = partition_at_depth(d)
        return self._partitions[d]

    def strips(self, k: int, d: int) -> tuple[list[int], list[int]]:
        """Per side (x, then y) and image rank r, the mask of the depth-d cells
        u on which f is certified constant at the r-th value: on u x V_k (x
        side) or V_k x u (y side).  Each cell is asked at most once: verdicts
        certified on the coarser cell are copied first (bit i at depth d - 1,
        read in base 4 and tripled, is bits 2i and 2i + 1 here), then, for the
        cells still open, those on V_{(k-1)//2} x u (u x V_{(k-1)//2})."""
        key = (k, d)
        if key not in self._strips:
            coarse = self._strips.get((k, d - 1))
            wide = self.strips((k - 1) // 2, d) if k else None
            cells, ask, full = self._partition(d), self.f.constant_value_on, (1 << (1 << d)) - 1
            out = []
            for side in (0, 1):
                masks = [0] * len(self.image)
                if coarse:
                    masks = [int(format(m, "b"), 4) * 3 for m in coarse[side]]
                taken = reduce(or_, masks)
                if wide and taken != full:
                    masks = [m | w & ~taken for m, w in zip(masks, wide[side])]
                    taken = reduce(or_, masks)
                if taken != full:
                    v = basis_cylinder(k)
                for i in _bits(full & ~taken):
                    z = ask(cells[i], v) if side == 0 else ask(v, cells[i])
                    r = self._rank.get(z)  # type: ignore[arg-type]
                    if r is not None:
                        masks[r] |= 1 << i
                out.append(masks)
            self._strips[key] = out[0], out[1]
        return self._strips[key]

    def _table(self, n: int) -> _StageTable:
        """The stage table of n's working depth, its covers through stage n."""
        d = self.working_depth(n)
        table = self._tables.get(d)
        if table is None:
            cap = depth_cap()
            if d > cap:
                raise RefinementExhaustedError(
                    f"working depth {d} exceeds cap {cap} (set SEPCONT_MAX_DEPTH to raise)"
                )
            table = self._tables[d] = _StageTable(d, self._partition(d), self.f, self.image)
        for k in range(len(table.cover[0]), n + 1):
            # V_k is cell k + 1 - 2^l at depth l <= d, so 2^(d-l) cells here.
            l = (k + 1).bit_length() - 1
            w = 1 << (d - l)
            table.add(self.strips(k, d), ((1 << w) - 1) << ((k + 1 - (1 << l)) * w))
        return table

    def approximant(self, n: int) -> TableFunction:
        """g_n: constant z on cells meeting the z-patch, f at the cell's
        limit representative elsewhere; locally constant by construction."""
        if n not in self._gn_cache:
            self._gn_cache[n] = self._table(n).function(n)
        return self._gn_cache[n]

    def memberships(self, probe: SubbasicNbhd, stages: Iterable[int]) -> list[bool]:
        """Whether g_n lies in ``probe``, for each n in ``stages``.

        Each working depth's table is extended once, through the last stage
        asked there.  The probe is read as two masks: the cells it meets, and
        those of them unpainted at the depth's smallest stage asked whose
        limit value is outside U.  Each stage is then a few ANDs."""
        stages = list(stages)
        depths = [self.working_depth(n) for n in stages]
        axis, fixed, other = probe.sides()
        off = [r for r, z in enumerate(self.image) if z not in probe.allowed]
        reads: dict[int, tuple] = {}
        out = []
        for n, d in zip(stages, depths):
            if d not in reads:
                asked = [s for s, e in zip(stages, depths) if e == d]
                table = self._table(max(asked))
                # The fixed point's row (axis 'x') or column, at the cells of
                # K shifted to depth d.
                if isinstance(other, CantorPoint):
                    line = 1 << int(other.prefix(d), 2)
                else:
                    depth, cells = other.own_cells
                    if depth >= d:
                        line = reduce(or_, (1 << (j >> (depth - d)) for j in cells), 0)
                    else:
                        w = 1 << (d - depth)
                        line = reduce(or_, (((1 << w) - 1) << (j * w) for j in cells), 0)
                i = int(fixed.prefix(d), 2)
                q = line << (i << d) if axis == "x" else table.spread(line) << i
                # Stage n is checked first: a clash raises for the first stage asked.
                table.stage(n)
                unpainted = q & ~table.stage(min(asked))[1]
                bad = sum(1 << c for c in _bits(unpainted) if table.limit(c) not in probe.allowed)
                reads[d] = table.stage, q, bad
            stage, q, bad = reads[d]
            masks, painted = stage(n)
            outside = bad & ~painted
            for r in off:
                outside |= masks[r]
            out.append(not q & outside)
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
