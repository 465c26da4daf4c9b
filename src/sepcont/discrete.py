"""Approximation engine for separately continuous functions with finite
discrete image.

From f it builds locally constant (hence jointly continuous) table
functions g_n and certifies layer-wise convergence through an explicit
finite stage.  The image filtration is f's image f(X x Y) in canonical
order (``image``): level n holds its first n + 1 elements.  Every per-cell
fact is an integer bit mask: at working depth d, cell u_i of one side is
bit i and the cell pair (i, j) is bit i * 2^d + j.  f's values are read
once per working depth, on exact points (``pairs``): per value, the cell
pairs on which f is that value, and every strip is read off those masks.
The patches of g_n only grow with n, so one stage table per working depth
keeps, per value, their union through each stage; ``approximant(n)`` and
every certificate stage read it.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple

from sepcont.cantor import CantorPoint, Cylinder, basis_index, partition_at_depth
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
    first stage), so g_n paints cover[r][n] with the r-th value for r <= n.
    ``pairs[r]`` masks the cell pairs on which f is the r-th value."""

    def __init__(self, d: int, cells: list[Cylinder], f: SepFunction,
                 image: tuple[GroupElement, ...], pairs: list[int]):
        self.d, self.cells, self.f, self.image, self.pairs = d, cells, f, image, pairs
        self.cover: list[list[int]] = [[] for _ in image]
        self._bases = (16,) * (d // 2) + (4,) * (d % 2)
        self._line = (1 << (1 << d)) - 1  # row 0: the pairs (0, j)
        self._first = self.spread(self._line)  # column 0: the pairs (i, 0)
        self._stages: dict[int, tuple[list[int], int]] = {}
        self._limit: dict[int, GroupElement] = {}

    def spread(self, line: int) -> int:
        """Bit i of ``line`` moved to bit i * 2^d: cell u_i as the pair (i, 0).
        Read as digits in base 16 (or 4), the bits move to 4i (or 2i)."""
        for base in self._bases:
            line = int(format(line, "b"), base)
        return line

    def add(self, cols: int) -> None:
        """Extend the covers by V_k's strips, ``cols`` masking its depth-d
        cells.  Cell u_i is in the x strip of the r-th value when pairs[r]
        covers u_i x V_k, the columns ``cols`` of row i, and in the y strip
        when it covers V_k x u_i, the rows ``cols`` of column i.  The pairs
        of those rectangles that pairs[r] misses are folded onto column 0
        (shifts 1, 2, ..., 2^(d-1) within each row) and onto row 0 (shifts
        2^d, ..., 2^(2d-1) across the rows), so a strip is what is left
        there.  An x strip R adds R x V_k and a y strip C adds V_k x C, one
        product each."""
        d, rows = self.d, self.spread(cols)
        across, down = cols * self._first, rows * self._line
        for cover, pairs in zip(self.cover, self.pairs):
            x_miss, y_miss = across & ~pairs, down & ~pairs
            for s in range(d):
                x_miss |= x_miss >> (1 << s)
                y_miss |= y_miss >> (1 << d + s)
            rects = cols * (self._first & ~x_miss) | (self._line & ~y_miss) * rows
            cover.append(cover[-1] | rects if cover else rects)

    def stage(self, n: int) -> tuple[list[int], int]:
        """Per rank, the cells g_n paints with that value, and their union,
        worked out once per stage.  The masks are disjoint: each patch lies
        where f takes its value."""
        if n not in self._stages:
            masks = [cover[n] if r <= n else 0 for r, cover in enumerate(self.cover)]
            self._stages[n] = masks, reduce(or_, masks)
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
    ``memo`` is the one ``image`` and ``pairs`` read; a fresh memo gives the
    same engine."""

    def __init__(self, f: SepFunction, memo: GridMemo | None = None):
        self.f = f
        self.group = f.group
        self.memo = memo if memo is not None else GridMemo()
        self.image = image(f, self.memo)
        self._rank = {z: r for r, z in enumerate(self.image)}
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

    def pairs(self, d: int) -> list[int]:
        """Per image rank r, the mask of the depth-d cell pairs on which f is
        constant at the r-th value.  The exact points of the square cut at
        depth max(D, d) meet every value class of f on each cell pair, so f
        is constant on a pair exactly when its points there take one value:
        each point pair marks its cell pair with its value's rank, and a
        pair marked by two values is constant at neither."""
        pts = self.memo.exact_points((self.f,), depth=d)
        cells = self.memo.cells(pts, d)
        values = iter(self.f.grid_values(pts, pts, self.memo))
        masks = [0] * len(self.image)
        for i in cells:
            row = i << d
            for j in cells:
                masks[self._rank[next(values)]] |= 1 << row + j
        seen = mixed = 0
        for m in masks:
            mixed |= seen & m
            seen |= m
        return [m & ~mixed for m in masks]

    def _table(self, n: int) -> _StageTable:
        """The stage table of n's working depth, its covers through stage n."""
        d = self.working_depth(n)
        table = self._tables.get(d)
        if table is None:
            table = self._tables[d] = _StageTable(d, partition_at_depth(d), self.f, self.image,
                                                  self.pairs(d))
        for k in range(len(table.cover[0]), n + 1):
            # V_k is cell k + 1 - 2^l at depth l <= d, so 2^(d-l) cells here.
            l = (k + 1).bit_length() - 1
            w = 1 << (d - l)
            table.add(((1 << w) - 1) << ((k + 1 - (1 << l)) * w))
        return table

    def approximant(self, n: int) -> TableFunction:
        """g_n: constant z on cells meeting the z-patch, f at the cell's
        limit representative elsewhere; locally constant by construction."""
        if n not in self._gn_cache:
            self._gn_cache[n] = self._table(n).function(n)
        return self._gn_cache[n]

    def memberships(self, probe: SubbasicNbhd, stages: Iterable[int]) -> list[bool]:
        """Whether g_n lies in ``probe``, for each n in ``stages``.

        Stage n is read off the stage table of its working depth, where the
        probe is the mask of the cells it meets, made once per depth: g_n
        lies in it when no patch of a value outside U meets the mask and
        no unpainted cell of it has its limit value outside U."""
        axis, fixed, other = probe.sides()
        off = [r for r, z in enumerate(self.image) if z not in probe.allowed]
        lines: dict[int, int] = {}
        out = []
        for n in stages:
            table = self._table(n)
            d = table.d
            if d not in lines:
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
                lines[d] = line << (i << d) if axis == "x" else table.spread(line) << i
            q = lines[d]
            masks, painted = table.stage(n)
            out.append(not any(q & masks[r] for r in off)
                       and all(table.limit(c) in probe.allowed for c in _bits(q & ~painted)))
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
        cover = (basis_index(pieces[z].last_leaf()) for z in w)
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
