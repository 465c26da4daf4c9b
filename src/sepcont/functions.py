"""Separately continuous functions on Cantor x Cantor as combinator trees.

Every combinator evaluates exactly at eventually periodic points and
answers structural queries:

* ``section_preimage`` — the exact clopen set on which a fixed-coordinate
  section takes a given value; for finite-image functions the preimages
  over the declared image partition the space, which is the executable
  form of separate continuity.
* ``values_on_rect`` — a finite superset of the values on a rectangle of
  cylinders, flagged exact when the structure certifies it.  A singleton
  superset certifies constancy on the rectangle even when inexact.

Also houses the subbasic neighbourhoods [K_X x K_Y, U] (one side a
singleton), the grid-based layer-wise / uniform distances and the grid
kernel behind them:

* ``GridMemo.classes`` and ``SepFunction.class_values`` — the points of
  a rectangle grouped into classes on which the functions of a check are
  constant (one depth-D cell, D the deepest table leaf, and one value
  object of every other leaf), and each function's value per class, the
  one lowering of a combinator tree onto a grid;
* ``grid_values`` — the values of a leaf other than a table or a
  constant on a product of point lists, cached per memo, from which the
  classes are built;
* ``grid_sup`` — the max of an operation over a rectangle, run once per
  class, with its first x-major witness;
* ``product_chain`` — ordered products, with products of tables folded
  into one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Literal

from sepcont.cantor import CantorPoint, ClopenSet, Cylinder, grid_points
from sepcont.errors import UnsupportedStructureError
from sepcont.groups import GroupElement, GroupSpec

Axis = Literal["x", "y"]

_WHOLE = Cylinder("")


def _cell(p: CantorPoint, depth: int) -> int:
    """The index ``int(prefix, 2)`` of the depth-``depth`` cell holding p."""
    return int(p.prefix(depth), 2) if depth else 0


class SepFunction:
    """Base class; subclasses are immutable combinators sharing one group."""

    group: GroupSpec

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        raise NotImplementedError

    def declared_image(self) -> tuple[GroupElement, ...]:
        """Finite list of elements the function is guaranteed to land in."""
        raise NotImplementedError

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        """Exact clopen {t : f(fixed, t) = z} (axis 'x' fixes x and varies y)."""
        raise NotImplementedError

    def values_on_rect(self, u: Cylinder, v: Cylinder) -> tuple[frozenset[GroupElement], bool]:
        """Superset of the values on u x v, plus an exactness flag."""
        raise NotImplementedError

    def constant_value_on(self, u: Cylinder, v: Cylinder) -> GroupElement | None:
        """The certified constant value of f on u x v, or None.

        Rectangles are nonempty, so a singleton value superset certifies
        constancy regardless of the exactness flag.
        """
        values, _ = self.values_on_rect(u, v)
        if len(values) == 1:
            return next(iter(values))
        return None

    def locally_constant_depth(self) -> int | None:
        """A depth d such that f is constant on every d-cell rectangle, or None."""
        raise NotImplementedError

    def section_partition(self, axis: Axis, fixed: CantorPoint) -> dict[GroupElement, ClopenSet]:
        """Nonempty section preimages over the declared image."""
        out: dict[GroupElement, ClopenSet] = {}
        for z in self.declared_image():
            pre = self.section_preimage(axis, fixed, z)
            if not pre.is_empty():
                out[z] = out[z].union(pre) if z in out else pre
        return out

    def section_depth(self, axis: Axis, fixed: CantorPoint) -> int:
        return max((s.depth() for s in self.section_partition(axis, fixed).values()), default=0)

    def _grid_values(self, xs, ys, memo: "GridMemo") -> list[GroupElement]:
        """Values on xs x ys in row-major order, point by point; ``grid_values`` caches them."""
        return [memo.intern(self.eval(x, y)) for x in xs for y in ys]

    def _leaves(self) -> tuple["SepFunction", ...]:
        """The leaves of the combinator tree, left to right."""
        return (self,)

    def class_values(self, classes: "GridClasses", memo: "GridMemo") -> list[GroupElement]:
        """The value on each class of ``classes``, in class order.

        The classes come from ``memo.classes`` over a list of functions that
        includes this one, so the function is constant on each class.  A leaf
        other than a table or a constant reads its cached grid values at the
        classes' first points."""
        values = grid_values(self, classes.xs, classes.ys, memo)
        return [values[k] for k in classes.firsts]


def _dedupe(elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    seen: dict[GroupElement, None] = {}
    for e in elements:
        seen.setdefault(e)
    group = next(iter(seen)).group
    return tuple(group.sort_canonically(seen))


@dataclass(frozen=True)
class Constant(SepFunction):
    value: GroupElement

    @property
    def group(self) -> GroupSpec:
        return self.value.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.value

    def declared_image(self) -> tuple[GroupElement, ...]:
        return (self.value,)

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        return ClopenSet.whole() if z == self.value else ClopenSet.empty()

    def values_on_rect(self, u, v):
        return frozenset((self.value,)), True

    def locally_constant_depth(self) -> int | None:
        return 0

    def class_values(self, classes, memo):
        return [self.value] * len(classes.firsts)


@dataclass(frozen=True)
class TableFunction(SepFunction):
    """Value depends only on the first ``depth`` bits of each coordinate."""

    depth: int
    values: tuple[tuple[GroupElement, ...], ...]

    def __post_init__(self) -> None:
        n = 2**self.depth
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError(f"table must be {n} x {n}")

    @property
    def group(self) -> GroupSpec:
        return self.values[0][0].group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.values[_cell(x, self.depth)][_cell(y, self.depth)]

    def declared_image(self) -> tuple[GroupElement, ...]:
        return _dedupe(v for row in self.values for v in row)

    def _section(self, axis: Axis, fixed: CantorPoint) -> tuple[GroupElement, ...] | list[GroupElement]:
        """The values along the row (axis 'x') or column at ``fixed``, by cell index."""
        i = _cell(fixed, self.depth)
        return self.values[i] if axis == "x" else [row[i] for row in self.values]

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        return ClopenSet.from_cells(
            [j for j, val in enumerate(self._section(axis, fixed)) if val == z], self.depth
        )

    def section_partition(self, axis: Axis, fixed: CantorPoint) -> dict[GroupElement, ClopenSet]:
        """One pass over the section, keyed in canonical order like the base method."""
        cells: dict[GroupElement, list[int]] = {}
        for j, val in enumerate(self._section(axis, fixed)):
            cells.setdefault(val, []).append(j)
        return {
            z: ClopenSet.from_cells(cells[z], self.depth) for z in self.group.sort_canonically(cells)
        }

    def section_maps_into(
        self, axis: Axis, fixed: CantorPoint, region: ClopenSet, allowed: frozenset[GroupElement]
    ) -> bool:
        """Whether the section at ``fixed`` maps ``region`` into ``allowed``,
        read cell by cell at depth max(table depth, region depth)."""
        ok = [val in allowed for val in self._section(axis, fixed)]
        depth, cells = region.own_cells
        if depth >= self.depth:
            shift = depth - self.depth
            return all(ok[j >> shift] for j in cells)
        shift = self.depth - depth
        return all(all(ok[j << shift : (j + 1) << shift]) for j in cells)

    def values_on_rect(self, u, v):
        rows, cols = u.cell_range(self.depth), v.cell_range(self.depth)
        return frozenset(self.values[i][j] for i in rows for j in cols), True

    def locally_constant_depth(self) -> int | None:
        return self.depth

    def class_values(self, classes, memo):
        shift, values = classes.depth - self.depth, self.values
        return [memo.intern(values[i >> shift][j >> shift]) for i, j in classes.cells]


@dataclass(frozen=True)
class _Profile:
    """Which family locations a cylinder can hit: finitely many indices,
    every index from ``tail_from`` on, and/or a point outside all members."""

    indices: frozenset[int] = frozenset()
    tail_from: int | None = None
    out: bool = False

    def single_finite(self) -> int | None:
        if self.tail_from is None and not self.out and len(self.indices) == 1:
            return next(iter(self.indices))
        return None


class CylinderFamily:
    """A (possibly infinite) family of pairwise disjoint cylinders with values."""

    group: GroupSpec

    def locate(self, p: CantorPoint) -> tuple[int, GroupElement] | None:
        raise NotImplementedError

    def member_set(self, n: int) -> ClopenSet:
        raise NotImplementedError

    def value_at(self, n: int) -> GroupElement:
        raise NotImplementedError

    def all_values(self) -> tuple[GroupElement, ...]:
        raise NotImplementedError

    def profile(self, c: Cylinder) -> _Profile:
        raise NotImplementedError

    def tail_values(self, start: int) -> frozenset[GroupElement]:
        raise NotImplementedError

    def max_depth(self) -> int | None:
        raise NotImplementedError


@dataclass(frozen=True)
class OnesThenZeroFamily(CylinderFamily):
    """The cylinders [1^n 0] for every n, accumulating at the all-ones point.

    ``values[n]`` cycles when ``cycle`` is set; otherwise indices past the
    list take the identity, which collapses the family to a finite one.
    """

    values: tuple[GroupElement, ...]
    cycle: bool = True

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("value schedule must be nonempty")

    @property
    def group(self) -> GroupSpec:
        return self.values[0].group

    def locate(self, p: CantorPoint) -> tuple[int, GroupElement] | None:
        n = p.leading_ones()
        if n is None:
            return None
        return n, self.value_at(n)

    def member_set(self, n: int) -> ClopenSet:
        return ClopenSet.from_prefixes(["1" * n + "0"])

    def value_at(self, n: int) -> GroupElement:
        if self.cycle:
            return self.values[n % len(self.values)]
        return self.values[n] if n < len(self.values) else self.group.identity()

    def all_values(self) -> tuple[GroupElement, ...]:
        return _dedupe(self.values)

    def profile(self, c: Cylinder) -> _Profile:
        ones = 0
        for ch in c.prefix:
            if ch == "1":
                ones += 1
            else:
                return _Profile(indices=frozenset((ones,)))
        return _Profile(tail_from=ones, out=True)

    def tail_values(self, start: int) -> frozenset[GroupElement]:
        if self.cycle:
            return frozenset(self.values)
        vals = set(self.values[start:])
        vals.add(self.group.identity())
        return frozenset(vals)

    def max_depth(self) -> int | None:
        if not self.cycle:
            return len(self.values) + 1
        if set(self.values) == {self.group.identity()}:
            return 0
        return None


@dataclass(frozen=True)
class FiniteCylinderFamily(CylinderFamily):
    members: tuple[tuple[Cylinder, GroupElement], ...]

    def __post_init__(self) -> None:
        cyls = [c for c, _ in self.members]
        for i in range(len(cyls)):
            for j in range(i + 1, len(cyls)):
                if cyls[i].overlaps(cyls[j]):
                    raise ValueError(
                        f"family cylinders must be pairwise disjoint: "
                        f"{cyls[i].prefix!r} overlaps {cyls[j].prefix!r}"
                    )

    @property
    def group(self) -> GroupSpec:
        return self.members[0][1].group

    def locate(self, p: CantorPoint) -> tuple[int, GroupElement] | None:
        for n, (c, val) in enumerate(self.members):
            if c.contains(p):
                return n, val
        return None

    def member_set(self, n: int) -> ClopenSet:
        return ClopenSet.from_cylinder(self.members[n][0])

    def value_at(self, n: int) -> GroupElement:
        return self.members[n][1]

    def all_values(self) -> tuple[GroupElement, ...]:
        return _dedupe(val for _, val in self.members)

    @cached_property
    def _union(self) -> ClopenSet:
        return ClopenSet.from_prefixes([m.prefix for m, _ in self.members])

    def profile(self, c: Cylinder) -> _Profile:
        hit = frozenset(n for n, (m, _) in enumerate(self.members) if m.overlaps(c))
        out = not ClopenSet.from_cylinder(c).is_subset_of(self._union)
        return _Profile(indices=hit, out=out)

    def tail_values(self, start: int) -> frozenset[GroupElement]:
        return frozenset(val for n, (_, val) in enumerate(self.members) if n >= start)

    def max_depth(self) -> int | None:
        return max((c.depth() for c, _ in self.members), default=0) + 1 if self.members else 0


@dataclass(frozen=True)
class DiagonalIndicator(SepFunction):
    """f(x, y) = family value at n when both x and y lie in member n, else identity.

    Each section is locally constant because the members are pairwise
    disjoint clopen sets; with the infinite ones-then-zero schema and a
    non-identity value schedule the function is jointly discontinuous at
    the all-ones diagonal point.
    """

    family: CylinderFamily

    @property
    def group(self) -> GroupSpec:
        return self.family.group

    @staticmethod
    def ones_schema(values: Iterable[GroupElement], cycle: bool = True) -> "DiagonalIndicator":
        return DiagonalIndicator(OnesThenZeroFamily(tuple(values), cycle))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Cylinder, GroupElement]]) -> "DiagonalIndicator":
        return DiagonalIndicator(FiniteCylinderFamily(tuple(pairs)))

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        lx, ly = self.family.locate(x), self.family.locate(y)
        if lx is not None and ly is not None and lx[0] == ly[0]:
            return lx[1]
        return self.group.identity()

    def declared_image(self) -> tuple[GroupElement, ...]:
        return _dedupe((self.group.identity(), *self.family.all_values()))

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        identity = self.group.identity()
        loc = self.family.locate(fixed)
        if loc is None:
            return ClopenSet.whole() if z == identity else ClopenSet.empty()
        n, val = loc
        member = self.family.member_set(n)
        if val == identity:
            return ClopenSet.whole() if z == identity else ClopenSet.empty()
        if z == val:
            return member
        if z == identity:
            return member.complement()
        return ClopenSet.empty()

    @cached_property
    def _profiles(self) -> dict[str, _Profile]:
        """The family profiles asked for so far, by cylinder prefix."""
        return {}

    def _profile(self, c: Cylinder) -> _Profile:
        p = self._profiles.get(c.prefix)
        if p is None:
            p = self._profiles[c.prefix] = self.family.profile(c)
        return p

    def values_on_rect(self, u, v):
        pu, pv = self._profile(u), self._profile(v)
        identity = self.group.identity()
        matched: set[GroupElement] = set()
        matched.update(self.family.value_at(n) for n in pu.indices & pv.indices)
        if pv.tail_from is not None:
            matched.update(self.family.value_at(n) for n in pu.indices if n >= pv.tail_from)
        if pu.tail_from is not None:
            matched.update(self.family.value_at(n) for n in pv.indices if n >= pu.tail_from)
        if pu.tail_from is not None and pv.tail_from is not None:
            matched.update(self.family.tail_values(max(pu.tail_from, pv.tail_from)))
        su, sv = pu.single_finite(), pv.single_finite()
        if not (su is not None and sv is not None and su == sv):
            matched.add(identity)
        return frozenset(matched), True

    def locally_constant_depth(self) -> int | None:
        return self.family.max_depth()

    def _grid_values(self, xs, ys, memo):
        identity = memo.intern(self.group.identity())
        cols = [loc[0] if loc is not None else None for loc in map(self.family.locate, ys)]
        rows: dict[int, list[GroupElement]] = {}
        out: list[GroupElement] = []
        for loc in map(self.family.locate, xs):
            if loc is None:
                out.extend([identity] * len(ys))
                continue
            n, val = loc
            if n not in rows:
                val = memo.intern(val)
                rows[n] = [val if m == n else identity for m in cols]
            out.extend(rows[n])
        return out


@dataclass(frozen=True, eq=False)
class PostCompose(SepFunction):
    """mapping o inner, for a finite map defined on the inner declared image."""

    inner: SepFunction
    mapping: dict[GroupElement, GroupElement]
    label: str = "map"

    def __post_init__(self) -> None:
        missing = [z for z in self.inner.declared_image() if z not in self.mapping]
        if missing:
            raise UnsupportedStructureError(
                f"mapping {self.label!r} undefined on {[str(z) for z in missing]}"
            )

    @property
    def group(self) -> GroupSpec:
        return self.inner.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.mapping[self.inner.eval(x, y)]

    def declared_image(self) -> tuple[GroupElement, ...]:
        return _dedupe(self.mapping[z] for z in self.inner.declared_image())

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        out = ClopenSet.empty()
        for w in self.inner.declared_image():
            if self.mapping[w] == z:
                out = out.union(self.inner.section_preimage(axis, fixed, w))
        return out

    def values_on_rect(self, u, v):
        inner_vals, exact = self.inner.values_on_rect(u, v)
        # Over-approximations may stray outside the inner declared image;
        # actual values never do, so unmapped strays can be dropped.
        return frozenset(self.mapping[w] for w in inner_vals if w in self.mapping), exact

    def locally_constant_depth(self) -> int | None:
        return self.inner.locally_constant_depth()

    def _leaves(self):
        return self.inner._leaves()

    def class_values(self, classes, memo):
        return memo.image(self.mapping.__getitem__, self.inner.class_values(classes, memo))


@dataclass(frozen=True)
class PointwiseInverse(SepFunction):
    inner: SepFunction

    @property
    def group(self) -> GroupSpec:
        return self.inner.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.group.inv(self.inner.eval(x, y))

    def declared_image(self) -> tuple[GroupElement, ...]:
        return _dedupe(self.group.inv(z) for z in self.inner.declared_image())

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        return self.inner.section_preimage(axis, fixed, self.group.inv(z))

    def values_on_rect(self, u, v):
        vals, exact = self.inner.values_on_rect(u, v)
        return frozenset(self.group.inv(w) for w in vals), exact

    def locally_constant_depth(self) -> int | None:
        return self.inner.locally_constant_depth()

    def _leaves(self):
        return self.inner._leaves()

    def class_values(self, classes, memo):
        return memo.image(self.group.inv, self.inner.class_values(classes, memo))


@dataclass(frozen=True)
class PointwiseProduct(SepFunction):
    """(x, y) -> left(x, y) * right(x, y)."""

    left: SepFunction
    right: SepFunction

    @property
    def group(self) -> GroupSpec:
        return self.left.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.group.mul(self.left.eval(x, y), self.right.eval(x, y))

    def declared_image(self) -> tuple[GroupElement, ...]:
        return _dedupe(
            self.group.mul(a, b)
            for a in self.left.declared_image()
            for b in self.right.declared_image()
        )

    def section_preimage(self, axis: Axis, fixed: CantorPoint, z: GroupElement) -> ClopenSet:
        out = ClopenSet.empty()
        for a in self.left.declared_image():
            b = self.group.mul(self.group.inv(a), z)
            pre = self.left.section_preimage(axis, fixed, a).intersect(
                self.right.section_preimage(axis, fixed, b)
            )
            out = out.union(pre)
        return out

    def values_on_rect(self, u, v):
        lv, lex = self.left.values_on_rect(u, v)
        rv, rex = self.right.values_on_rect(u, v)
        vals = frozenset(self.group.mul(a, b) for a in lv for b in rv)
        exact = lex and rex and (len(lv) == 1 or len(rv) == 1)
        return vals, exact

    def locally_constant_depth(self) -> int | None:
        dl, dr = self.left.locally_constant_depth(), self.right.locally_constant_depth()
        if dl is None or dr is None:
            return None
        return max(dl, dr)

    def _leaves(self):
        return self.left._leaves() + self.right._leaves()

    def class_values(self, classes, memo):
        left, right = self.left.class_values(classes, memo), self.right.class_values(classes, memo)
        return memo.pairwise(self.group.mul, left, right)


def _table_product(a: TableFunction, b: TableFunction, memo: "GridMemo") -> TableFunction:
    """a * b as one table at the larger depth, cell by cell, multiplied
    through ``memo.pairwise``."""
    depth = max(a.depth, b.depth)
    n = 2**depth
    sa, sb = depth - a.depth, depth - b.depth
    left = [memo.intern(a.values[i >> sa][j >> sa]) for i in range(n) for j in range(n)]
    right = [memo.intern(b.values[i >> sb][j >> sb]) for i in range(n) for j in range(n)]
    cells = memo.pairwise(a.group.mul, left, right)
    return TableFunction(depth, tuple(tuple(cells[k : k + n]) for k in range(0, n * n, n)))


def product_chain(funcs: list[SepFunction], memo: "GridMemo") -> SepFunction:
    """Ordered pointwise product f_0 * f_1 * ... * f_k, left to right.
    While the product so far and the next factor are both tables, they are
    folded into one table, their values multiplied through ``memo.pairwise``."""
    if not funcs:
        raise ValueError("product of no functions")
    out = funcs[0]
    for f in funcs[1:]:
        if isinstance(out, TableFunction) and isinstance(f, TableFunction):
            out = _table_product(out, f, memo)
        else:
            out = PointwiseProduct(out, f)
    return out


class GridMemo:
    """Memo tables for the grid sweeps over one group.

    A sweep meets only a few distinct group elements, so every binary
    operation a sweep runs (group ``mul``, ``dist``, a ball test) goes
    through ``pairwise``, which keeps one table per operation and runs it
    once per distinct pair of value objects; ``image`` maps a value list
    once per distinct object.  ``grid_values`` keeps each leaf's values per
    pair of point lists, ``classes`` each class list of a rectangle, and
    ``grid_points`` hands out one point tuple per depth so those are found
    again.  A memo lives on one pipeline or one call and is never shared
    across jobs.

    Tables are keyed on object identity, which hashes at C speed, and hold
    their key objects so that no id is reused while the memo lives.  Values
    entering the memo are interned, so equal values are mostly one object;
    equal values that are distinct objects get entries of their own, which
    costs a recomputation, never a wrong value.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self.function_values: dict[tuple[int, int, int], tuple] = {}
        self._grids: dict[int, tuple[CantorPoint, ...]] = {}
        self._canon: dict[tuple[type, object], object] = {}
        self._tables: dict[object, dict[tuple[int, int], object]] = {}
        self._held: list[object] = []
        self._classes: dict[tuple, tuple] = {}

    def grid_points(self, depth: int) -> tuple[CantorPoint, ...]:
        if depth not in self._grids:
            self._grids[depth] = grid_points(depth)
        return self._grids[depth]

    def intern(self, value):
        """The memo's one object of value's type equal to value.  The type is
        part of the key because values of different types can be equal, as
        ``False == Fraction(0)`` is."""
        return self._canon.setdefault((type(value), value), value)

    def image(self, fn, values: list) -> list:
        """fn(w) for each w, run once per distinct object in values."""
        objects = {id(w): w for w in values}
        image = {key: self.intern(fn(w)) for key, w in objects.items()}
        return [image[id(w)] for w in values]

    def pairwise(self, op, left: Iterable, right: Iterable) -> list:
        """op(a, b) for each zipped pair, run once per distinct (id(a), id(b))
        for as long as the memo lives; each op has its own table."""
        table = self._tables.setdefault(op, {})
        held = self._held
        out = []
        for a, b in zip(left, right):
            key = (id(a), id(b))
            c = table.get(key)
            if c is None:
                c = table[key] = self.intern(op(a, b))
                held.append((a, b))
            out.append(c)
        return out

    def classes(self, fns: Iterable[SepFunction], xs, ys) -> "GridClasses":
        """A partition of xs x ys on which every function in fns is constant.

        Two points share a class when they lie in one depth-D cell, D the
        depth of the deepest table among the leaves of fns, and every leaf
        that is neither a table nor a constant has the same value object at
        both.  Built once per (such leaves, D, xs, ys) for as long as the
        memo lives, in one pass over those leaves' grid values."""
        leaves = {id(leaf): leaf for fn in fns for leaf in fn._leaves()}.values()
        depth = max((t.depth for t in leaves if isinstance(t, TableFunction)), default=0)
        others = [v for v in leaves if not isinstance(v, (TableFunction, Constant))]
        key = (tuple(sorted(map(id, others))), depth, id(xs), id(ys))
        if key not in self._classes:
            # The entry holds the leaves, xs and ys, so their ids stay unique.
            self._classes[key] = others, self._build_classes(others, depth, xs, ys)
        return self._classes[key][1]

    def _build_classes(self, others, depth: int, xs, ys) -> "GridClasses":
        # A point's cell pair (a, b) is coded as the one int a * 2^depth + b.
        cx, cy = [_cell(x, depth) << depth for x in xs], [_cell(y, depth) for y in ys]
        codes = [a + b for a in cx for b in cy]
        ids = [map(id, reversed(grid_values(v, xs, ys, self))) for v in others]
        keys = zip(reversed(codes), *ids) if ids else reversed(codes)
        # Assigned from the last point back, each key keeps its first index.
        first = dict(zip(keys, range(len(codes) - 1, -1, -1)))
        firsts = sorted(first.values())
        cells = [divmod(codes[k], 2**depth) for k in firsts]
        return GridClasses(xs, ys, depth, firsts, cells)


@dataclass(frozen=True)
class GridClasses:
    """Classes of xs x ys (see ``GridMemo.classes``) in x-major order of
    their first points: ``firsts`` holds each class's first x-major index
    into xs x ys, ``cells`` its (x, y) cell indices at ``depth``."""

    xs: tuple[CantorPoint, ...]
    ys: tuple[CantorPoint, ...]
    depth: int
    firsts: list[int]
    cells: list[tuple[int, int]]


def grid_values(
    fn: SepFunction,
    xs: tuple[CantorPoint, ...],
    ys: tuple[CantorPoint, ...],
    memo: GridMemo | None = None,
) -> list[GroupElement]:
    """Values of fn on xs x ys in row-major order (x outer, y inner).

    Computed once per (function, point lists) and memo.  The grid sweeps
    ask for it only on leaves that are neither tables nor constants, which
    ``class_values`` cannot read off a cell: a diagonal indicator reads
    each axis once, anything else is evaluated per point.  Combinator trees
    are lowered by ``class_values`` instead.  The values are exactly the
    pointwise ones.  The returned list is shared: do not mutate it.
    """
    memo = memo if memo is not None else GridMemo(fn.group)
    key = (id(fn), id(xs), id(ys))
    entry = memo.function_values.get(key)
    if entry is None:
        # The entry holds fn, xs and ys, so their ids stay unique while it lives.
        entry = memo.function_values[key] = (fn, xs, ys, fn._grid_values(xs, ys, memo))
    return entry[3]


@dataclass(frozen=True)
class SubbasicNbhd:
    """[K_X x K_Y, U]: functions mapping the rectangle into the finite set U."""

    kx: CantorPoint | ClopenSet
    ky: CantorPoint | ClopenSet
    allowed: frozenset[GroupElement]
    probe_id: str = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.kx, CantorPoint) or isinstance(self.ky, CantorPoint)):
            raise ValueError("one of K_X, K_Y must be a singleton point")

    def singleton_axis(self) -> Axis:
        return "x" if isinstance(self.kx, CantorPoint) else "y"


def side_sample(side: CantorPoint | ClopenSet, grid_depth: int) -> tuple[CantorPoint, ...]:
    if isinstance(side, CantorPoint):
        return (side,)
    return tuple(c.representative() for c in side.cells_at_depth(grid_depth))


@dataclass(frozen=True)
class DistResult:
    value: Fraction
    exact: bool
    grid_depth: int
    witness: tuple[CantorPoint, CantorPoint] | None = None


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    exact: bool
    witness: tuple[CantorPoint, CantorPoint, GroupElement] | None = None


def grid_sup(
    op,
    f: SepFunction,
    g: SepFunction,
    xs: tuple[CantorPoint, ...],
    ys: tuple[CantorPoint, ...],
    memo: GridMemo,
) -> tuple:
    """The max of op(f(p), g(p)) over p in xs x ys and the first point p,
    x-major, that attains it; (0, None) on an empty rectangle.

    f and g are constant on each of ``memo.classes((f, g), xs, ys)``, so op
    runs once per class, through ``memo.pairwise``, and the witness is the
    first point of the first class, in x-major order, that attains the max."""
    classes = memo.classes((f, g), xs, ys)
    values = memo.pairwise(op, f.class_values(classes, memo), g.class_values(classes, memo))
    if not values:
        return Fraction(0), None
    best = max(values)
    i, j = divmod(classes.firsts[values.index(best)], len(ys))
    return best, (xs[i], ys[j])


def layerwise_dist(
    f: SepFunction,
    g: SepFunction,
    axis: Axis,
    fixed: CantorPoint,
    region: ClopenSet | None = None,
    grid_depth: int = 6,
) -> DistResult:
    """Max distance between the fixed-coordinate sections of f and g over the
    grid points of ``region``; a certified lower bound on the true sup, exact
    when both section partitions resolve within the grid depth.  The witness
    is the first cell representative that attains it."""
    region = region if region is not None else ClopenSet.whole()
    if region.depth() > grid_depth:
        raise ValueError("grid_depth must cover the region's cylinders")
    ts = side_sample(region, grid_depth)
    xs, ys = ((fixed,), ts) if axis == "x" else (ts, (fixed,))
    best, point = grid_sup(f.group.dist, f, g, xs, ys, GridMemo(f.group))
    exact = (
        max(f.section_depth(axis, fixed), g.section_depth(axis, fixed), region.depth())
        <= grid_depth
    )
    return DistResult(best, exact, grid_depth, point if best > 0 else None)


def uniform_dist(
    f: SepFunction,
    g: SepFunction,
    side: Literal["l", "r"],
    grid_depth: int = 6,
    memo: GridMemo | None = None,
) -> DistResult:
    """Grid sup of d(1, f^-1 g) (side l) or d(1, g f^-1) (side r); the
    witness is the first grid point, x-major, that attains it.  The metric
    is left-invariant, so these are d(f, g) and d(g^-1, f^-1)."""
    memo = memo if memo is not None else GridMemo(f.group)
    points = memo.grid_points(grid_depth)
    pair = (f, g) if side == "l" else (PointwiseInverse(g), PointwiseInverse(f))
    best, point = grid_sup(f.group.dist, *pair, points, points, memo)
    dl, dg = f.locally_constant_depth(), g.locally_constant_depth()
    exact = dl is not None and dg is not None and max(dl, dg) <= grid_depth
    return DistResult(best, exact, grid_depth, point if best > 0 else None)


def in_subbasic(f: SepFunction, nbhd: SubbasicNbhd) -> MembershipResult:
    """Exact membership of f in [K_X x K_Y, U] via section preimages.

    The singleton side is evaluated exactly; on the other side the section
    partition is clopen, so containment reduces to exact set algebra.  A
    table's section is read cell by cell instead; the set algebra then only
    runs to find the witness of a failure.
    """
    axis = nbhd.singleton_axis()
    fixed = nbhd.kx if axis == "x" else nbhd.ky
    other = nbhd.ky if axis == "x" else nbhd.kx
    assert isinstance(fixed, CantorPoint)
    if isinstance(other, CantorPoint):
        val = f.eval(fixed, other) if axis == "x" else f.eval(other, fixed)
        if val in nbhd.allowed:
            return MembershipResult(True, True)
        pair = (fixed, other) if axis == "x" else (other, fixed)
        return MembershipResult(False, True, (pair[0], pair[1], val))
    if isinstance(f, TableFunction) and f.section_maps_into(axis, fixed, other, nbhd.allowed):
        return MembershipResult(True, True)
    parts = f.section_partition(axis, fixed)
    allowed_region = ClopenSet.empty()
    for z, pre in parts.items():
        if z in nbhd.allowed:
            allowed_region = allowed_region.union(pre)
    violating = other.minus(allowed_region)
    if violating.is_empty():
        return MembershipResult(True, True)
    t = violating.cylinders()[0].representative()
    fx, fy = (fixed, t) if axis == "x" else (t, fixed)
    return MembershipResult(False, True, (fx, fy, f.eval(fx, fy)))


def separate_continuity_certificate(f: SepFunction, probes: Iterable[CantorPoint]) -> bool:
    """Check the partition property of all section preimages at the probes:
    preimages over the declared image are disjoint and cover the space."""
    for fixed in probes:
        for axis in ("x", "y"):
            parts = f.section_partition(axis, fixed)
            total = ClopenSet.empty()
            for z, pre in parts.items():
                if not total.intersect(pre).is_empty():
                    return False
                total = total.union(pre)
            if not total.is_whole():
                return False
    return True
