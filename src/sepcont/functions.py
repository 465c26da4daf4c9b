"""Separately continuous functions on Cantor x Cantor as combinator trees.

Every combinator evaluates exactly at eventually periodic points and
answers structural queries:

* ``section_partition`` — the level sets of a fixed-coordinate section,
  exact nonempty clopen sets keyed by value that partition the space,
  which is the executable form of separate continuity.
* ``values_on_rect`` — a finite superset of the values on a rectangle of
  cylinders; a singleton superset certifies constancy on the rectangle and
  stays that singleton on every sub-rectangle.

Also houses the subbasic neighbourhoods [K_X x K_Y, U] (one side a
singleton, so every probe reads one section partition), the grid-based
uniform distance and the grid kernel behind every grid check:

* ``GridMemo.classes`` and ``SepFunction.class_values`` — the points of
  a rectangle grouped into classes on which the functions of a check are
  constant (one depth-D cell, D the deepest table leaf, and one value of
  every other leaf), and each function's value per class, the one
  lowering of a combinator tree onto a grid;
* ``SepFunction.axis_key`` and ``pair_value`` — a leaf other than a table
  or a constant read one axis at a time: the classes are built per pair
  of axis classes, not per point;
* ``GridMemo.pairwise`` — an operation on two zipped value lists, run
  once per distinct pair of values;
* ``grid_sup`` — the max of an operation over a rectangle, run once per
  class, with its first x-major witness; a layer-wise sup is one over a
  probe rectangle, whose one side is a singleton;
* ``product_chain`` — the ordered product of tables, folded into one
  table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
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

    def section_partition(self, axis: Axis, fixed: CantorPoint) -> dict[GroupElement, ClopenSet]:
        """The nonempty clopen sets {t : f(fixed, t) = z}, keyed by z (axis 'x'
        fixes x and varies y); together they partition the space."""
        raise NotImplementedError

    def values_on_rect(self, u: Cylinder, v: Cylinder) -> frozenset[GroupElement]:
        """Superset of the values on u x v.

        Contract: a singleton answer on u x v is the same singleton on every
        nonempty sub-rectangle of u x v, so a certified constant holds on
        the sub-rectangles without asking again (the discrete engine copies
        strip verdicts on this premise)."""
        raise NotImplementedError

    def constant_value_on(self, u: Cylinder, v: Cylinder) -> GroupElement | None:
        """The certified constant value of f on u x v, or None.

        Rectangles are nonempty, so a singleton value superset certifies
        constancy.
        """
        values = self.values_on_rect(u, v)
        if len(values) == 1:
            return next(iter(values))
        return None

    def axis_key(self, p: CantorPoint):
        """What the value depends on through the coordinate p: points with equal
        keys give equal values against every point of the other axis."""
        return p

    def pair_value(self, a, b) -> GroupElement:
        """The value at points whose axis keys are a (x) and b (y)."""
        return self.eval(a, b)

    def _leaves(self) -> tuple["SepFunction", ...]:
        """The leaves of the combinator tree, left to right."""
        return (self,)

    def class_values(self, classes: "GridClasses", memo: "GridMemo") -> list[GroupElement]:
        """The value on each class of ``classes``, in class order.

        The classes come from ``memo.classes`` over a list of functions that
        includes this one, so the function is constant on each class.  A leaf
        other than a table or a constant reads the values the classes were
        built from; the list is shared, so do not mutate it."""
        return classes.leaf_values[id(self)]


def _dedupe(elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    seen: dict[GroupElement, None] = {}
    for e in elements:
        seen.setdefault(e)
    group = next(iter(seen)).group
    return tuple(group.sort_canonically(seen))


def _merged(pieces: Iterable[tuple[GroupElement, ClopenSet]]) -> dict[GroupElement, ClopenSet]:
    """The pieces keyed by value, the pieces of one value united."""
    out: dict[GroupElement, ClopenSet] = {}
    for z, piece in pieces:
        out[z] = out[z].union(piece) if z in out else piece
    return out


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

    def section_partition(self, axis, fixed):
        return {self.value: ClopenSet.whole()}

    def values_on_rect(self, u, v):
        return frozenset((self.value,))

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

    def section_partition(self, axis, fixed):
        """One pass over the row (axis 'x') or column at ``fixed``, keyed in
        canonical order."""
        i = _cell(fixed, self.depth)
        section = self.values[i] if axis == "x" else [row[i] for row in self.values]
        cells: dict[GroupElement, list[int]] = {}
        for j, val in enumerate(section):
            cells.setdefault(val, []).append(j)
        return {
            z: ClopenSet.from_cells(cells[z], self.depth) for z in self.group.sort_canonically(cells)
        }

    def values_on_rect(self, u, v):
        rows, cols = u.cell_range(self.depth), v.cell_range(self.depth)
        return frozenset(self.values[i][j] for i in rows for j in cols)

    def class_values(self, classes, memo):
        shift, values = classes.depth - self.depth, self.values
        return [values[i >> shift][j >> shift] for i, j in classes.cells]


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


@dataclass(frozen=True)
class OnesThenZeroFamily(CylinderFamily):
    """The cylinders [1^n 0] for every n, accumulating at the all-ones point.

    Member n takes the eventually periodic schedule ``prefix`` then
    ``period`` cycling: ``prefix[n]`` below ``len(prefix)``, and
    ``period[(n - len(prefix)) % len(period)]`` from there on.
    """

    prefix: tuple[GroupElement, ...]
    period: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("value schedule must be nonempty")

    @property
    def group(self) -> GroupSpec:
        return self.period[0].group

    def locate(self, p: CantorPoint) -> tuple[int, GroupElement] | None:
        n = p.leading_ones()
        if n is None:
            return None
        return n, self.value_at(n)

    def member_set(self, n: int) -> ClopenSet:
        return ClopenSet.from_prefixes(["1" * n + "0"])

    def value_at(self, n: int) -> GroupElement:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def all_values(self) -> tuple[GroupElement, ...]:
        return _dedupe((*self.prefix, *self.period))

    def profile(self, c: Cylinder) -> _Profile:
        ones = 0
        for ch in c.prefix:
            if ch == "1":
                ones += 1
            else:
                return _Profile(indices=frozenset((ones,)))
        return _Profile(tail_from=ones, out=True)

    def tail_values(self, start: int) -> frozenset[GroupElement]:
        return frozenset((*self.prefix[start:], *self.period))


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
    def ones_schema(
        period: Iterable[GroupElement], prefix: Iterable[GroupElement] = ()
    ) -> "DiagonalIndicator":
        return DiagonalIndicator(OnesThenZeroFamily(tuple(prefix), tuple(period)))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Cylinder, GroupElement]]) -> "DiagonalIndicator":
        return DiagonalIndicator(FiniteCylinderFamily(tuple(pairs)))

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.pair_value(self.axis_key(x), self.axis_key(y))

    def axis_key(self, p):
        """The index of the member holding p, or None."""
        loc = self.family.locate(p)
        return None if loc is None else loc[0]

    def pair_value(self, a, b):
        if a is not None and a == b:
            return self.family.value_at(a)
        return self.group.identity()

    def declared_image(self) -> tuple[GroupElement, ...]:
        return _dedupe((self.group.identity(), *self.family.all_values()))

    def section_partition(self, axis, fixed):
        """The member holding ``fixed`` and its complement; a member with the
        empty prefix covers the whole line, so its empty complement is dropped."""
        identity = self.group.identity()
        loc = self.family.locate(fixed)
        if loc is None or loc[1] == identity:
            return {identity: ClopenSet.whole()}
        member = self.family.member_set(loc[0])
        parts = {loc[1]: member, identity: member.complement()}
        return {z: piece for z, piece in parts.items() if not piece.is_empty()}

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
        return frozenset(matched)


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

    def section_partition(self, axis, fixed):
        inner = self.inner.section_partition(axis, fixed)
        return _merged((self.mapping[w], piece) for w, piece in inner.items())

    def values_on_rect(self, u, v):
        inner_vals = self.inner.values_on_rect(u, v)
        # Over-approximations may stray outside the inner declared image;
        # actual values never do, so unmapped strays can be dropped.
        return frozenset(self.mapping[w] for w in inner_vals if w in self.mapping)

    def _leaves(self):
        return self.inner._leaves()

    def class_values(self, classes, memo):
        return list(map(self.mapping.__getitem__, self.inner.class_values(classes, memo)))


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

    def section_partition(self, axis, fixed):
        inner = self.inner.section_partition(axis, fixed)
        return {self.group.inv(w): piece for w, piece in inner.items()}

    def values_on_rect(self, u, v):
        return frozenset(self.group.inv(w) for w in self.inner.values_on_rect(u, v))

    def _leaves(self):
        return self.inner._leaves()

    def class_values(self, classes, memo):
        return list(map(self.group.inv, self.inner.class_values(classes, memo)))


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

    def section_partition(self, axis, fixed):
        """The nonempty meets of a left piece and a right piece, keyed by the
        product of their values."""
        right = self.right.section_partition(axis, fixed).items()
        meets = (
            (a, b, p.intersect(q))
            for a, p in self.left.section_partition(axis, fixed).items()
            for b, q in right
        )
        return _merged((self.group.mul(a, b), meet) for a, b, meet in meets if not meet.is_empty())

    def values_on_rect(self, u, v):
        lv, rv = self.left.values_on_rect(u, v), self.right.values_on_rect(u, v)
        return frozenset(self.group.mul(a, b) for a in lv for b in rv)

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
    left = [a.values[i >> sa][j >> sa] for i in range(n) for j in range(n)]
    right = [b.values[i >> sb][j >> sb] for i in range(n) for j in range(n)]
    cells = memo.pairwise(a.group.mul, left, right)
    return TableFunction(depth, tuple(tuple(cells[k : k + n]) for k in range(0, n * n, n)))


def product_chain(tables: list[TableFunction], memo: "GridMemo") -> TableFunction:
    """Ordered pointwise product t_0 * t_1 * ... * t_k of tables, left to
    right, folded into one table, the values multiplied through
    ``memo.pairwise``."""
    return reduce(lambda a, b: _table_product(a, b, memo), tables)


class GridMemo:
    """Memo tables for the grid sweeps.

    A sweep meets only a few distinct group elements, so every binary
    operation a sweep runs (group ``mul``, ``dist``, a ball test) goes
    through ``pairwise``, which keeps one table per operation and runs it
    once per distinct pair of values.  ``classes`` keeps each class list of
    a rectangle and each leaf's axis keys per point list, and
    ``grid_points`` hands out one point tuple per depth so those are found
    again.  A memo lives on one pipeline, one call or one ``ball`` job and
    is never shared across jobs.

    The op tables are keyed by value; an element caches its hash.  Key
    lists and class lists are keyed on the identity of the functions and
    point tuples they were built from, which their entries hold, so no id
    is reused while the memo lives.
    """

    def __init__(self):
        self._grids: dict[int, tuple[CantorPoint, ...]] = {}
        self._tables: dict[object, dict[tuple, object]] = {}
        self._axis_keys: dict[tuple[int, int], tuple] = {}
        self._classes: dict[tuple, tuple] = {}

    def grid_points(self, depth: int) -> tuple[CantorPoint, ...]:
        if depth not in self._grids:
            self._grids[depth] = grid_points(depth)
        return self._grids[depth]

    def pairwise(self, op, left: Iterable, right: Iterable) -> list:
        """op(a, b) for each zipped pair, run once per distinct value pair
        for as long as the memo lives; each op has its own table, so equal
        values of two types, as ``False == Fraction(0)``, never meet."""
        table = self._tables.setdefault(op, {})
        out = []
        for key in zip(left, right):
            c = table.get(key)
            if c is None:
                c = table[key] = op(*key)
            out.append(c)
        return out

    def classes(self, fns: Iterable[SepFunction], xs, ys) -> "GridClasses":
        """A partition of xs x ys on which every function in fns is constant.

        Two points share a class when they lie in one depth-D cell, D the
        depth of the deepest table among the leaves of fns, and every leaf
        that is neither a table nor a constant has equal values at both.
        Built once per (such leaves, D, xs, ys) for as long as the memo
        lives, from each such leaf's axis keys."""
        leaves = {id(leaf): leaf for fn in fns for leaf in fn._leaves()}.values()
        depth = max((t.depth for t in leaves if isinstance(t, TableFunction)), default=0)
        others = [v for v in leaves if not isinstance(v, (TableFunction, Constant))]
        key = (tuple(sorted(map(id, others))), depth, id(xs), id(ys))
        if key not in self._classes:
            # The entry holds the leaves, xs and ys, so their ids stay unique.
            self._classes[key] = others, xs, ys, self._build_classes(others, depth, xs, ys)
        return self._classes[key][3]

    def _keys(self, leaf: SepFunction, pts) -> list:
        """leaf.axis_key at each point of pts, once per (leaf, pts)."""
        key = (id(leaf), id(pts))
        if key not in self._axis_keys:
            self._axis_keys[key] = leaf, pts, list(map(leaf.axis_key, pts))
        return self._axis_keys[key][2]

    def _axis_classes(self, others, depth: int, pts) -> dict[tuple, int]:
        """The points of pts with one depth-D cell and one axis key of every
        leaf, as {(cell, *keys): first index}, in order of first index."""
        first: dict[tuple, int] = {}
        cells = [_cell(p, depth) for p in pts]
        for i, k in enumerate(zip(cells, *(self._keys(v, pts) for v in others))):
            first.setdefault(k, i)
        return first

    def _build_classes(self, others, depth: int, xs, ys) -> "GridClasses":
        # Every leaf is constant on each pair of axis classes; pairs with one
        # cell pair and equal leaf values merge.  Axis classes come in order
        # of their first points, so the pairs run x-major by first point and
        # each class keeps its first point.
        ax, ay = self._axis_classes(others, depth, xs), self._axis_classes(others, depth, ys)
        pairs = [(a, b) for a in ax for b in ay]
        columns = [[v.pair_value(a[n], b[n]) for a, b in pairs] for n, v in enumerate(others, 1)]
        starts = [i * len(ys) + j for i in ax.values() for j in ay.values()]
        first: dict[tuple, int] = {}
        for key, k in zip(zip([(a[0], b[0]) for a, b in pairs], *columns), starts):
            first.setdefault(key, k)
        keys = list(first)
        leaf_values = {id(v): [k[n] for k in keys] for n, v in enumerate(others, 1)}
        return GridClasses(depth, list(first.values()), [k[0] for k in keys], leaf_values)


@dataclass(frozen=True)
class GridClasses:
    """Classes of xs x ys (see ``GridMemo.classes``) in x-major order of
    their first points: ``firsts`` holds each class's first x-major index
    into xs x ys, ``cells`` its (x, y) cell indices at ``depth`` and
    ``leaf_values`` the value of every leaf other than a table or a
    constant per class, by the id of the leaf."""

    depth: int
    firsts: list[int]
    cells: list[tuple[int, int]]
    leaf_values: dict[int, list[GroupElement]]


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

    def sides(self) -> tuple[Axis, CantorPoint, CantorPoint | ClopenSet]:
        """(axis, fixed, other): the axis of the singleton side, its point and
        the other side K."""
        if isinstance(self.kx, CantorPoint):
            return "x", self.kx, self.ky
        return "y", self.ky, self.kx  # type: ignore[return-value]

    def point(self, t: CantorPoint) -> tuple[CantorPoint, CantorPoint]:
        """The point (x, y) of the fixed point and t on the other side."""
        axis, fixed, _ = self.sides()
        return (fixed, t) if axis == "x" else (t, fixed)

    def pieces(self, f: SepFunction) -> dict[GroupElement, ClopenSet]:
        """{z: piece} for each value z that f takes on the rectangle.

        When K is a clopen set the piece is the section preimage of z cut to
        K; when K is a point it is the whole section preimage of f(x, y)."""
        axis, fixed, other = self.sides()
        parts = f.section_partition(axis, fixed)
        if isinstance(other, CantorPoint):
            z = f.eval(*self.point(other))
            return {z: parts[z]}
        cut = {z: other.intersect(piece) for z, piece in parts.items()}
        return {z: piece for z, piece in cut.items() if not piece.is_empty()}


def side_sample(side: CantorPoint | ClopenSet, grid_depth: int) -> tuple[CantorPoint, ...]:
    if isinstance(side, CantorPoint):
        return (side,)
    return tuple(c.representative() for c in side.cells_at_depth(grid_depth))


@dataclass(frozen=True)
class DistResult:
    value: Fraction
    witness: tuple[CantorPoint, CantorPoint] | None = None


@dataclass(frozen=True)
class MembershipResult:
    member: bool
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


def uniform_dist(
    f: SepFunction,
    g: SepFunction,
    side: Literal["l", "r"],
    grid_depth: int,
    memo: GridMemo | None = None,
) -> DistResult:
    """Grid sup of d(1, f^-1 g) (side l) or d(1, g f^-1) (side r), a lower
    bound of the sup over Cantor x Cantor; the witness is the first grid
    point, x-major, that attains it.  The metric is left-invariant, so these
    are d(f, g) and d(g^-1, f^-1)."""
    memo = memo if memo is not None else GridMemo()
    points = memo.grid_points(grid_depth)
    pair = (f, g) if side == "l" else (PointwiseInverse(g), PointwiseInverse(f))
    best, point = grid_sup(f.group.dist, *pair, points, points, memo)
    return DistResult(best, point if best > 0 else None)


def in_subbasic(f: SepFunction, nbhd: SubbasicNbhd) -> MembershipResult:
    """Exact membership of f in [K_X x K_Y, U] via the probe's pieces.

    A point K is evaluated exactly; a clopen K is cut by the section
    partition, so containment reduces to exact set algebra: the violating
    set is the union of the pieces whose value is not allowed.
    """
    other = nbhd.sides()[2]
    if isinstance(other, CantorPoint):
        x, y = nbhd.point(other)
        val = f.eval(x, y)
        if val in nbhd.allowed:
            return MembershipResult(True)
        return MembershipResult(False, (x, y, val))
    violating = ClopenSet.empty()
    for z, piece in nbhd.pieces(f).items():
        if z not in nbhd.allowed:
            violating = violating.union(piece)
    if violating.is_empty():
        return MembershipResult(True)
    x, y = nbhd.point(violating.cylinders()[0].representative())
    return MembershipResult(False, (x, y, f.eval(x, y)))

