"""Separately continuous functions on Cantor x Cantor as combinator trees.

The leaves are ``Constant``, ``TableFunction`` and the diagonal
indicators ``OnesDiagonal`` (the members [1^n 0] for every n, with an
eventually periodic value schedule) and ``CylinderDiagonal`` (finitely many
disjoint cylinders), which share ``DiagonalIndicator``'s rule: the value of
member n on the block of member n squared, the identity elsewhere.  Every
combinator evaluates exactly at eventually periodic points and answers
structural queries:

* ``section_partition`` — the level sets of a fixed-coordinate section,
  exact nonempty clopen sets keyed by value that partition the space,
  which is the executable form of separate continuity.
* ``values_on_rect`` — a finite superset of the values on a rectangle of
  cylinders; a singleton superset certifies constancy on the rectangle and
  stays that singleton on every sub-rectangle.

Also houses the subbasic neighbourhoods [K_X x K_Y, U] (one side a
singleton, so every probe reads one section partition), the uniform
distance and the kernel behind every sup a check takes:

* ``GridMemo.exact_points`` — a finite point set, read off the leaves,
  that meets every value class of a check's functions on a side;
* ``GridMemo.classes`` and ``SepFunction.class_values`` — the points of
  a rectangle grouped into classes on which the functions of a check are
  constant (one depth-D cell, D the deepest table leaf, and one value of
  every other leaf), and each function's value per class, the one
  lowering of a combinator tree onto a grid;
* ``DiagonalIndicator.axis_key`` and ``pair_value`` — a diagonal leaf
  read one axis at a time, through the index of the member holding each
  coordinate: the classes are built per pair of axis classes, not per
  point;
* ``GridMemo.pairwise`` — an operation on two zipped value lists, run
  once per distinct pair of values;
* ``grid_sup`` — the max of an operation over a rectangle, run once per
  class, with its first x-major witness; ``exact_sup`` takes it over the
  exact points of the whole square or of a probe rectangle, whose one
  side is a singleton;
* ``image`` — the values a function takes, f(X x Y) itself, read off the
  classes of the exact points of the square;
* ``product_chain`` — the ordered product of tables, folded into one
  table.
"""

from __future__ import annotations

from functools import reduce
from fractions import Fraction
from math import lcm
from typing import Iterable, Literal, NamedTuple

from sepcont.cantor import CantorPoint, ClopenSet, Cylinder
from sepcont.errors import ConfigError
from sepcont.groups import GroupElement, GroupSpec

Axis = Literal["x", "y"]


def _cell(p: CantorPoint, depth: int) -> int:
    """The index ``int(prefix, 2)`` of the depth-``depth`` cell holding p."""
    return int(p.prefix(depth), 2) if depth else 0


class SepFunction:
    """Base class; subclasses are immutable combinators sharing one group,
    each naming its fields in ``__slots__``.  A function tree is equal only to
    itself: the checks compare the values a function takes, never two trees."""

    group: GroupSpec

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
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


def _merged(pieces: Iterable[tuple[GroupElement, ClopenSet]]) -> dict[GroupElement, ClopenSet]:
    """The pieces keyed by value, the pieces of one value united."""
    out: dict[GroupElement, ClopenSet] = {}
    for z, piece in pieces:
        out[z] = out[z].union(piece) if z in out else piece
    return out


class Constant(SepFunction):
    __slots__ = ("value",)

    def __init__(self, value: GroupElement) -> None:
        self.value = value

    @property
    def group(self) -> GroupSpec:
        return self.value.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.value

    def section_partition(self, axis, fixed):
        return {self.value: ClopenSet.whole()}

    def values_on_rect(self, u, v):
        return frozenset((self.value,))

    def class_values(self, classes, memo):
        return [self.value] * len(classes.firsts)


class TableFunction(SepFunction):
    """Value depends only on the first ``depth`` bits of each coordinate."""

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values: tuple[tuple[GroupElement, ...], ...]) -> None:
        n = 2**depth
        if len(values) != n or any(len(row) != n for row in values):
            raise ValueError(f"table must be {n} x {n}")
        self.depth, self.values = depth, values

    @property
    def group(self) -> GroupSpec:
        return self.values[0][0].group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.values[_cell(x, self.depth)][_cell(y, self.depth)]

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


class DiagonalIndicator(SepFunction):
    """f(x, y) = the value of member n when x and y both lie in member n, else
    the identity.

    The members are pairwise disjoint cylinders, so each section is locally
    constant.  A leaf class names the member holding a point (``axis_key``),
    member n (``member``) and its value (``value_at``), and answers
    ``values_on_rect`` in closed form.  With infinitely many members
    accumulating at the all-ones point and a non-identity schedule, f is
    jointly discontinuous there.
    """

    @property
    def group(self) -> GroupSpec:
        return self.value_at(0).group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.pair_value(self.axis_key(x), self.axis_key(y))

    def pair_value(self, a: int | None, b: int | None) -> GroupElement:
        """The value at points whose axis keys, member indices or None, are a
        (x) and b (y)."""
        if a is not None and a == b:
            return self.value_at(a)
        return self.group.identity()

    def section_partition(self, axis, fixed):
        """The member holding ``fixed`` and its complement; a member with the
        empty prefix covers the whole line, so its empty complement is dropped."""
        identity = self.group.identity()
        n = self.axis_key(fixed)
        if n is None or self.value_at(n) == identity:
            return {identity: ClopenSet.whole()}
        member = ClopenSet.from_cylinder(self.member(n))
        parts = {self.value_at(n): member, identity: member.complement()}
        return {z: piece for z, piece in parts.items() if not piece.is_empty()}


def _leading_ones(c: Cylinder) -> tuple[int, bool]:
    """The number of leading 1 bits of c's prefix, and whether a 0 follows."""
    k = len(c.prefix) - len(c.prefix.lstrip("1"))
    return k, k < len(c.prefix)


class OnesDiagonal(DiagonalIndicator):
    """The members [1^n 0] for every n, accumulating at the all-ones point.

    Member n takes the eventually periodic schedule ``prefix`` then
    ``period`` cycling: ``prefix[n]`` below ``len(prefix)``, and
    ``period[(n - len(prefix)) % len(period)]`` from there on.
    """

    __slots__ = ("period", "prefix")

    def __init__(self, period: tuple[GroupElement, ...],
                 prefix: tuple[GroupElement, ...] = ()) -> None:
        if not period:
            raise ValueError("value schedule must be nonempty")
        self.period, self.prefix = period, prefix

    def axis_key(self, p: CantorPoint) -> int | None:
        return p.leading_ones()

    def member(self, n: int) -> Cylinder:
        return Cylinder("1" * n + "0")

    def value_at(self, n: int) -> GroupElement:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def values_on_rect(self, u, v):
        """A cylinder 1^k 0 ... lies in member k; the cylinder [1^k] meets
        every member from k on, and the all-ones point."""
        (a, a_in), (b, b_in) = _leading_ones(u), _leading_ones(v)
        identity = self.group.identity()
        if a_in and b_in:
            return frozenset((self.value_at(a) if a == b else identity,))
        if a_in or b_in:
            n, start = (a, b) if a_in else (b, a)
            return frozenset((self.value_at(n), identity) if n >= start else (identity,))
        return frozenset((identity, *self.prefix[max(a, b) :], *self.period))


class CylinderDiagonal(DiagonalIndicator):
    """Finitely many pairwise disjoint cylinders, each with its value."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[tuple[Cylinder, GroupElement], ...]) -> None:
        cyls = [c for c, _ in members]
        for i in range(len(cyls)):
            for j in range(i + 1, len(cyls)):
                if cyls[i].overlaps(cyls[j]):
                    raise ValueError(
                        f"family cylinders must be pairwise disjoint: "
                        f"{cyls[i].prefix!r} overlaps {cyls[j].prefix!r}"
                    )
        self.members = members

    def axis_key(self, p: CantorPoint) -> int | None:
        return next((n for n, (c, _) in enumerate(self.members) if c.contains(p)), None)

    def member(self, n: int) -> Cylinder:
        return self.members[n][0]

    def value_at(self, n: int) -> GroupElement:
        return self.members[n][1]

    def values_on_rect(self, u, v):
        """The values of the members meeting both sides, and the identity
        unless one member contains both u and v: otherwise some point of
        u x v lies off the matched blocks."""
        met = [(c, z) for c, z in self.members if c.overlaps(u) and c.overlaps(v)]
        values = {z for _, z in met}
        if not any(u.is_subset_of(c) and v.is_subset_of(c) for c, _ in met):
            values.add(self.group.identity())
        return frozenset(values)


class PostCompose(SepFunction):
    """mapping o inner, for a finite map defined on the image of inner."""

    __slots__ = ("inner", "mapping")

    def __init__(self, inner: SepFunction, mapping: dict[GroupElement, GroupElement]) -> None:
        self.inner, self.mapping = inner, mapping

    @property
    def group(self) -> GroupSpec:
        return self.inner.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.mapping[self.inner.eval(x, y)]

    def section_partition(self, axis, fixed):
        inner = self.inner.section_partition(axis, fixed)
        return _merged((self.mapping[w], piece) for w, piece in inner.items())

    def values_on_rect(self, u, v):
        inner_vals = self.inner.values_on_rect(u, v)
        # Over-approximations may stray outside the image of inner;
        # actual values never do, so unmapped strays can be dropped.
        return frozenset(self.mapping[w] for w in inner_vals if w in self.mapping)

    def _leaves(self):
        return self.inner._leaves()

    def class_values(self, classes, memo):
        return list(map(self.mapping.__getitem__, self.inner.class_values(classes, memo)))


class PointwiseInverse(SepFunction):
    __slots__ = ("inner",)

    def __init__(self, inner: SepFunction) -> None:
        self.inner = inner

    @property
    def group(self) -> GroupSpec:
        return self.inner.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.group.inv(self.inner.eval(x, y))

    def section_partition(self, axis, fixed):
        inner = self.inner.section_partition(axis, fixed)
        return {self.group.inv(w): piece for w, piece in inner.items()}

    def values_on_rect(self, u, v):
        return frozenset(self.group.inv(w) for w in self.inner.values_on_rect(u, v))

    def _leaves(self):
        return self.inner._leaves()

    def class_values(self, classes, memo):
        return list(map(self.group.inv, self.inner.class_values(classes, memo)))


class PointwiseProduct(SepFunction):
    """(x, y) -> left(x, y) * right(x, y)."""

    __slots__ = ("left", "right")

    def __init__(self, left: SepFunction, right: SepFunction) -> None:
        self.left, self.right = left, right

    @property
    def group(self) -> GroupSpec:
        return self.left.group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.group.mul(self.left.eval(x, y), self.right.eval(x, y))

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


def resolution(fns: Iterable[SepFunction]) -> tuple[int, int]:
    """(D, P) of the leaves of fns: D the deepest table, ``diag cyl`` member
    or ``diag ones`` prefix, P the lcm of the ``diag ones`` periods.  Off
    the corner [1^D] x [1^D] every leaf is constant on each pair of depth-D
    cells; on it a ``diag ones`` leaf is the identity off the matched
    blocks and periodic in the block n from D on.  Other leaves raise."""
    depth, period = 0, 1
    for leaf in (leaf for fn in fns for leaf in fn._leaves()):
        if isinstance(leaf, TableFunction):
            depth = max(depth, leaf.depth)
        elif isinstance(leaf, CylinderDiagonal):
            depth = max([depth, *(c.depth() for c, _ in leaf.members)])
        elif isinstance(leaf, OnesDiagonal):
            depth, period = max(depth, len(leaf.prefix)), lcm(period, len(leaf.period))
        elif not isinstance(leaf, Constant):
            raise ConfigError(f"no exact point set for a {type(leaf).__name__} leaf")
    return depth, period


class GridMemo:
    """Memo tables for the sweeps.

    A sweep meets only a few distinct group elements, so every binary
    operation a sweep runs (group ``mul``, ``dist``, a ball test) goes
    through ``pairwise``, which keeps one table per operation and runs it
    once per distinct pair of values.  ``classes`` keeps each class list of
    a rectangle and each leaf's axis keys per point list, and
    ``exact_points`` hands out one point tuple per point set so those are
    found again.  A memo lives on one pipeline, one call or one ``ball``
    job and is never shared across jobs.

    The op tables are keyed by value; an element caches its hash.  Key
    lists and class lists are keyed on the identity of the functions and
    point tuples they were built from, which their entries hold, so no id
    is reused while the memo lives.
    """

    def __init__(self):
        self._points: dict[tuple, tuple[CantorPoint, ...]] = {}
        self._tables: dict[object, dict[tuple, object]] = {}
        self._axis_keys: dict[tuple[int, int], tuple] = {}
        self._classes: dict[tuple, tuple] = {}

    def exact_points(self, fns: Iterable[SepFunction],
                     side: ClopenSet | CantorPoint = ClopenSet.whole(),
                     fixed: CantorPoint | None = None) -> tuple[CantorPoint, ...]:
        """Points of ``side`` that meet every value class of fns on it, in
        lexicographic order, so a max over them is the sup over the side;
        one kept tuple per point set, so its class lists are found again.

        A point side is itself.  Otherwise, with (D, P) = ``resolution(fns)``:
        the representative (prefix, then 0^w) of each cylinder of side, cut
        into its depth-D cells where it is shallower, and the points 1^k 0^w
        in side for k in [C, C + P], C = max(D, depth of the all-ones
        cylinder of side), and, for a probe's fixed point with j leading
        ones, k = j.  Each is the first point of its class on any grid that
        holds them all, and their number grows with the cylinders of side,
        not with its depth."""
        if isinstance(side, CantorPoint):
            return self._points.setdefault((side,), (side,))
        depth, period = resolution(fns)
        key = (depth, period, side, fixed.leading_ones() if fixed is not None else None)
        if key not in self._points:
            cylinders = side.cylinders()
            corner = max([depth, *(c.depth() for c in cylinders if "0" not in c.prefix)])
            ones = {CantorPoint("1" * k) for k in {*range(corner, corner + period + 1), key[3]}
                    if k is not None}
            points = {cell.representative() for c in cylinders for cell in
                      ClopenSet.from_cylinder(c).cells_at_depth(max(depth, c.depth()))}
            points.update(p for p in ones if side.contains(p))
            top = max(len(p.preperiod) for p in points) if points else 0
            t = tuple(sorted(points, key=lambda p: _cell(p, top)))
            # Keyed by the points too, so equal point sets share one tuple.
            self._points[key] = self._points.setdefault(t, t)
        return self._points[key]

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


class GridClasses(NamedTuple):
    """Classes of xs x ys (see ``GridMemo.classes``) in x-major order of
    their first points: ``firsts`` holds each class's first x-major index
    into xs x ys, ``cells`` its (x, y) cell indices at ``depth`` and
    ``leaf_values`` the value of every leaf other than a table or a
    constant per class, by the id of the leaf."""

    depth: int
    firsts: list[int]
    cells: list[tuple[int, int]]
    leaf_values: dict[int, list[GroupElement]]


class SubbasicNbhd:
    """[K_X x K_Y, U]: functions mapping the rectangle into the finite set U."""

    __slots__ = ("kx", "ky", "allowed", "probe_id")

    def __init__(self, kx: CantorPoint | ClopenSet, ky: CantorPoint | ClopenSet,
                 allowed: frozenset[GroupElement], probe_id: str = "") -> None:
        if not (isinstance(kx, CantorPoint) or isinstance(ky, CantorPoint)):
            raise ValueError("one of K_X, K_Y must be a singleton point")
        self.kx, self.ky, self.allowed, self.probe_id = kx, ky, allowed, probe_id

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


class DistResult(NamedTuple):
    value: Fraction
    witness: tuple[CantorPoint, CantorPoint] | None = None


class MembershipResult(NamedTuple):
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


def exact_sup(op, f: SepFunction, g: SepFunction, memo: GridMemo,
              probe: SubbasicNbhd | None = None) -> tuple:
    """``grid_sup`` over the exact points of the whole square or of the
    probe rectangle: the sup of op there, with its first witness."""
    if probe is None:
        xs = ys = memo.exact_points((f, g))
    else:
        axis, fixed, other = probe.sides()
        one, side = memo.exact_points((), fixed), memo.exact_points((f, g), other, fixed)
        xs, ys = (one, side) if axis == "x" else (side, one)
    return grid_sup(op, f, g, xs, ys, memo)


def image(f: SepFunction, memo: GridMemo | None = None) -> tuple[GroupElement, ...]:
    """f(X x Y) in canonical order: f's values on the classes of the exact
    points of the square, which meet every value class of f.  ``memo`` may
    be shared with the checks of one pipeline or job, which then find its
    points and classes again; a fresh memo gives the same image."""
    memo = memo if memo is not None else GridMemo()
    pts = memo.exact_points((f,))
    values = f.class_values(memo.classes((f,), pts, pts), memo)
    return tuple(f.group.sort_canonically(set(values)))


def uniform_dist(
    f: SepFunction,
    g: SepFunction,
    side: Literal["l", "r"],
    memo: GridMemo | None = None,
) -> DistResult:
    """Sup over Cantor x Cantor of d(1, f^-1 g) (side l) or d(1, g f^-1)
    (side r), with its first witness.  The metric is left-invariant, so
    these are d(f, g) and d(g^-1, f^-1)."""
    memo = memo if memo is not None else GridMemo()
    pair = (f, g) if side == "l" else (PointwiseInverse(g), PointwiseInverse(f))
    best, point = exact_sup(f.group.dist, *pair, memo)
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

