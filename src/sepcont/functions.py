"""Separately continuous functions on Cantor x Cantor as combinator trees.

The leaves are ``Constant``, ``TableFunction`` and the diagonal
indicators ``OnesDiagonal`` (the members [1^n 0] for every n, with an
eventually periodic value schedule) and ``CylinderDiagonal`` (finitely many
disjoint cylinders), which share ``DiagonalIndicator``'s rule: the value of
member n on the block of member n squared, the identity elsewhere.  Every
combinator evaluates exactly at eventually periodic points and answers
one structural query, ``section_partition``: the level sets of a
fixed-coordinate section, exact nonempty clopen sets keyed by value that
partition the space, which is the executable form of separate continuity.

Also houses the subbasic neighbourhoods [K_X x K_Y, U] (one side a
singleton, so every probe reads one section partition), the uniform
distance and the kernel behind every sup a check takes:

* ``exact_points`` — a finite point set, read off the leaves, that meets
  every value class of a check's functions on a side: a few points per
  side, 2^D + P on the whole square;
* ``SepFunction.grid_values`` — a function's values on the points of a
  rectangle xs x ys, x-major, the one lowering of a combinator tree onto
  a grid;
* ``DiagonalIndicator.axis_key`` and ``pair_value`` — a diagonal leaf
  read one axis at a time, through the index of the member holding each
  coordinate, so its values on a rectangle take one key per point;
* ``pairwise`` — an operation on two zipped value lists, run once per
  distinct pair of values in the call;
* ``value_pairs`` — the distinct pairs of two zipped value lists, in the
  order of their first points; ``grid_sup`` — the max of an operation over
  them, witnessed by the first point of the first pair attaining it, which
  ``exact_sup`` takes over the square's or a probe's ``exact_rectangle``;
* ``image`` — the values a function takes, f(X x Y) itself, read off the
  exact points of the square.

Each of these is a function of its arguments alone: nothing is kept
between calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, starmap
from math import lcm
from typing import Iterable, Literal, NamedTuple

from sepcont.cantor import CantorPoint, ClopenSet, check_bits
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

    def _leaves(self) -> tuple["SepFunction", ...]:
        """The leaves of the combinator tree, left to right."""
        return (self,)

    def grid_values(self, xs, ys) -> list[GroupElement]:
        """The value at each point of xs x ys, x-major."""
        raise NotImplementedError


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

    def grid_values(self, xs, ys):
        return [self.value] * (len(xs) * len(ys))


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

    def grid_values(self, xs, ys):
        depth = self.depth
        cols = [_cell(p, depth) for p in ys]
        rows = cols if xs is ys else [_cell(p, depth) for p in xs]
        return [row[j] for row in map(self.values.__getitem__, rows) for j in cols]


class DiagonalIndicator(SepFunction):
    """f(x, y) = the value of member n when x and y both lie in member n, else
    the identity.

    The members are pairwise disjoint cylinders, so each section is locally
    constant.  A leaf class names the member holding a point (``axis_key``),
    member n (``member``) and its value (``value_at``).  With infinitely
    many members accumulating at the all-ones point and a non-identity
    schedule, f is jointly discontinuous there.
    """

    @property
    def group(self) -> GroupSpec:
        return self.value_at(0).group

    def eval(self, x: CantorPoint, y: CantorPoint) -> GroupElement:
        return self.pair_value(self.axis_key(x), self.axis_key(y))

    def grid_values(self, xs, ys):
        """The axis key of each point, the value once per distinct key of
        xs, and the identity wherever the two keys differ (``pair_value``);
        two all-ones coordinates, both keyed None, take the identity too."""
        kx = list(map(self.axis_key, xs))
        ky = kx if ys is xs else list(map(self.axis_key, ys))
        one = self.group.identity()
        at = {a: one if a is None else self.value_at(a) for a in set(kx)}
        return [at[a] if a == b else one for a in kx for b in ky]

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
        member = ClopenSet.from_prefixes((self.member(n),))
        parts = {self.value_at(n): member, identity: member.complement()}
        return {z: piece for z, piece in parts.items() if not piece.is_empty()}


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

    def member(self, n: int) -> str:
        return "1" * n + "0"

    def value_at(self, n: int) -> GroupElement:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]


class CylinderDiagonal(DiagonalIndicator):
    """Finitely many pairwise disjoint cylinders, each with its value."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[tuple[str, GroupElement], ...]) -> None:
        prefixes = [s for s, _ in members]
        for s in prefixes:
            check_bits(s, "prefix")
        for i, s in enumerate(prefixes):
            for t in prefixes[i + 1 :]:
                if s.startswith(t) or t.startswith(s):
                    raise ValueError(
                        f"family cylinders must be pairwise disjoint: {s!r} overlaps {t!r}"
                    )
        self.members = members

    def axis_key(self, p: CantorPoint) -> int | None:
        return next((n for n, (s, _) in enumerate(self.members) if p.starts_with(s)), None)

    def member(self, n: int) -> str:
        return self.members[n][0]

    def value_at(self, n: int) -> GroupElement:
        return self.members[n][1]


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

    def _leaves(self):
        return self.inner._leaves()

    def grid_values(self, xs, ys):
        return list(map(self.mapping.__getitem__, self.inner.grid_values(xs, ys)))


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

    def _leaves(self):
        return self.inner._leaves()

    def grid_values(self, xs, ys):
        """inv runs once per distinct value, however many points take it."""
        inner = self.inner.grid_values(xs, ys)
        inverse = {z: self.group.inv(z) for z in set(inner)}
        return list(map(inverse.__getitem__, inner))


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

    def _leaves(self):
        return self.left._leaves() + self.right._leaves()

    def grid_values(self, xs, ys):
        """mul runs once per distinct pair of values (``pairwise``)."""
        return pairwise(self.group.mul, self.left.grid_values(xs, ys),
                        self.right.grid_values(xs, ys))


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
            depth = max([depth, *(len(s) for s, _ in leaf.members)])
        elif isinstance(leaf, OnesDiagonal):
            depth, period = max(depth, len(leaf.prefix)), lcm(period, len(leaf.period))
        elif not isinstance(leaf, Constant):
            raise ConfigError(f"no exact point set for a {type(leaf).__name__} leaf")
    return depth, period


def exact_points(fns: Iterable[SepFunction], side: ClopenSet | CantorPoint = ClopenSet.whole(),
                 fixed: CantorPoint | None = None) -> tuple[CantorPoint, ...]:
    """Points of ``side`` that meet every value class of fns on it, in
    lexicographic order, so a max over them is the sup over the side.

    A point side is itself.  Otherwise, with (D, P) = ``resolution(fns)``:
    the representative (prefix, then 0^w) of each cylinder of side, cut
    into its depth-D cells where it is shallower, and the points 1^k 0^w in
    side for k in [C, C + P], C = max(D, depth of the all-ones cylinder of
    side), and, for a probe's fixed point with j leading ones, k = j.  Each
    is the first point of its class on any grid that holds them all, and
    their number grows with the cylinders of side, not with its depth."""
    if isinstance(side, CantorPoint):
        return (side,)
    depth, period = resolution(fns)
    prefixes = side.prefixes()
    corner = max([depth, *(len(s) for s in prefixes if "0" not in s)])
    matched = fixed.leading_ones() if fixed is not None else None
    ones = {CantorPoint("1" * k) for k in {*range(corner, corner + period + 1), matched}
            if k is not None}
    points = {CantorPoint(s + "".join(bits)) for s in prefixes
              for bits in product("01", repeat=max(0, depth - len(s)))}
    points.update(p for p in ones if side.contains(p))
    # Each point is its preperiod, empty or ending in a 1, then 0^w, so the
    # order of the preperiods is the lexicographic order of the points.
    return tuple(sorted(points, key=lambda p: p.preperiod))


def pairwise(op, left: Iterable, right: Iterable) -> list:
    """op(a, b) for each zipped pair, run once per distinct pair of values
    in this call."""
    table: dict[tuple, object] = {}
    out = []
    for key in zip(left, right):
        c = table.get(key)
        if c is None:
            c = table[key] = op(*key)
        out.append(c)
    return out


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


def value_pairs(left: list, right: list) -> list[tuple]:
    """The distinct pairs of two zipped value lists, in the order of their
    first index: on a rectangle, the x-major order of their first points."""
    return list(dict.fromkeys(zip(left, right)))


def grid_sup(op, f: SepFunction, g: SepFunction, xs: tuple[CantorPoint, ...],
             ys: tuple[CantorPoint, ...]) -> tuple:
    """The max of op(f(p), g(p)) over p in xs x ys, op run once per distinct
    pair (``value_pairs``), and the first point, x-major, of the first pair
    attaining it; (0, None) on an empty rectangle."""
    fv, gv = f.grid_values(xs, ys), g.grid_values(xs, ys)
    pairs = value_pairs(fv, gv)
    if not pairs:
        return Fraction(0), None
    values = list(starmap(op, pairs))
    best = max(values)
    i, j = divmod(list(zip(fv, gv)).index(pairs[values.index(best)]), len(ys))
    return best, (xs[i], ys[j])


def exact_rectangle(fns: tuple, probe: SubbasicNbhd | None = None) -> tuple:
    """(xs, ys): the exact points of fns on the whole square or the probe rectangle."""
    if probe is None:
        return (exact_points(fns),) * 2
    axis, fixed, other = probe.sides()
    one, side = (fixed,), exact_points(fns, other, fixed)
    return (one, side) if axis == "x" else (side, one)


def exact_sup(op, f: SepFunction, g: SepFunction, probe: SubbasicNbhd | None = None) -> tuple:
    """``grid_sup`` over the ``exact_rectangle`` of f and g."""
    return grid_sup(op, f, g, *exact_rectangle((f, g), probe))


def image(f: SepFunction) -> tuple[GroupElement, ...]:
    """f(X x Y) in canonical order: f's values on the exact points of the
    square, which meet every value class of f."""
    pts = exact_points((f,))
    return tuple(f.group.sort_canonically(set(f.grid_values(pts, pts))))


def uniform_dist(f: SepFunction, g: SepFunction, side: Literal["l", "r"]) -> DistResult:
    """Sup over Cantor x Cantor of d(1, f^-1 g) (side l) or d(1, g f^-1)
    (side r), with its first witness.  The metric is left-invariant, so
    these are d(f, g) and d(g^-1, f^-1)."""
    best, point = exact_sup(f.group.dist if side == "l" else _inverse_dist, f, g)
    return DistResult(best, point if best > 0 else None)


def _inverse_dist(a: GroupElement, b: GroupElement) -> Fraction:
    """d(b^-1, a^-1), side r of ``uniform_dist``."""
    group = a.group
    return group.dist(group.inv(b), group.inv(a))


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
    x, y = nbhd.point(CantorPoint(violating.prefixes()[0]))
    return MembershipResult(False, (x, y, f.eval(x, y)))

