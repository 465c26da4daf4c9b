"""Pluggable metric groups with a bounded left-invariant metric.

Every group ships exact element arithmetic, a metric valued in dyadic
rationals and bounded by 1/2, a monotone dense enumeration, its part
inside closed balls around the identity, greedy maximal separated nets
there, and the nearest point of such a net to any element.

Shipped instances: the dyadic group (coordinatewise XOR on eventually
periodic bit sequences, bi-invariant first-difference metric), finite
groups via multiplication table (discrete metric 1/2), and the additive
group of dyadic rationals with the metric min(|a - b|, 1/2).

Elements are hash-consed (``GroupSpec.element``): one object per value,
so equality is identity and element dicts and sets compare pointers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import lcm
from typing import Any, Iterable, NamedTuple

from sepcont.cantor import ALL_ZEROS, CantorPoint, point_dist

# The metric's values 0 and 1/2, shared by every distance that takes them.
_ZERO, _HALF = Fraction(0), Fraction(1, 2)


class GroupElement:
    """Opaque element handle, the one object of its value (``GroupSpec.element``);
    the payload representation depends on the group."""

    __slots__ = ("group", "payload")

    def __init__(self, group: "GroupSpec", payload: Any) -> None:
        self.group, self.payload = group, payload

    def __str__(self) -> str:
        return self.group.format_element(self)

    def __repr__(self) -> str:
        return f"<{self.group.name}:{self}>"


class GroupSpec:
    """A metric group; subclasses implement the payload-level operations.
    Its operations take elements of this group: a config names one group,
    and every element it holds is parsed with it."""

    name: str = "abstract"
    _identity_payload: Any  # set by each group

    def element(self, payload) -> GroupElement:
        """The one element with this payload; payloads are canonical values."""
        e = self._elements.get(payload)
        if e is None:
            e = self._elements[payload] = GroupElement(self, payload)
        return e

    @cached_property
    def _elements(self) -> dict[Any, GroupElement]:
        return {}

    def identity(self) -> GroupElement:
        """The identity element: ``element`` of its payload, kept on first use."""
        return self._identity_element

    @cached_property
    def _identity_element(self) -> GroupElement:
        return self.element(self._identity_payload)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(self._mul(a.payload, b.payload))

    def inv(self, a: GroupElement) -> GroupElement:
        return self.element(self._inv(a.payload))

    def dist(self, a: GroupElement, b: GroupElement) -> Fraction:
        return self._dist(a.payload, b.payload)

    def dense_enumeration(self, depth: int) -> tuple[GroupElement, ...]:
        """Finite enumeration, monotone in depth and dense at resolution 2^-(depth+1)."""
        return tuple(self.element(p) for p in self._enumerate(depth))

    def ball_enumeration(self, k: int, depth: int) -> tuple[GroupElement, ...]:
        """The sublist of ``dense_enumeration(depth)``, in its order, that lies
        in the closed ball B[2^-k] around the identity."""
        one, radius = self.identity(), Fraction(1, 2**k)
        return tuple(u for u in self.dense_enumeration(depth) if self.dist(one, u) <= radius)

    def two_sided_member(self, a: GroupElement, b: GroupElement, eps: Fraction) -> bool:
        """Is b = u a u' for some u, u' with d(1, u), d(1, u') < eps?  The
        metric is left-invariant, so u' = (u a)^-1 b has d(1, u') = d(u a, b)."""
        raise NotImplementedError

    def canonical_key(self, a: GroupElement):
        """Deterministic total order used for greedy scans and tie-breaking."""
        return self._key(a.payload)

    def sort_canonically(self, elements: Iterable[GroupElement]) -> list[GroupElement]:
        return sorted(elements, key=self.canonical_key)

    def format_element(self, a: GroupElement) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> GroupElement:
        raise NotImplementedError

    def cover_key(self, a: GroupElement, level: int):
        """Hashable class key giving a diameter <= 2^-(level+1) partition, or None.

        Groups without a structural partition return None and fall back to
        greedy clustering.
        """
        return None

    def net_enumeration_depth(self, k: int) -> int:
        """Enumeration depth of the ``nets`` report's check of net(k)."""
        return k + 4

    def net_nearest(self, k: int, t: GroupElement) -> GroupElement:
        """The element of net(k) (``ball_net``) nearest to t, ties by canonical
        order; each group writes it in closed form."""
        raise NotImplementedError

    # payload-level hooks
    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _dist(self, a, b) -> Fraction:
        raise NotImplementedError

    def _enumerate(self, depth: int) -> list:
        raise NotImplementedError

    def _key(self, a):
        raise NotImplementedError


def _xor_points(a: CantorPoint, b: CantorPoint) -> CantorPoint:
    pre = max(len(a.preperiod), len(b.preperiod))
    n = pre + lcm(len(a.period), len(b.period))
    bits = format(int(a.prefix(n), 2) ^ int(b.prefix(n), 2), f"0{n}b")
    return CantorPoint(bits[:pre], bits[pre:])


class DyadicGroup(GroupSpec):
    """(Z/2)^omega under coordinatewise XOR; d(a, b) = 2^-(i+1) at the first differing bit."""

    name = "dyadic"
    _identity_payload = ALL_ZEROS

    def _mul(self, a: CantorPoint, b: CantorPoint) -> CantorPoint:
        return _xor_points(a, b)

    def _inv(self, a: CantorPoint) -> CantorPoint:
        return a  # every element is an involution

    def _dist(self, a: CantorPoint, b: CantorPoint) -> Fraction:
        return point_dist(a, b)

    def _enumerate(self, depth: int) -> list[CantorPoint]:
        out = [ALL_ZEROS]
        for d in range(1, depth + 1):
            for bits in iter_product("01", repeat=d - 1):
                out.append(CantorPoint("".join(bits) + "1", "0"))
        return out

    def ball_enumeration(self, k, depth):
        # d(1, a) = 2^-(i+1) at the first 1-bit i, so B[2^-k] holds the
        # identity and the points whose first k-1 bits are 0; the metric's
        # bound of 1/2 puts every point in the ball for k <= 1.
        if k <= 1:
            return self.dense_enumeration(depth)
        zeros = "0" * (k - 1)
        return (self.identity(),) + tuple(
            self.element(CantorPoint(zeros + "".join(bits) + "1", "0"))
            for d in range(k, depth + 1)
            for bits in iter_product("01", repeat=d - k)
        )

    def two_sided_member(self, a, b, eps):
        # An ultrametric: the open ball B(eps) is a subgroup, and XOR is
        # abelian, so b = u a u' with u, u' in it exactly when a b is.
        return self.dist(a, b) < eps

    def _key(self, a: CantorPoint):
        if a.period == "0":
            return (0, len(a.preperiod), a.preperiod, "")
        return (1, len(a.preperiod) + len(a.period), a.preperiod, a.period)

    def format_element(self, a: GroupElement) -> str:
        return str(a.payload)

    def parse_element(self, text: str) -> GroupElement:
        return self.element(CantorPoint.parse(text))

    def cover_key(self, a: GroupElement, level: int):
        # Same first level+1 coordinates => distance <= 2^-(level+2).
        return a.payload.prefix(level + 1)

    def net_nearest(self, k, t):
        # net(k) is the ball's points of support in [0, k+2).  The metric is
        # an ultrametric: a point of the ball is nearest to its (k+2)-bit
        # truncation, and one outside is equally far from every net point.
        bits = t.payload.prefix(k + 2)
        if "1" in bits[: max(k - 1, 0)]:
            return self.identity()
        return self.element(CantorPoint(bits, "0"))


class FiniteTableGroup(GroupSpec):
    """A finite group given by its multiplication table, with the discrete metric 1/2."""

    def __init__(self, name: str, table: list[list[int]], labels: list[str] | None = None):
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if any(sorted(row) != list(range(n)) for row in table):
            raise ValueError("each table row must be a permutation")
        self.name = name
        self._table = tuple(tuple(row) for row in table)
        self._labels = tuple(labels) if labels else tuple(str(i) for i in range(n))
        self._identity_payload = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        n = len(self._table)
        for e in range(n):
            if all(self._table[e][x] == x and self._table[x][e] == x for x in range(n)):
                return e
        raise ValueError("table has no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        n = len(self._table)
        inv = []
        for x in range(n):
            ys = [y for y in range(n) if self._table[x][y] == self._identity_payload]
            if len(ys) != 1:
                raise ValueError(f"element {x} has no unique inverse")
            inv.append(ys[0])
        return tuple(inv)

    def _check_associativity(self) -> None:
        n = len(self._table)
        t = self._table
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise ValueError("multiplication table is not associative")

    def _mul(self, a: int, b: int) -> int:
        return self._table[a][b]

    def _inv(self, a: int) -> int:
        return self._inverse[a]

    def _dist(self, a: int, b: int) -> Fraction:
        return _ZERO if a == b else _HALF

    def _enumerate(self, depth: int) -> list[int]:
        return list(range(len(self._table)))

    def _key(self, a: int):
        return a

    def two_sided_member(self, a, b, eps):
        # The open eps-ball is the whole group for eps > 1/2 and the
        # identity alone otherwise.
        return eps > _HALF or a is b

    def net_nearest(self, k, t):
        # B[2^-k] is the whole group for k <= 1, whose points are 1/2 apart,
        # and the identity alone for k >= 2.
        return t if k <= 1 else self.identity()

    def format_element(self, a: GroupElement) -> str:
        return self._labels[a.payload]

    def parse_element(self, text: str) -> GroupElement:
        s = text.strip()
        if s in self._labels:
            return self.element(self._labels.index(s))
        raise ValueError(f"unknown element {text!r} of group {self.name}")

    def net_enumeration_depth(self, k: int) -> int:
        return 0


def cyclic_group(order: int) -> FiniteTableGroup:
    if order < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return FiniteTableGroup(f"cyclic:{order}", table)


class RealBoundedGroup(GroupSpec):
    """(dyadic rationals, +) with metric min(|a - b|, 1/2)."""

    name = "real"
    _identity_payload = _ZERO

    def _mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def _inv(self, a: Fraction) -> Fraction:
        return -a

    def _dist(self, a: Fraction, b: Fraction) -> Fraction:
        return min(abs(a - b), _HALF)

    def _enumerate(self, depth: int) -> list[Fraction]:
        return self._sorted_multiples(2**depth, depth)

    def _sorted_multiples(self, bound: int, depth: int) -> list[Fraction]:
        """j / 2^depth for |j| <= bound, in canonical order."""
        vals = [Fraction(j, 2**depth) for j in range(-bound, bound + 1)]
        return sorted(vals, key=self._key)

    def ball_enumeration(self, k, depth):
        # For k >= 2, d(0, a) <= 2^-k means |a| <= 2^-k, i.e. |j| <= 2^(depth-k);
        # the metric's bound of 1/2 puts every enumerated value in the ball for k <= 1.
        if k <= 1:
            return self.dense_enumeration(depth)
        bound = 2 ** (depth - k) if depth >= k else 0
        return tuple(self.element(p) for p in self._sorted_multiples(bound, depth))

    def two_sided_member(self, a, b, eps):
        # For eps <= 1/2 the ball is the open interval (-eps, eps), which holds
        # dyadics u, u' with u + u' = b - a exactly when |b - a| < 2 eps.
        return eps > _HALF or abs(b.payload - a.payload) < 2 * eps

    def _key(self, a: Fraction):
        e = a.denominator.bit_length() - 1
        return (e, abs(a.numerator), a.numerator)

    def format_element(self, a: GroupElement) -> str:
        from sepcont.reports import dyadic_str

        return dyadic_str(a.payload)

    def parse_element(self, text: str) -> GroupElement:
        from sepcont.reports import parse_dyadic

        return self.element(parse_dyadic(text))

    def net_nearest(self, k, t):
        # net(k) is the multiples of 2^-(k+2) in B[2^-k], which is all of R
        # for k <= 1.  Ties go to the canonically first point: round() picks
        # the even multiple, and 0 wins when every net point is 1/2 away.
        step = Fraction(1, 2 ** (k + 2))
        a = round(t.payload / step) * step
        if k >= 2:
            a = min(max(a, -4 * step), 4 * step)
        return self.element(a) if abs(a - t.payload) < _HALF else self.identity()


_DYADIC = DyadicGroup()
_REAL = RealBoundedGroup()


@lru_cache(maxsize=None)
def _cyclic_cached(order: int) -> FiniteTableGroup:
    return cyclic_group(order)


# The table group checks associativity in order^3 steps at construction.
MAX_CYCLIC_ORDER = 64


def get_group(name: str) -> GroupSpec:
    """Resolve a group by config name: ``dyadic``, ``cyclic:<order>`` with
    order at most MAX_CYCLIC_ORDER, ``real``."""
    s = name.strip()
    if s == "dyadic":
        return _DYADIC
    if s == "real":
        return _REAL
    if s.startswith("cyclic:"):
        try:
            order = int(s.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad cyclic group order in {name!r}") from None
        if order > MAX_CYCLIC_ORDER:
            raise ValueError(f"cyclic group order {order} exceeds {MAX_CYCLIC_ORDER}")
        return _cyclic_cached(order)
    raise ValueError(f"unknown group {name!r}")


class SeparatedNet(NamedTuple):
    """A greedy maximal separated subset of the closed ball B[2^-k]."""

    group: GroupSpec
    scale_index: int
    radius: Fraction
    separation: Fraction
    elements: tuple[GroupElement, ...]
    enumeration_depth: int

    def check_ball_containment(self) -> bool:
        one = self.group.identity()
        return all(self.group.dist(one, e) <= self.radius for e in self.elements)

    def check_pairwise_separation(self) -> bool:
        els = self.elements
        return all(
            self.group.dist(els[i], els[j]) >= self.separation
            for i in range(len(els))
            for j in range(i + 1, len(els))
        )

    def check_maximality(self) -> bool:
        """No enumerated ball element is >= separation away from every net element."""
        for cand in self.group.ball_enumeration(self.scale_index, self.enumeration_depth):
            if all(self.group.dist(cand, e) >= self.separation for e in self.elements):
                return False
        return True


def ball_net(group: GroupSpec, k: int, enumeration_depth: int) -> SeparatedNet:
    """Greedy maximal 2^-(k+2)-separated subset of B[2^-k], relative to the
    enumeration depth: the ball's part of the enumeration at depth
    min(enumeration_depth, k + 2).

    A greedy scan of the ball in canonical order keeps every candidate at
    least the separation away from all kept ones.  Every shipped group
    enumerates each point of resolution 2^-(k+2) before any finer point,
    and those points are pairwise at least the separation apart, so the
    scan keeps all of them.  Every finer point of the ball then lies within
    2^-(k+3) of one of them and is dropped: for the dyadic group its
    (k+2)-bit truncation, for the reals the nearest multiple of 2^-(k+2),
    which lies in the ball because the ball's ends are multiples.  Finite
    groups enumerate every element at every depth, 1/2 apart.
    ``SeparatedNet.check_pairwise_separation`` and ``check_maximality``
    still check the result, the latter at the full enumeration depth.  The
    quantizer tower reads ``GroupSpec.net_nearest`` instead.
    """
    return SeparatedNet(
        group,
        k,
        Fraction(1, 2**k),
        Fraction(1, 2 ** (k + 2)),
        group.ball_enumeration(k, min(enumeration_depth, k + 2)),
        enumeration_depth,
    )
