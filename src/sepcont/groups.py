"""Pluggable metric groups with a bounded left-invariant metric.

Every group ships exact element arithmetic, a metric valued in dyadic
rationals and bounded by 1/2, a monotone dense enumeration, its part
inside closed balls around the identity, and greedy maximal separated
nets there.

Shipped instances: the dyadic group (coordinatewise XOR on eventually
periodic bit sequences, bi-invariant first-difference metric), finite
groups via multiplication table (discrete metric 1/2), and the additive
group of dyadic rationals with the metric min(|a - b|, 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import Any, Iterable

from sepcont.cantor import ALL_ZEROS, CantorPoint, point_dist
from sepcont.errors import GroupMismatchError, NetMaximalityError


@dataclass(frozen=True)
class GroupElement:
    """Opaque element handle; the payload representation depends on the group."""

    group: "GroupSpec"
    payload: Any

    @cached_property
    def _hash(self) -> int:
        return hash((self.group, self.payload))

    def __hash__(self) -> int:
        # The dataclass hash, computed once: elements key many dicts and sets.
        return self._hash

    def __str__(self) -> str:
        return self.group.format_element(self)

    def __repr__(self) -> str:
        return f"<{self.group.name}:{self}>"


class GroupSpec:
    """A metric group; subclasses implement the payload-level operations."""

    name: str = "abstract"
    _identity_payload: Any  # set by each group

    def element(self, payload) -> GroupElement:
        return GroupElement(self, payload)

    def identity(self) -> GroupElement:
        """The identity element: one object per group, made on first use."""
        return self._identity_element

    @cached_property
    def _identity_element(self) -> GroupElement:
        return self.element(self._identity_payload)

    def _require(self, *elements: GroupElement) -> None:
        for e in elements:
            if e.group is not self:
                raise GroupMismatchError(
                    f"element of group {e.group.name!r} used with group {self.name!r}"
                )

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._require(a, b)
        return self.element(self._mul(a.payload, b.payload))

    def inv(self, a: GroupElement) -> GroupElement:
        self._require(a)
        return self.element(self._inv(a.payload))

    def dist(self, a: GroupElement, b: GroupElement) -> Fraction:
        self._require(a, b)
        return self._dist(a.payload, b.payload)

    def dense_enumeration(self, depth: int) -> tuple[GroupElement, ...]:
        """Finite enumeration, monotone in depth and dense at resolution 2^-(depth+1)."""
        return tuple(self.element(p) for p in self._enumerate(depth))

    def ball_enumeration(self, k: int, depth: int) -> tuple[GroupElement, ...]:
        """The sublist of ``dense_enumeration(depth)``, in its order, that lies
        in the closed ball B[2^-k] around the identity."""
        one, radius = self.identity(), Fraction(1, 2**k)
        return tuple(u for u in self.dense_enumeration(depth) if self.dist(one, u) <= radius)

    def canonical_key(self, a: GroupElement):
        """Deterministic total order used for greedy scans and tie-breaking."""
        self._require(a)
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

    def net_enumeration_depth(self, k: int, sample: tuple[GroupElement, ...]) -> int:
        """Default enumeration depth for nets serving a quantizer step at scale k."""
        return k + 4

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
    from math import lcm

    pre = max(len(a.preperiod), len(b.preperiod))
    per = lcm(len(a.period), len(b.period))
    bits = [str(a.bit(i) ^ b.bit(i)) for i in range(pre + per)]
    return CantorPoint("".join(bits[:pre]), "".join(bits[pre:]))


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

    def order(self) -> int:
        return len(self._table)

    def _mul(self, a: int, b: int) -> int:
        return self._table[a][b]

    def _inv(self, a: int) -> int:
        return self._inverse[a]

    def _dist(self, a: int, b: int) -> Fraction:
        return Fraction(0) if a == b else Fraction(1, 2)

    def _enumerate(self, depth: int) -> list[int]:
        return list(range(len(self._table)))

    def _key(self, a: int):
        return a

    def format_element(self, a: GroupElement) -> str:
        return self._labels[a.payload]

    def parse_element(self, text: str) -> GroupElement:
        s = text.strip()
        if s in self._labels:
            return self.element(self._labels.index(s))
        raise ValueError(f"unknown element {text!r} of group {self.name}")

    def net_enumeration_depth(self, k: int, sample) -> int:
        return 0


def cyclic_group(order: int) -> FiniteTableGroup:
    if order < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return FiniteTableGroup(f"cyclic:{order}", table)


def symmetric_group_3() -> FiniteTableGroup:
    """S3 as a multiplication table; the smallest nonabelian test group."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    labels = ["e", "r", "rr", "s", "sr", "srr"]
    return FiniteTableGroup("sym:3", table, labels)


class RealBoundedGroup(GroupSpec):
    """(dyadic rationals, +) with metric min(|a - b|, 1/2)."""

    name = "real"
    _identity_payload = Fraction(0)

    @staticmethod
    def _check_dyadic(q: Fraction) -> Fraction:
        if q.denominator & (q.denominator - 1):
            raise ValueError(f"{q} is not a dyadic rational")
        return q

    def _mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def _inv(self, a: Fraction) -> Fraction:
        return -a

    def _dist(self, a: Fraction, b: Fraction) -> Fraction:
        return min(abs(a - b), Fraction(1, 2))

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

    def _key(self, a: Fraction):
        e = a.denominator.bit_length() - 1
        return (e, abs(a.numerator), a.numerator)

    def format_element(self, a: GroupElement) -> str:
        from sepcont.reports import dyadic_str

        return dyadic_str(a.payload)

    def parse_element(self, text: str) -> GroupElement:
        from sepcont.reports import parse_dyadic

        return self.element(self._check_dyadic(parse_dyadic(text)))

    def net_enumeration_depth(self, k: int, sample) -> int:
        depth = k + 4
        for e in sample:
            depth = max(depth, e.payload.denominator.bit_length() + 1)
        return depth


_DYADIC = DyadicGroup()
_REAL = RealBoundedGroup()


@lru_cache(maxsize=None)
def _cyclic_cached(order: int) -> FiniteTableGroup:
    return cyclic_group(order)


def get_group(name: str) -> GroupSpec:
    """Resolve a group by config name: ``dyadic``, ``cyclic:<order>``, ``real``."""
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
        return _cyclic_cached(order)
    raise ValueError(f"unknown group {name!r}")


@dataclass(frozen=True)
class SeparatedNet:
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

    def nearest(self, target: GroupElement) -> tuple[GroupElement, Fraction]:
        """Closest net element to target, ties broken by canonical order."""
        if not self.elements:
            raise NetMaximalityError("net is empty")
        best = min(
            self.elements,
            key=lambda e: (self.group.dist(e, target), self.group.canonical_key(e)),
        )
        return best, self.group.dist(best, target)


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
    still check the result, the latter at the full enumeration depth.
    """
    if not group.dense_enumeration(0):
        raise ValueError("dense enumeration is empty")
    return SeparatedNet(
        group,
        k,
        Fraction(1, 2**k),
        Fraction(1, 2 ** (k + 2)),
        group.ball_enumeration(k, min(enumeration_depth, k + 2)),
        enumeration_depth,
    )
