"""Exact arithmetic on the Cantor space {0,1}^omega.

Points are eventually periodic binary sequences kept in canonical form
(minimal period, then minimal preperiod), so equality is decidable and
every bit is computable.  Clopen sets are finite unions of cylinders,
stored as canonical binary tries closed under union, intersection and
complement.  The metric is d(x, y) = 2^-(i+1) with i the first index
where x and y differ.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm

_POINT_RE = re.compile(r"^([01]*)(?:\(([01]+)\))?$")


def _check_bits(s: str, what: str) -> None:
    if s.strip("01"):
        raise ValueError(f"{what} must consist of 0/1 characters, got {s!r}")


def _minimal_period(period: str) -> str:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class CantorPoint:
    """A point of {0,1}^omega: ``preperiod`` followed by ``period`` forever."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str = "", period: str = "0") -> None:
        _check_bits(preperiod, "preperiod")
        _check_bits(period, "period")
        if not period:
            raise ValueError("period must be nonempty")
        pre, per = preperiod, _minimal_period(period)
        # Absorb preperiod bits that already follow the cycle.
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        self.preperiod, self.period = pre, per

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    @staticmethod
    def parse(text: str) -> "CantorPoint":
        """Parse ``110(0)`` (preperiod 110, period 0); a bare prefix gets period 0.
        Blank text is rejected rather than read as the empty prefix."""
        s = text.strip()
        m = _POINT_RE.match(s) if s else None
        if m is None:
            raise ValueError(f"bad point literal: {text!r}")
        pre, per = m.group(1), m.group(2)
        return CantorPoint(pre, per if per is not None else "0")

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"

    def bit(self, i: int) -> int:
        if i < 0:
            raise IndexError("bit index must be nonnegative")
        if i < len(self.preperiod):
            return int(self.preperiod[i])
        return int(self.period[(i - len(self.preperiod)) % len(self.period)])

    def prefix(self, n: int) -> str:
        reps = -(-(n - len(self.preperiod)) // len(self.period))
        return (self.preperiod + self.period * reps)[:n]

    def starts_with(self, prefix: str) -> bool:
        return self.prefix(len(prefix)) == prefix

    def leading_ones(self) -> int | None:
        """Number of leading 1 bits; None for the all-ones point.  Every
        other canonical point has a 0 in its preperiod or period."""
        if self.preperiod == "" and self.period == "1":
            return None
        s = self.preperiod + self.period
        return len(s) - len(s.lstrip("1"))


ALL_ONES = CantorPoint("", "1")
ALL_ZEROS = CantorPoint("", "0")


def first_difference(x: CantorPoint, y: CantorPoint) -> int | None:
    """First index where x and y differ, or None if x == y.

    Eventually periodic sequences agreeing up to max preperiod + lcm of the
    period lengths agree everywhere, so the scan is bounded.
    """
    if x == y:
        return None
    bound = max(len(x.preperiod), len(y.preperiod)) + lcm(len(x.period), len(y.period))
    for i in range(bound):
        if x.bit(i) != y.bit(i):
            return i
    raise AssertionError("distinct canonical points must differ within the bound")


def point_dist(x: CantorPoint, y: CantorPoint) -> Fraction:
    i = first_difference(x, y)
    if i is None:
        return Fraction(0)
    return Fraction(1, 2 ** (i + 1))


class Cylinder:
    """All sequences extending a fixed finite prefix; the empty prefix is the whole space."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str = "") -> None:
        _check_bits(prefix, "prefix")
        self.prefix = prefix

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.prefix == other.prefix

    def __hash__(self) -> int:
        return hash((self.prefix,))

    def depth(self) -> int:
        return len(self.prefix)

    def contains(self, p: CantorPoint) -> bool:
        return p.starts_with(self.prefix)

    def representative(self) -> CantorPoint:
        """Canonical sample point: the prefix followed by zeros."""
        return CantorPoint(self.prefix, "0")

    def limit_representative(self) -> CantorPoint:
        """The prefix followed by its own last bit forever.

        For an all-ones prefix this is the accumulation point of the cylinder
        that a zero-tail sample would never see.
        """
        tail = self.prefix[-1] if self.prefix else "0"
        return CantorPoint(self.prefix, tail)

    def is_subset_of(self, other: "Cylinder") -> bool:
        return self.prefix.startswith(other.prefix)

    def overlaps(self, other: "Cylinder") -> bool:
        return self.prefix.startswith(other.prefix) or other.prefix.startswith(self.prefix)

    def cell_range(self, d: int) -> range:
        """Indices ``int(prefix, 2)`` of the depth-d cells meeting the cylinder:
        the cells inside it, or the one cell containing it when it is deeper."""
        if len(self.prefix) >= d:
            i = int(self.prefix[:d], 2) if d else 0
            return range(i, i + 1)
        shift = d - len(self.prefix)
        start = int(self.prefix, 2) << shift if self.prefix else 0
        return range(start, start + (1 << shift))


def basis_cylinder(k: int) -> Cylinder:
    """The k-th cylinder in the canonical base (by prefix length, then lexicographic)."""
    if k < 0:
        raise ValueError("basis index must be nonnegative")
    if k == 0:
        return Cylinder("")
    length, total = 1, 1
    while total + 2**length <= k:
        total += 2**length
        length += 1
    return Cylinder(format(k - total, f"0{length}b"))


def basis_index(prefix: str) -> int:
    _check_bits(prefix, "prefix")
    if not prefix:
        return 0
    return 2 ** len(prefix) - 1 + int(prefix, 2)


def partition_at_depth(d: int) -> list[Cylinder]:
    """The 2^d depth-d cylinders, pairwise disjoint, covering the space."""
    if d < 0:
        raise ValueError("depth must be nonnegative")
    if d == 0:
        return [Cylinder("")]
    return [Cylinder(format(i, f"0{d}b")) for i in range(2**d)]


# A clopen set is stored as a binary trie: True = full subtree, False = empty,
# or a pair (zero-branch, one-branch).  Normalisation collapses (True, True)
# and (False, False), which makes the representation canonical, so structural
# equality of tries is equality of sets.
def _node(z, o):
    if z is True and o is True:
        return True
    if z is False and o is False:
        return False
    return (z, o)


def _from_prefix(prefix: str):
    if not prefix:
        return True
    child = _from_prefix(prefix[1:])
    return (child, False) if prefix[0] == "0" else (False, child)


def _union(a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    return _node(_union(a[0], b[0]), _union(a[1], b[1]))


def _intersect(a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    return _node(_intersect(a[0], b[0]), _intersect(a[1], b[1]))


def _complement(a):
    if a is True:
        return False
    if a is False:
        return True
    return _node(_complement(a[0]), _complement(a[1]))


def _depth(a) -> int:
    if a is True or a is False:
        return 0
    return 1 + max(_depth(a[0]), _depth(a[1]))


def _cell_indices(a, levels: int, index: int, out: list[int]) -> bool:
    """Append, ascending, the indices of the cells ``levels`` below the node
    at ``index`` that lie in ``a``; False when ``a`` is deeper than that."""
    if a is True:
        out.extend(range(index << levels, (index + 1) << levels))
        return True
    if a is False:
        return True
    if levels == 0:
        return False
    return _cell_indices(a[0], levels - 1, 2 * index, out) and _cell_indices(
        a[1], levels - 1, 2 * index + 1, out
    )


def _from_cells(cells: list[int], levels: int, index: int):
    """The trie of ``cells``, ascending and distinct, all among the cells
    ``levels`` below the node at ``index``."""
    if not cells:
        return False
    if len(cells) == 1 << levels:
        return True
    mid = bisect_left(cells, (2 * index + 1) << (levels - 1))
    return _node(
        _from_cells(cells[:mid], levels - 1, 2 * index),
        _from_cells(cells[mid:], levels - 1, 2 * index + 1),
    )


def _leaves(a, path: str, out: list[str]) -> None:
    if a is True:
        out.append(path)
    elif a is False:
        return
    else:
        _leaves(a[0], path + "0", out)
        _leaves(a[1], path + "1", out)


class ClopenSet:
    """A clopen subset of Cantor space with exact set algebra."""

    # ``own_cells`` is a cached_property, which needs a __dict__.
    __slots__ = ("trie", "__dict__")

    def __init__(self, trie: object = False) -> None:
        self.trie = trie

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.trie == other.trie

    def __hash__(self) -> int:
        return hash((self.trie,))

    @staticmethod
    def empty() -> "ClopenSet":
        return ClopenSet(False)

    @staticmethod
    def whole() -> "ClopenSet":
        return ClopenSet(True)

    @staticmethod
    def from_prefixes(prefixes) -> "ClopenSet":
        t = False
        for p in prefixes:
            _check_bits(p, "prefix")
            t = _union(t, _from_prefix(p))
        return ClopenSet(t)

    @staticmethod
    def from_cells(indices, d: int) -> "ClopenSet":
        """The union of the depth-d cylinders with indices ``int(prefix, 2)``;
        the inverse of ``cell_indices(d)``."""
        cells = sorted(set(indices))
        if cells and (cells[0] < 0 or cells[-1] >= 1 << d):
            raise ValueError(f"cell indices at depth {d} lie in [0, {1 << d})")
        return ClopenSet(_from_cells(cells, d, 0))

    @staticmethod
    def from_cylinder(c: Cylinder) -> "ClopenSet":
        return ClopenSet(_from_prefix(c.prefix))

    @staticmethod
    def parse(text: str) -> "ClopenSet":
        """Parse ``{110, 0}``; a leading ``!`` complements, so ``!{}`` is the whole space."""
        s = text.strip()
        complemented = s.startswith("!")
        if complemented:
            s = s[1:].strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"bad clopen-set literal: {text!r}")
        body = s[1:-1].strip()
        prefixes = [p.strip() for p in body.split(",") if p.strip()] if body else []
        out = ClopenSet.from_prefixes(prefixes)
        return out.complement() if complemented else out

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(_union(self.trie, other.trie))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(_intersect(self.trie, other.trie))

    def complement(self) -> "ClopenSet":
        return ClopenSet(_complement(self.trie))

    def is_subset_of(self, other: "ClopenSet") -> bool:
        return _intersect(self.trie, _complement(other.trie)) is False

    def is_empty(self) -> bool:
        return self.trie is False

    def is_whole(self) -> bool:
        return self.trie is True

    def contains(self, p: CantorPoint) -> bool:
        node = self.trie
        i = 0
        while node is not True and node is not False:
            node = node[p.bit(i)]
            i += 1
        return node is True

    def depth(self) -> int:
        return _depth(self.trie)

    def cylinders(self) -> tuple[Cylinder, ...]:
        out: list[str] = []
        _leaves(self.trie, "", out)
        return tuple(Cylinder(p) for p in sorted(out, key=lambda p: (len(p), p)))

    def cell_indices(self, d: int) -> list[int]:
        """Ascending indices ``int(prefix, 2)`` of the depth-d cylinders
        contained in the set; requires d >= depth()."""
        out: list[int] = []
        if not _cell_indices(self.trie, d, 0, out):
            raise ValueError(f"cells at depth {d} need depth >= {self.depth()}")
        return out

    @cached_property
    def own_cells(self) -> tuple[int, tuple[int, ...]]:
        """``(depth(), cell_indices(depth()))``, computed once per set."""
        d = self.depth()
        return d, tuple(self.cell_indices(d))

    def cells_at_depth(self, d: int) -> tuple[Cylinder, ...]:
        """The depth-d cylinders contained in the set; requires d >= depth()."""
        return tuple(Cylinder(format(i, f"0{d}b") if d else "") for i in self.cell_indices(d))

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        if self.is_whole():
            return "!{}"
        return "{" + ",".join(c.prefix for c in self.cylinders()) + "}"

