"""S3, the smallest nonabelian group, as a test fixture: ``get_group``
names no symmetric group, so the tests build it here, with a left-invariant
metric that is not right-invariant as a second fixture."""

from fractions import Fraction

from sepcont.groups import FiniteTableGroup


def symmetric_group_3() -> FiniteTableGroup:
    """S3 as a multiplication table."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    labels = ["e", "r", "rr", "s", "sr", "srr"]
    return FiniteTableGroup("sym:3", table, labels)


class LeftInvariantS3(FiniteTableGroup):
    """S3 with a left-invariant metric that is not right-invariant: d(a, b)
    is 1/8 when a^-1 b is the reflection s, else 1/2 (0 on the diagonal).
    The shipped groups are bi-invariant, so only here do the l and r
    tests of a ball query disagree.  The metric is not discrete, so the
    closed forms of a table group do not hold: its nets and two-sided
    balls are searched over every element."""

    def _dist(self, a: int, b: int) -> Fraction:
        c = self._mul(self._inv(a), b)
        if c == self.identity().payload:
            return Fraction(0)
        return Fraction(1, 8) if self._labels[c] == "s" else Fraction(1, 2)

    def two_sided_member(self, a, b, eps):
        one = self.identity()
        return any(
            self.dist(one, u) < eps and self.dist(self.mul(u, a), b) < eps
            for u in self.dense_enumeration(0)
        )

    def net_nearest(self, k, t):
        """The element of net(k), the ball's part of the enumeration, nearest
        to t, ties by canonical order."""
        return min(self.ball_enumeration(k, k + 2),
                   key=lambda e: (self.dist(e, t), self.canonical_key(e)))


_S3 = symmetric_group_3()
S3_LEFT = LeftInvariantS3("sym:3-left", _S3._table, _S3._labels)
