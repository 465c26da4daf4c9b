"""S3, the smallest nonabelian group, as a test fixture: ``get_group``
names no symmetric group, so the tests build it here."""

from sepcont.groups import FiniteTableGroup


def symmetric_group_3() -> FiniteTableGroup:
    """S3 as a multiplication table."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    labels = ["e", "r", "rr", "s", "sr", "srr"]
    return FiniteTableGroup("sym:3", table, labels)
