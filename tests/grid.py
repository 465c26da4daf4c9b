"""Canonical grid points, the sample the brute-force references sweep: the
library itself reads only exact point sets."""

from sepcont.cantor import CantorPoint, partition_at_depth


def grid_points(d: int) -> tuple[CantorPoint, ...]:
    """The 2^d canonical grid points: the representative (depth-d prefix +
    zero tail) of each depth-d cell, in cell-index order."""
    return tuple(c.representative() for c in partition_at_depth(d))
