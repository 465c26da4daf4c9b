"""Exact, finite-resolution machinery for approximating separately continuous
functions on products of Cantor spaces by jointly continuous ones.

All core arithmetic is exact (dyadic rationals via ``fractions.Fraction``);
every certificate the library emits is an equality or inequality between
exact values, never a floating-point comparison.
"""

__version__ = "0.1.0"

from sepcont.cantor import CantorPoint, ClopenSet
from sepcont.groups import GroupElement, GroupSpec, SeparatedNet, ball_net, get_group

__all__ = [
    "CantorPoint",
    "ClopenSet",
    "GroupElement",
    "GroupSpec",
    "SeparatedNet",
    "__version__",
    "ball_net",
    "get_group",
]
