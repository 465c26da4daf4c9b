"""Canonical grid points, the sample the brute-force references sweep: the
library itself reads only exact point sets.  Also the depth-d cells and
their limit representatives, the canonical base of cylinders (a cylinder
is named by its prefix), the pointwise oracle for "f is constant on a
pair of cells", which the discrete engine's references read, the
zero-dimensional pipeline's factors and their approximants as the paper
builds them, and a pipeline with one factor replaced, the injected-factor
controls' input."""

from functools import lru_cache

from sepcont.cantor import ALL_ONES, CantorPoint
from sepcont.discrete import DiscreteApproximator
from sepcont.functions import PostCompose, resolution


def cell_prefixes(d: int) -> list[str]:
    """The prefixes of the 2^d depth-d cells, pairwise disjoint and covering
    the space, in cell-index order: cell i is ``format(i, f"0{d}b")``."""
    return [format(i, f"0{d}b") for i in range(1 << d)] if d else [""]


def limit_point(prefix: str) -> CantorPoint:
    """The limit representative of the cylinder [prefix]: the prefix followed
    by its own last bit forever.  For an all-ones prefix this is the
    accumulation point that a zero-tail sample would never see."""
    return CantorPoint(prefix, prefix[-1:] or "0")


def grid_points(d: int) -> tuple[CantorPoint, ...]:
    """The 2^d canonical grid points: the representative (depth-d prefix +
    zero tail) of each depth-d cell, in cell-index order."""
    return tuple(map(CantorPoint, cell_prefixes(d)))


def basis_prefix(k: int) -> str:
    """The prefix of the k-th cylinder V_k in the canonical base (by prefix
    length, then lexicographic): cell k + 1 - 2^l at depth
    l = floor(log2(k + 1))."""
    if k < 0:
        raise ValueError("basis index must be nonnegative")
    l = (k + 1).bit_length() - 1
    return format(k + 1 - (1 << l), f"0{l}b") if l else ""


def cell_range(prefix: str, d: int) -> range:
    """Indices ``int(prefix, 2)`` of the depth-d cells meeting the cylinder
    [prefix]: the cells inside it, or the one cell containing it when it is
    deeper."""
    if len(prefix) >= d:
        i = int(prefix[:d], 2) if d else 0
        return range(i, i + 1)
    shift = d - len(prefix)
    start = int(prefix, 2) << shift if prefix else 0
    return range(start, start + (1 << shift))


def sample_points(f, d: int) -> tuple[CantorPoint, ...]:
    """The points the oracle reads f at for its depth-d cells, with
    (D, P) = ``resolution((f,))`` and t = max(D, d): the representatives and
    limit representatives of the depth-(t + 2) cells, 1^k 0^w for
    k < t + 2P + 3, and 1^w.  They hold the exact points of the square cut
    at depth t, whose ones chain stops at k = t + P, and points with a one
    tail, which no exact point set holds."""
    depth, period = resolution((f,))
    top = max(depth, d)
    fine = cell_prefixes(top + 2)
    points = {*map(CantorPoint, fine), *map(limit_point, fine)}
    points |= {CantorPoint("1" * k) for k in range(top + 2 * period + 3)}
    points.add(ALL_ONES)
    return tuple(sorted(points, key=str))


@lru_cache(maxsize=32)
def cell_pair_values(f, d: int) -> dict[tuple[int, int], frozenset]:
    """{(i, j): the values of f.eval at the sample points of u_i x u_j}, for
    the depth-d cells u_i; f is constant on u_i x u_j exactly when that set
    is one value.  Kept per (f, d): the trees are immutable."""
    points = sample_points(f, d)
    cells = [int(p.prefix(d), 2) if d else 0 for p in points]
    out: dict[tuple[int, int], set] = {}
    for x, i in zip(points, cells):
        for y, j in zip(points, cells):
            out.setdefault((i, j), set()).add(f.eval(x, y))
    return {key: frozenset(values) for key, values in out.items()}


def factor(pipe, n: int) -> PostCompose:
    """g_n = phi_n o f, ``pipe``'s factor n as one finite map of f."""
    return PostCompose(pipe.f, pipe.factors[n])


def factor_approximants(pipe, m: int) -> list:
    """g_{0,m}, ..., g_{n_max,m}: the stage-m approximant of each factor of
    ``pipe``, each from a discrete engine of its own.  Their pointwise
    product g_{0,m} ... g_{n,m}, left to right, is the paper's f_{n,m}."""
    return [DiscreteApproximator(factor(pipe, k)).approximant(m) for k in range(pipe.n_max + 1)]


def replace_factor(pipe, k: int, phi: dict) -> None:
    """Replace ``pipe``'s factor k by ``phi`` o f, for ``phi`` a map on f's
    image.  Every factor is a finite map of f, so a wrong factor is a wrong
    tower: r'_{n+1} = r'_n phi'_n for n >= k, which every stage
    f_{n,m} = r'_{n+1} o (f's stage-m table) then reads."""
    group, tower = pipe.group, pipe.tower
    pipe.factors[k] = phi
    for n in range(k, pipe.n_max + 1):
        tower[n + 1] = {z: group.mul(tower[n][z], pipe.factors[n][z]) for z in pipe.sample}
