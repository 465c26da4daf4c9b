"""A fixed probe of the host's current speed, used to scale measured times.

The benchmark was written on a shared 2-vCPU machine whose speed drifts by
25-50 % over seconds to minutes while CPU time equals wall time: the drift
comes from the host, not from waiting inside the program.  ``probe`` does
the same small amount of pure-Python work every time (tree recursion with a
memo dict, ``Fraction`` sums, string and dict churn: the kinds of work
``sepcont`` spends its time on) and touches nothing of ``sepcont``, so a
change to the library cannot move it.  A time measured between two probes
is scaled by ``(REFERENCE_S / their mean) ** EXPONENT``: it reads as the
time the same work takes when the host runs the probe in ``REFERENCE_S``.

The host has a fast and a slow state, and the probe slows down more between
them (about 1.9 times) than the library's jobs do (1.4 times for the long
grid sweeps of ``approx-zerodim``, 1.7 times for the short
``approx-discrete`` jobs).  Over passes of the benchmark's workloads timed
in both states, scaling with the exponent 0.75 left the least spread on
both kinds of job (0.05 between seeds, against 0.2-0.28 unscaled); 1 would
over-correct the long jobs and 0.5 under-correct the short ones.

The collector is off during a probe, so the size of the library's heap does
not change the probe's time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Median probe time on the machine the benchmark was written on (a 2-vCPU
# x86_64 VM, Intel Xeon at 2.0 GHz, Python 3.11.7).
REFERENCE_S = 0.0024
EXPONENT = 0.75


class _Node:
    __slots__ = ("bit", "kids")

    def __init__(self, bit: int, kids: tuple) -> None:
        self.bit = bit
        self.kids = kids


def _build(depth: int, salt: int) -> _Node | None:
    if depth == 0:
        return None
    return _Node((depth * 7 + salt) & 1, (_build(depth - 1, salt + 1), _build(depth - 1, salt + 3)))


def _meet(a: _Node | None, b: _Node | None, memo: dict) -> int:
    if a is None or b is None:
        return 0
    key = (id(a), id(b))
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = (a.bit & b.bit) + _meet(a.kids[0], b.kids[1], memo) + _meet(a.kids[1], b.kids[0], memo)
    memo[key] = total
    return total


def _work() -> None:
    _meet(_build(9, 0), _build(9, 1), {})
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, 2 ** (i % 9))
    words: dict[str, int] = {}
    for i in range(1500):
        key = format(i * 2654435761 % 4096, "b")
        words[key] = words.get(key, 0) + len(key)


def probe() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * (REFERENCE_S * 2 / (before + after)) ** EXPONENT
