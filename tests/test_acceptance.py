"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines even
when everything passes.  All comparisons are exact dyadic arithmetic.
"""

import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from sepcont.cantor import ALL_ONES, CantorPoint, ClopenSet
from sepcont.cli import main
from sepcont.discrete import DiscreteApproximator
from sepcont.functions import (
    Constant,
    OnesDiagonal,
    SubbasicNbhd,
    TableFunction,
)
from sepcont.groups import ball_net, get_group
from sepcont.uniform import BallQuery, ball_membership
from sepcont.zerodim import ZerodimPipeline
from grid import grid_points

CONFIGS = Path(__file__).parent.parent / "configs"

DYADIC = get_group("dyadic")
C3 = get_group("cyclic:3")
E = DYADIC.identity()
A = DYADIC.parse_element("1(0)")
WHOLE = ClopenSet.whole()

DIAG = OnesDiagonal((A,))
MULTI = OnesDiagonal(
    (A, DYADIC.parse_element("01(0)"), DYADIC.parse_element("001(0)"))
)

REAL = get_group("real")
_Z0, _Z34 = REAL.parse_element("0/2^0"), REAL.parse_element("3/2^2")

# every example the package ships, with its configured n_max
SHIPPED = [
    ("diag-dyadic", DIAG, 6),
    ("diag-multi", MULTI, 6),
    ("const", Constant(A), 4),
    ("diag-finite", OnesDiagonal((E,), prefix=(A, DYADIC.parse_element("01(0)"))), 4),
    ("real-table", TableFunction(1, ((_Z0, _Z34), (_Z34, _Z0))), 3),
    ("c3-table", TableFunction(1, ((C3.identity(), C3.element(1)), (C3.element(2), C3.identity()))), 3),
]

PROBES = [
    SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "acc_x"),
    SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset(), "zero_x"),
    SubbasicNbhd(WHOLE, ALL_ONES, frozenset(), "acc_y"),
]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def pipelines():
    return {name: ZerodimPipeline(f, n_max) for name, f, n_max in SHIPPED}


def test_criterion_1_quantizer_conditions():
    t0 = time.perf_counter()
    worst = ""
    ok = True
    for name, f, _ in SHIPPED[:2]:
        pipe = ZerodimPipeline(f, n_max=3)
        for row in pipe.condition_rows():
            if row.level > 3:
                continue
            good = row.cond2_sup <= Fraction(1, 2**row.level) and row.cond3
            if not good:
                ok = False
                worst = f"{name} level {row.level}"
    elapsed = time.perf_counter() - t0
    report(
        1,
        ok and elapsed < 5,
        "quantizer cell-constancy / 2^-n approximation / net-increment conditions "
        f"exact for n=0..3 on the image ({elapsed:.2f}s)"
        f"{' worst: ' + worst if worst else ''}",
    )


def test_criterion_2_uniform_rate(pipelines):
    t0 = time.perf_counter()
    ok = True
    for name, f, n_max in SHIPPED:
        pipe = pipelines[name]
        for n in range(n_max + 1):
            if pipe.uniform_rate(n).value > Fraction(1, 2**n):
                ok = False
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 5,
           f"uniform rate d(r_n o f, f) <= 2^-n on every shipped example ({elapsed:.2f}s)")


def test_criterion_3_factor_discreteness(pipelines):
    t0 = time.perf_counter()
    ok = all(
        pipelines[name].factor_discreteness(n)
        for name, _, n_max in SHIPPED
        for n in range(n_max + 1)
    )
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 5,
           f"every value of every factor g_n lies in net(n) ({elapsed:.2f}s)")


def test_criterion_4_diagonal_budget(pipelines):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for name in ("diag-dyadic", "diag-multi"):
        rep = pipelines[name].diagonal(PROBES, [1, 2])
        ok = ok and rep.passed
        stages = {l: rep.stage_of_level[l] for l in (1, 2)}
        detail.append(f"{name} m(l)={stages}")
    elapsed = time.perf_counter() - t0
    report(
        4,
        ok and elapsed < 60,
        "diagonal budget d(f, f_nn) < 2^-(l-2) for l=1,2 from stage m(l), "
        f"tail products in B[2^-l] at every point ({elapsed:.2f}s; {'; '.join(detail)})",
    )


def test_criterion_5_convergence_certificates():
    t0 = time.perf_counter()
    engine = DiscreteApproximator(DIAG)
    probes = [
        SubbasicNbhd(ALL_ONES, WHOLE, frozenset(), "p01"),
        SubbasicNbhd(CantorPoint.parse("(0)"), WHOLE, frozenset(), "p02"),
        SubbasicNbhd(CantorPoint.parse("(0)"), ClopenSet.parse("{0}"), frozenset(), "p03"),
        SubbasicNbhd(CantorPoint.parse("(0)"), ClopenSet.parse("{1}"), frozenset(), "p04"),
        SubbasicNbhd(CantorPoint.parse("10(0)"), WHOLE, frozenset(), "p05"),
        SubbasicNbhd(CantorPoint.parse("10(0)"), ClopenSet.parse("{11}"), frozenset(), "p06"),
        SubbasicNbhd(CantorPoint.parse("10(0)"), ClopenSet.parse("{0}"), frozenset(), "p07"),
        SubbasicNbhd(WHOLE, ALL_ONES, frozenset(), "p08"),
        SubbasicNbhd(WHOLE, CantorPoint.parse("(0)"), frozenset(), "p09"),
        SubbasicNbhd(ClopenSet.parse("{0}"), CantorPoint.parse("(0)"), frozenset(), "p10"),
        SubbasicNbhd(ClopenSet.parse("{1}"), CantorPoint.parse("(0)"), frozenset(), "p11"),
    ]
    ok = len(probes) >= 8
    stages = {}
    for probe in probes:
        cert = engine.certificate(probe, 12)
        stages[probe.probe_id] = cert.m
        ok = ok and cert.passed and cert.m <= 12
    elapsed = time.perf_counter() - t0
    report(
        5,
        ok and elapsed < 10,
        f"g_n in [K_X x K_Y, W] exactly for m <= n <= 12 on {len(probes)} probes "
        f"(stages {stages}; {elapsed:.2f}s)",
    )


def test_criterion_6_brute_force_oracle():
    t0 = time.perf_counter()
    e, a = C3.identity(), C3.element(1)
    grid = grid_points(2)
    failures = 0
    # 2^16 two-valued depth-2 tables, subsampled deterministically to 512
    for mask in range(0, 1 << 16, 128):
        rows = tuple(
            tuple(a if (mask >> (4 * i + j)) & 1 else e for j in range(4))
            for i in range(4)
        )
        f = TableFunction(2, rows)
        g = DiscreteApproximator(f).approximant(6)
        for x, y in product(grid, repeat=2):
            if g.eval(x, y) != f.eval(x, y):
                failures += 1
                break
    elapsed = time.perf_counter() - t0
    report(
        6,
        failures == 0 and elapsed < 60,
        f"pipeline output equals f on the full depth-2 grid for 512 C3 tables "
        f"({failures} failures; {elapsed:.2f}s)",
    )


def test_criterion_7_net_properties():
    t0 = time.perf_counter()
    ok = True
    for group in (DYADIC, C3):
        for k in range(4):
            net = ball_net(group, k, group.net_enumeration_depth(k, ()))
            ok = ok and net.check_ball_containment() and net.check_pairwise_separation()
            ok = ok and net.check_maximality()
    size = len(ball_net(DYADIC, 1, 6).elements)
    ok = ok and size == 8
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 1,
           f"net containment/separation/maximality exact; dyadic k=1 net size {size} ({elapsed:.2f}s)")


def test_criterion_8_ball_algebra():
    t0 = time.perf_counter()
    functions = [Constant(E), Constant(A), DIAG, MULTI]
    eps_list = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    count = 0
    ok = True
    for center, cand in product(functions, repeat=2):
        for eps in eps_list:
            res = {
                side: ball_membership(BallQuery(center, cand, side, eps, 3)).member
                for side in ("l", "r", "lr", "rl")
            }
            count += 4
            ok = ok and res["lr"] == (res["l"] and res["r"])
            ok = ok and ((not res["l"]) or res["rl"]) and ((not res["r"]) or res["rl"])
        # nesting across the radius list
        for side in ("l", "r", "lr", "rl"):
            ms = [
                ball_membership(BallQuery(center, cand, side, eps, 3)).member
                for eps in sorted(eps_list)
            ]
            count += len(ms)
            ok = ok and all((not ms[i + 1]) or ms[i] for i in range(len(ms) - 1))
    elapsed = time.perf_counter() - t0
    report(8, ok and count >= 100 and elapsed < 5,
           f"B_lr = B_l and B_r, nesting, rl-coarseness on {count} queries ({elapsed:.2f}s)")


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["approx-zerodim", "--config", str(CONFIGS / "diag-dyadic.cfg"), "--out", str(out)]
        )
        assert code == 0
        blobs.append((out / "zerodim.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    report(9, blobs[0] == blobs[1],
           f"repeated runs of diag-dyadic.cfg emit byte-identical reports ({elapsed:.2f}s)")
