"""Command-line front end: experiment orchestration and report emission.

Subcommands: nets, approx-discrete, approx-zerodim, ball, closure-probe,
problem3.  Exit codes: 0 all certificates pass, 1 certificate failure
(witness in the report) or internal error, 2 config error, 3 I/O error.
Each handler returns the reports it wrote, by file name, and a summary;
``main`` alone writes manifest.json and exits 0 exactly when the summary
passed.
Reports are byte-identical across runs of the same config; wall-clock
timings live only in manifest.json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from fractions import Fraction

import sepcont
from sepcont.cantor import CantorPoint
from sepcont.config import Experiment, load_experiment
from sepcont.discrete import DiscreteApproximator
from sepcont.errors import ConfigError, SepcontError
from sepcont.functions import image
from sepcont.groups import GroupElement, ball_net
from sepcont.reports import (
    build_manifest,
    dyadic_str,
    write_csv,
    write_json,
    write_jsonl,
)
from sepcont.uniform import ball_membership, closure_probe, problem3_check
from sepcont.zerodim import ZerodimPipeline, build_tower


@contextlib.contextmanager
def _timed(timings: dict[str, float], name: str):
    """Add the block's wall-clock time to ``timings[name]``."""
    t0 = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def cmd_nets(exp: Experiment, timings: dict[str, float]) -> tuple[dict, dict]:
    rows = []
    ok = True
    with _timed(timings, "nets"):
        for k in range(exp.n_max + 1):
            depth = exp.group.net_enumeration_depth(k)
            net = ball_net(exp.group, k, depth)
            checks = (
                net.check_ball_containment(),
                net.check_pairwise_separation(),
                net.check_maximality(),
            )
            ok = ok and all(checks)
            rows.append((k, dyadic_str(net.radius), dyadic_str(net.separation),
                         len(net.elements), depth, *map(int, checks)))
    report = exp.out / "nets.csv"
    header = ["k", "radius", "separation", "size", "enumeration_depth",
              "ball_ok", "separation_ok", "maximality_ok"]
    data = write_csv(report, header, rows)
    return {report.name: data}, {"passed": ok}


def cmd_approx_discrete(exp: Experiment, timings: dict[str, float]) -> tuple[dict, dict]:
    engine = DiscreteApproximator(exp.function)
    rows = []
    stage_of_probe = {}
    ok = True
    with _timed(timings, "certificates"):
        for probe in exp.probes:
            cert = engine.certificate(probe, exp.n_max)
            stage_of_probe[probe.probe_id] = cert.m
            ok = ok and cert.passed
            rows += [(n, probe.probe_id, int(member), note) for n, member, note in cert.checks]
    report = exp.out / "certificate.csv"
    data = write_csv(report, ["n", "probe_id", "in_nbhd", "violation_witness"], rows)
    return {report.name: data}, {"passed": ok, "stage_of_probe": stage_of_probe}


def cmd_approx_zerodim(exp: Experiment, timings: dict[str, float]) -> tuple[dict, dict]:
    too_deep = [l for l in exp.levels if l > exp.n_max] if exp.probes else []
    if too_deep:
        raise ConfigError(f"level {too_deep[0]} needs factors up to {too_deep[0]}; raise n_max")
    with _timed(timings, "tower"):
        pipe = ZerodimPipeline(exp.function, exp.n_max)
        cond = pipe.condition_rows()
    with _timed(timings, "diagonal"):
        rep = pipe.diagonal(exp.probes, exp.levels) if exp.probes else None
    rows = []
    all_ok = True
    for n in range(exp.n_max + 1):
        c = cond[n]
        diag_sup = ""
        budget_txt = ""
        # Row n + 1's condition (3) checks factor g_n's step r_n -> r_{n+1}.
        row_ok = c.cond2_ok and c.cond3 and cond[n + 1].cond3
        if rep is not None:
            diag_sup = dyadic_str(dict(rep.stage_sups)[n])
            budgets = [
                Fraction(4, 2**l)
                for l in exp.levels
                if rep.stage_of_level.get(l) is not None and n >= rep.stage_of_level[l]
            ]
            if budgets:
                budget = min(budgets)
                budget_txt = dyadic_str(budget)
                row_ok = row_ok and dict(rep.stage_sups)[n] < budget
        # cond1 is 1: each r_n is constant on its classes by representation.
        rows.append((n, 1, dyadic_str(c.cond2_sup), int(c.cond3), diag_sup, budget_txt,
                     int(row_ok)))
        all_ok = all_ok and row_ok
    if rep is not None:
        all_ok = all_ok and rep.passed
    report = exp.out / "zerodim.csv"
    data = write_csv(
        report,
        ["level", "cond1", "cond2_sup", "cond3", "diag_dist_sup", "budget", "pass"],
        rows,
    )
    summary = {
        "passed": all_ok,
        "sample": [str(z) for z in pipe.sample],
        # The sample is always f's exact image.  The literal "declared" and
        # the second key stay only because perfbench/reference.json digests
        # this summary, until the schema change of ROADMAP item 1.
        "sample_source": "declared",
        "sample_complete": True,
    }
    if rep is not None:
        summary["stage_of_level"] = {str(k): v for k, v in rep.stage_of_level.items()}
    return {report.name: data}, summary


def cmd_ball(exp: Experiment, timings: dict[str, float]) -> tuple[dict, dict]:
    records = []
    with _timed(timings, "ball"):
        for q in exp.ball_queries:
            res = ball_membership(q)
            records.append(
                {
                    "probe_id": q.probe_id,
                    "side": q.side,
                    "eps_num": q.eps.numerator,
                    "eps_log2_den": q.eps.denominator.bit_length() - 1,
                    "member": res.member,
                    "witness_x": str(res.witness[0]) if res.witness else "",
                    "witness_y": str(res.witness[1]) if res.witness else "",
                }
            )
    report = exp.out / "ball.jsonl"
    data = write_jsonl(report, records)
    return {report.name: data}, {"passed": True, "queries": len(records)}


def _fault_constant(exp: Experiment) -> GroupElement:
    group = exp.group
    origin = CantorPoint("", "0")
    base = exp.function.eval(origin, origin)
    shift = max(
        group.dense_enumeration(2),
        key=lambda u: (group.dist(group.identity(), u), group.canonical_key(u)),
    )
    return group.mul(base, shift)


def cmd_closure_probe(exp: Experiment, timings: dict[str, float]) -> tuple[dict, dict]:
    with _timed(timings, "stages"):
        sample = image(exp.function)
        stages, _ = build_tower(sample, exp.n_max)
        schedule = [Fraction(1, 2**n) for n in range(exp.n_max + 1)]
        if exp.inject_fault_at is not None:
            stages[exp.inject_fault_at] = dict.fromkeys(sample, _fault_constant(exp))
    with _timed(timings, "closure"):
        rep = closure_probe(exp.function, stages, schedule, exp.probes, exp.levels)
    # The certified column is pinned at 1: no stage carries a separate certificate.
    rows = [(r.stage, dyadic_str(r.eps), dyadic_str(r.dist_l), dyadic_str(r.dist_r),
             int(r.within), 1) for r in rep.stages]
    report = exp.out / "closure.csv"
    data = write_csv(report, ["stage", "eps", "dist_l", "dist_r", "within", "certified"], rows)
    summary = {"passed": rep.passed, "failed_stage": rep.failed_stage,
               "diagonal_passed": rep.diagonal_passed}
    return {report.name: data}, summary


def cmd_problem3(exp: Experiment, timings: dict[str, float]) -> tuple[dict, dict]:
    if exp.problem3 is None:
        raise ConfigError("[problem3] needs a candidate function")
    candidate, bound = exp.problem3
    with _timed(timings, "problem3"):
        rep = problem3_check(exp.function, candidate, bound)
    payload = {
        "sup_raw": dyadic_str(rep.sup_raw),
        "bound": dyadic_str(rep.bound),
        "within": rep.within,
        "sup_group_metric": dyadic_str(rep.sup_group_metric),
        "image_size": rep.image_size,
        "image_zero_dim": "certified-finite",
        "min_gap": dyadic_str(rep.min_gap) if rep.min_gap is not None else None,
        "witness_x": str(rep.witness[0]) if rep.witness else "",
        "witness_y": str(rep.witness[1]) if rep.witness else "",
    }
    report = exp.out / "problem3.json"
    data = write_json(report, payload)
    return {report.name: data}, {"passed": rep.within}


_HANDLERS = {
    "nets": cmd_nets,
    "approx-discrete": cmd_approx_discrete,
    "approx-zerodim": cmd_approx_zerodim,
    "ball": cmd_ball,
    "closure-probe": cmd_closure_probe,
    "problem3": cmd_problem3,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand; the subcommand is a positional choice.
    Built on first use and kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sepcont",
        description="Finite-resolution approximation of separately continuous functions "
        "on Cantor-space products, with exact certificates.",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", help="report directory (default: config's out)")
    parser.add_argument("--seed", type=int, default=0, help="seed for random probe generation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = load_experiment(args.config, args.out, args.seed)
        exp.out.mkdir(parents=True, exist_ok=True)
        timings: dict[str, float] = {}
        reports, summary = _HANDLERS[args.command](exp, timings)
        manifest = build_manifest(config_text=exp.text, version=sepcont.__version__,
                                  reports=reports, timings=timings, summary=summary)
        write_json(exp.out / "manifest.json", manifest)
        return 0 if summary["passed"] else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except SepcontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # An internal fault, not a certificate outcome: keep its traceback.
        # Imported here, so that no successful run pays for loading it.
        import traceback

        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
