"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import Result, collect, execute, judge, reference_entry, sha256, stage_inputs  # noqa: E402
from hostspeed import EXPONENT, REFERENCE_S, probe, scale  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Job, generate_run  # noqa: E402


def _all_jobs(plan):
    return list(plan.warmup) + [job for jobs in plan.passes for job in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate_run(workload, 7, 2) == generate_run(workload, 7, 2)
    configs = lambda plan: [job.config for job in _all_jobs(plan)]  # noqa: E731
    assert configs(generate_run(workload, 7, 2)) != configs(generate_run(workload, 8, 2))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_longer_plan_extends_a_shorter_one(workload):
    short, longer = generate_run(workload, 5, 2), generate_run(workload, 5, 4)
    assert longer.warmup == short.warmup and longer.passes[:2] == short.passes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_distinct_within_a_run(workload):
    jobs = _all_jobs(generate_run(workload, 3, 4))
    keys = [(job.command, job.key) for job in jobs]
    assert len(set(keys)) == len(keys)
    assert len({job.job_id for job in jobs}) == len(jobs)
    # Warm-up draws from its own stream, so its jobs never reappear later.
    assert all(job.job_id.startswith(("warmup/", "pass")) for job in jobs)


def test_pass_sizes_and_known_defect_jobs():
    plan = generate_run("uniform-balls", 1, 4)
    for jobs in plan.passes:
        assert len(jobs) == 100
        defects = [job for job in jobs if job.known_defect]
        assert len(defects) == 3 and all("quant(diag ones " in job.config for job in defects)
        assert {job.command for job in jobs} == {"ball", "closure-probe", "problem3", "nets"}
    assert all(len(jobs) == 100 for jobs in generate_run("discrete-certify", 1, 4).passes)
    assert all(len(jobs) == 3 for jobs in generate_run("zerodim-diagonal", 1, 4).passes)


def _good_result(reports: dict[str, bytes]) -> Result:
    manifest = {"reports": {n: sha256(d) for n, d in reports.items()}, "summary": {"passed": True}}
    return Result(0, "", 0.1, reports, manifest)


def test_scale_reads_times_at_the_reference_speed():
    import gc

    assert scale(2.0, REFERENCE_S, REFERENCE_S) == pytest.approx(2.0)
    assert scale(2.0, 1.5 * REFERENCE_S, 2.5 * REFERENCE_S) == pytest.approx(2.0 / 2**EXPONENT)
    assert probe() > 0 and gc.isenabled()


def test_check_catches_a_flipped_report_byte():
    job = Job("pass0/j000", "approx-discrete", "cfg")
    good = _good_result({"certificate.csv": b"n,probe_id\n1,p\n"})
    assert not judge(job, good, good, None).failed
    flipped = bytearray(good.reports["certificate.csv"])
    flipped[3] ^= 1
    bad = Result(0, "", 0.1, {"certificate.csv": bytes(flipped)}, good.manifest)
    verdict = judge(job, bad, good, None)
    assert verdict.failed and not verdict.known
    assert any("manifest" in r for r in verdict.reasons)
    assert any("rerun" in r for r in verdict.reasons)


def test_check_catches_an_exit_2():
    job = Job("pass0/j001", "ball", "cfg")
    verdict = judge(job, Result(2, "config error: bad", 0.0, {}, None), None, None)
    assert verdict.failed and not verdict.known
    defect = Job("pass0/j002", "ball", "cfg", known_defect=True)
    message = "config error: quant takes a function and a level: 'quant(...)'"
    verdict = judge(defect, Result(2, message, 0.0, {}, None), None, None)
    assert verdict.failed and verdict.known
    # A tagged job that fails some other way is still a new failure.
    assert not judge(defect, Result(3, "resource error", 0.0, {}, None), None, None).known


def test_check_compares_with_the_reference():
    job = Job("pass0/j000", "approx-discrete", "cfg")
    good = _good_result({"certificate.csv": b"x\n"})
    entry = reference_entry(job, good)
    assert not judge(job, good, None, entry).failed
    other = _good_result({"certificate.csv": b"y\n"})
    assert judge(job, other, None, entry).failed
    assert judge(job, Result(1, "", 0.1, other.reports, other.manifest), None, entry).failed
    # An error reference is judged by the invariants alone.
    assert not judge(job, other, None, {"input": entry["input"], "exit": 2}).failed


def test_check_on_a_real_job(tmp_path):
    from sepcont.cli import main

    job = generate_run("discrete-certify", 1, 1).passes[0][0]
    config = stage_inputs(job, tmp_path / "in")
    first = collect(tmp_path / "a", *execute(main, job, config, tmp_path / "a"))
    again = collect(tmp_path / "b", *execute(main, job, config, tmp_path / "b"))
    assert first.exit in (0, 1) and not judge(job, first, again, None).failed
    report = tmp_path / "a" / "certificate.csv"
    data = bytearray(report.read_bytes())
    data[-2] ^= 1
    report.write_bytes(bytes(data))
    flipped = collect(tmp_path / "a", first.exit, first.error, first.seconds)
    assert judge(job, flipped, again, None).failed


def test_tracer_restores_the_library_and_counts_repeat(tmp_path):
    import sepcont.cli
    import sepcont.uniform
    from sepcont.cli import main

    originals = (sepcont.cli.load_experiment, sepcont.uniform.uniform_dist)
    job = generate_run("zerodim-diagonal", 1, 1).warmup[0]
    config = stage_inputs(job, tmp_path / "in")

    def counted(tag):
        tracer = Tracer()
        tracer.install_counts()
        try:
            with tracer.job_span(job.job_id):
                execute(main, job, config, tmp_path / tag)
        finally:
            tracer.uninstall()
        return tracer.count_metrics()

    first, second = counted("a"), counted("b")
    assert first == second and first["functions.eval_calls"] > 0
    assert first["discrete.approximant_calls"] >= first["discrete.approximant_distinct"] > 0

    tracer = Tracer()
    tracer.install_spans()
    try:
        assert sepcont.cli.load_experiment is not originals[0]
        with tracer.job_span(job.job_id):
            execute(main, job, config, tmp_path / "c")
    finally:
        tracer.uninstall()
    assert (sepcont.cli.load_experiment, sepcont.uniform.uniform_dist) == originals
    spans = tracer.span_metrics()
    assert set(SPAN_NAMES) <= set(spans)
    calls, total, self_time = spans["zerodim.diagonal"]
    assert calls == 1 and 0 < self_time <= total <= spans["cli.job"][1]
    assert spans["config.load_experiment"][0] == 1
