"""Running jobs through ``sepcont.cli.main`` in this process, and judging
their outcomes.

A job fails when any of these holds:

* it exits with a code other than 0 or 1, or raises (exit 1 is a
  certificate verdict, not a failure);
* its report bytes differ from a rerun of the same job;
* its report bytes differ from the checksums in its own manifest;
* on the reference seed, its exit code, report checksums or manifest
  summary differ from the recorded reference.  A job whose reference
  outcome is an error is judged by the other rules alone.

A failure is *known* when the job carries the known-defect tag and exits 2
with the parser's message for it; every other failure fails the check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import KNOWN_DEFECT_STDERR, Job


@dataclass(frozen=True)
class Result:
    """What one execution of a job produced."""

    exit: int | None  # None when main raised
    error: str
    seconds: float
    reports: dict[str, bytes]
    manifest: dict | None


@dataclass(frozen=True)
class Verdict:
    failed: bool
    known: bool
    reasons: tuple[str, ...]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_digest(job: Job) -> str:
    return sha256((job.command + "\0" + job.config + "\0" + repr(job.files)).encode())[:16]


def summary_digest(manifest: dict) -> str:
    text = json.dumps(manifest.get("summary"), sort_keys=True, separators=(",", ":"))
    return sha256(text.encode())


def stage_inputs(job: Job, directory: Path) -> Path:
    """Write the job's config and tables; returns the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in job.files:
        (directory / name).write_text(text, encoding="utf-8")
    path = directory / "job.cfg"
    path.write_text(job.config, encoding="utf-8")
    return path


def execute(cli_main, job: Job, config: Path, out: Path) -> tuple[int | None, str, float]:
    """One CLI call; the time covers config load through the manifest write."""
    err = io.StringIO()
    argv = [job.command, "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code: int | None = cli_main(argv)
        except Exception as exc:  # a raise is a job failure, recorded with its type
            code = None
            err.write(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    return code, err.getvalue(), seconds


def collect(out: Path, code: int | None, error: str, seconds: float) -> Result:
    reports: dict[str, bytes] = {}
    manifest = None
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text(encoding="utf-8"))
            else:
                reports[path.name] = path.read_bytes()
    return Result(code, error, seconds, reports, manifest)


def reference_entry(job: Job, result: Result) -> dict:
    entry: dict = {"input": input_digest(job), "exit": result.exit}
    if result.exit in (0, 1) and result.manifest is not None:
        entry["reports"] = {name: sha256(data) for name, data in sorted(result.reports.items())}
        entry["summary"] = summary_digest(result.manifest)
    return entry


def judge(job: Job, first: Result, again: Result | None, reference: dict | None) -> Verdict:
    """Apply the failure rules above to a job's result, its rerun and its
    reference entry (None when the seed has no reference)."""
    if first.exit not in (0, 1):
        known = (
            job.known_defect and first.exit == 2 and KNOWN_DEFECT_STDERR in first.error
        )
        reason = f"exit {first.exit}: {first.error.strip()[:200]}"
        return Verdict(True, known, (reason,))
    reasons = []
    if first.manifest is None:
        reasons.append("no manifest.json")
    else:
        listed = first.manifest.get("reports", {})
        actual = {name: sha256(data) for name, data in first.reports.items()}
        if listed != actual:
            reasons.append("report bytes differ from the manifest checksums")
    if again is not None and (again.exit != first.exit or again.reports != first.reports):
        reasons.append("report bytes or exit code differ on rerun")
    if reference is not None:
        if reference.get("input") != input_digest(job):
            reasons.append("reference was recorded for another input; re-record it")
        elif reference.get("exit") in (0, 1):
            if reference["exit"] != first.exit:
                reasons.append(f"exit {first.exit}, reference {reference['exit']}")
            if reference.get("reports") != {n: sha256(d) for n, d in sorted(first.reports.items())}:
                reasons.append("report checksums differ from the reference")
            if first.manifest is not None and reference.get("summary") != summary_digest(first.manifest):
                reasons.append("manifest summary differs from the reference")
    return Verdict(bool(reasons), False, tuple(reasons))
