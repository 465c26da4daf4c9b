"""Golden check: every shipped config under every subcommand gives the
recorded exit code and byte-identical reports.

``shipped_reports.json`` holds, per ``<config>/<subcommand>``, the exit
code, the sha256 of every report file except ``manifest.json`` (which
carries wall-clock timings) and the sha256 of the manifest's deterministic
``summary`` (``null`` when no manifest is written).  A deliberate report
change re-records it:

    PYTHONPATH=src python tests/test_shipped_reports.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sepcont.cli import _HANDLERS, main

CONFIGS = Path(__file__).parent.parent / "configs"
GOLDEN = Path(__file__).parent / "shipped_reports.json"

CASES = [f"{cfg.name}/{cmd}" for cfg in sorted(CONFIGS.glob("*.cfg")) for cmd in _HANDLERS]


def run_case(case: str, out: Path) -> dict:
    cfg, cmd = case.split("/")
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([cmd, "--config", str(CONFIGS / cfg), "--out", str(out)])
    reports = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
    manifest = out / "manifest.json"
    summary = None
    if manifest.exists():
        text = json.dumps(json.loads(manifest.read_text(encoding="utf-8"))["summary"], sort_keys=True)
        summary = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"exit": code, "reports": reports, "summary": summary}


@pytest.mark.parametrize("case", CASES)
def test_shipped_report_bytes(case, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(case, tmp_path / "out") == golden[case]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


def _record() -> None:
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = run_case(case, Path(tmp) / "out")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
