"""Verdicts that disagree with the paper, pinned through ``main``.

Each test asserts what the paper states and names the ROADMAP item that
mends it.  They are strict xfails: the change that mends a defect makes
its test pass, which fails the suite until that change removes the mark.
"""

import csv
import json
from pathlib import Path

import pytest

from sepcont.cli import main

CONFIGS = Path(__file__).parent.parent / "configs"


def run(tmp_path, command, text=None, config=None):
    """Exit code, report directory and summary of one ``main`` run on the
    config text (or a shipped config's path)."""
    if config is None:
        config = tmp_path / "exp.cfg"
        config.write_text(text, encoding="utf-8")
    out = tmp_path / "rep"
    code = main([command, "--config", str(config), "--out", str(out)])
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    return code, out, summary


def rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: row pass reads the whole-square sup")
def test_diagonal_of_the_canonical_example_settles_per_probe(tmp_path):
    # The diagonal f_{n,n} converges to f in the paper's topology, whose
    # subbasic sets have a singleton side: the budget is per probe, so every
    # level's row passes.  Today rows 3-5 fail on the whole-square sup
    # d(f, f_{n,n}) = 1/2, which a jointly discontinuous f keeps at every n.
    text = (CONFIGS / "diag-dyadic.cfg").read_text(encoding="utf-8")
    text = text.replace("n_max = 3", "n_max = 5").replace("levels = 1,2", "levels = 1,2,3")
    code, out, summary = run(tmp_path, "approx-zerodim", text)
    assert [r["pass"] for r in rows(out / "zerodim.csv")] == ["1"] * 6
    assert code == 0 and summary["passed"] is True


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a certificate past n_max checks nothing")
def test_a_passing_certificate_checks_a_stage(tmp_path):
    # The paper's claim is g_n in the neighbourhood for every n from some
    # stage on.  Here that stage, 29, lies past n_max = 3, so no stage is
    # read; a certificate that reads nothing must not pass.
    text = ("[experiment]\ngroup = dyadic\nfunction = diag ones 1(0),01(0)\n"
            "n_max = 3\nlevels = 1\n[probes]\np = 0(1) ; {1110}\n")
    code, out, summary = run(tmp_path, "approx-discrete", text)
    assert code != 0 or rows(out / "certificate.csv")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: a finite net of the real line is not maximal")
def test_no_finite_net_of_the_real_line_is_maximal(tmp_path):
    # Under min(|a - b|, 1/2) the balls of radius 1 and 1/2 are all of R,
    # which holds infinitely many 2^-(k+2)-separated points: no finite list
    # (today 9 and 17 elements) is a maximal net there.
    code, out, summary = run(tmp_path, "nets", config=CONFIGS / "problem3-pass.cfg")
    by_k = {r["k"]: r for r in rows(out / "nets.csv")}
    assert (by_k["0"]["maximality_ok"], by_k["1"]["maximality_ok"]) == ("0", "0")


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 23: closure certified is always 1")
def test_a_closure_stage_outside_its_radius_is_not_certified(tmp_path):
    # A "certified" column is set only after a real check: the injected
    # stage 3 lies outside its 2^-3 radius (within 0), so it is not
    # certified.
    code, out, summary = run(tmp_path, "closure-probe", config=CONFIGS / "closure-fault.cfg")
    stage = {r["stage"]: r for r in rows(out / "closure.csv")}["3"]
    assert code == 1 and stage["within"] == "0"
    assert stage["certified"] == "0"
