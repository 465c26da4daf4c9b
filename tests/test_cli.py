import csv
import hashlib
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcont.cantor import CantorPoint, ClopenSet, Cylinder
from sepcont.cli import build_parser, main
from sepcont.config import MAX_N, load_experiment, parse_function, parse_probe
from sepcont.errors import ConfigError
from sepcont.functions import (
    Constant,
    CylinderDiagonal,
    GridMemo,
    OnesDiagonal,
    PointwiseInverse,
    PointwiseProduct,
    PostCompose,
)
from sepcont.groups import get_group
from sepcont.uniform import BallQuery, ball_membership
from sepcont.zerodim import ZerodimPipeline
from grid import grid_points

CONFIGS = Path(__file__).parent.parent / "configs"
DYADIC = get_group("dyadic")


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """
[experiment]
group = dyadic
function = const 1(0)
n_max = 2
levels = 1
[probes]
p0 = (0) ; !{}
"""

COMMANDS = ("nets", "approx-discrete", "approx-zerodim", "ball", "closure-probe", "problem3")
REAL_MINIMAL = MINIMAL.replace("dyadic", "real").replace("1(0)", "1/2^1")
_BALL = "\n[ball]\nb = "
_QUERY = "side=l; eps=1/2^1; candidate=const 1(0)"
# One malformed value per section, each a config error under every command.
MALFORMED = {
    "experiment": MINIMAL.replace("n_max = 2", "n_max = two"),
    "experiment-unknown-key": MINIMAL.replace("n_max = 2", "n_max = 2\nn_maks = 5"),
    "unknown-section": MINIMAL + "[bal]\nb = " + _QUERY + "\n",
    "probes": MINIMAL.replace("p0 = (0) ; !{}", "p0 = (0) ; {2}"),
    "ball-eps": MINIMAL + _BALL + _QUERY.replace("1/2^1", "zz"),
    "ball-side": MINIMAL + _BALL + _QUERY.replace("side=l", "side=zz"),
    "ball-candidate": MINIMAL + _BALL + _QUERY.replace("const 1(0)", "const 2(0)"),
    "ball-missing-field": MINIMAL + _BALL + "side=l; eps=1/2^1",
    "ball-unknown-field": MINIMAL + _BALL + _QUERY + "; colour=red",
    "ball-item-without-equals": MINIMAL + _BALL + _QUERY.replace("eps=", "eps "),
    "ball-trailing-semicolon": MINIMAL + _BALL + _QUERY + ";",
    "ball-repeated-field": MINIMAL + _BALL + "side=zz; " + _QUERY,
    "closure-not-an-integer": MINIMAL + "[closure]\ninject_fault_at = x\n",
    "closure-out-of-range": MINIMAL + "[closure]\ninject_fault_at = 3\n",
    "closure-unknown-key": MINIMAL + "[closure]\nfault_at = 1\n",
    "problem3-bound": REAL_MINIMAL + "[problem3]\ncandidate = const 0/2^0\nbound = 1/3\n",
    "problem3-candidate": REAL_MINIMAL + "[problem3]\ncandidate = const zz\n",
    "problem3-no-candidate": REAL_MINIMAL + "[problem3]\nbound = 1/2^0\n",
    "problem3-group": MINIMAL + "[problem3]\ncandidate = const 1(0)\n",
    "problem3-unknown-key": REAL_MINIMAL + "[problem3]\ncandidate = const 0/2^0\nslack = 1\n",
}


GRAMMAR_GROUPS = (get_group("dyadic"), get_group("cyclic:5"))
# Real values whose sums over three leaves stay inside [-1, 1], where the
# real group's nets lie, so that every quantizer step can place them.
REAL_POOL = tuple(map(get_group("real").parse_element, ("0", "1/2^2", "-1/2^2")))


def _quant_families():
    return st.one_of(
        st.sampled_from(GRAMMAR_GROUPS).flatmap(_described_functions),
        _described_functions(get_group("real"), REAL_POOL),
    )
OFF_GRID = tuple(CantorPoint.parse(t) for t in ["(1)", "1(0)", "01(1)", "1(10)", "110(0)"])
CYL_PREFIXES = (("0",), ("0", "10"), ("01", "001", "11"))


def _described_functions(group, pool=None):
    """Pairs (text, function): a description rendered from the function
    grammar and the function built directly from the same parts, with
    values from ``pool`` (default: the group's first enumerated elements)."""
    pool = pool or group.dense_enumeration(1)[:4]
    values = st.lists(st.sampled_from(pool), min_size=1, max_size=3)

    def render(vals):
        return ",".join(map(str, vals))

    def cyl(prefixes):
        vals = st.lists(st.sampled_from(pool), min_size=len(prefixes), max_size=len(prefixes))
        return vals.map(lambda vs: (
            "diag cyl " + ",".join(f"{p}:{v}" for p, v in zip(prefixes, vs)),
            CylinderDiagonal(tuple(zip(map(Cylinder, prefixes), vs))),
        ))

    leaves = st.one_of(
        st.sampled_from(pool).map(lambda v: (f"const {v}", Constant(v))),
        values.map(lambda vs: (f"diag ones {render(vs)}", OnesDiagonal(tuple(vs)))),
        values.map(lambda vs: (
            f"diag ones-finite {render(vs)}",
            OnesDiagonal((group.identity(),), prefix=tuple(vs)),
        )),
        st.sampled_from(CYL_PREFIXES).flatmap(cyl),
    )

    def quant(described, n):
        text, f = described
        return f"quant({text}, {n})", ZerodimPipeline(f, n_max=n).quantized(n)

    def extend(kids):
        return st.one_of(
            kids.map(lambda k: (f"inv({k[0]})", PointwiseInverse(k[1]))),
            st.tuples(kids, kids).map(
                lambda lr: (f"prod({lr[0][0]}, {lr[1][0]})", PointwiseProduct(lr[0][1], lr[1][1]))
            ),
            st.tuples(kids, st.integers(0, 2)).map(lambda kn: quant(*kn)),
        )

    return st.recursive(leaves, extend, max_leaves=3)


class TestConfigParsing:
    def test_minimal_loads(self, tmp_path):
        exp = load_experiment(write_config(tmp_path, MINIMAL))
        assert exp.group is DYADIC
        assert exp.n_max == 2 and exp.levels == [1]
        assert len(exp.probes) == 1

    def test_function_grammar(self, tmp_path):
        for text in [
            "const 1(0)",
            "diag ones 1(0),01(0)",
            "diag ones-finite 1(0)",
            "diag cyl 0:1(0),10:01(0)",
            "prod(const 1(0), diag ones 1(0))",
            "inv(diag ones 1(0))",
            "quant(diag ones 1(0), 1)",
            # A value list holds top-level commas too.
            "quant(diag ones 1(0),01(0), 2)",
            "prod(diag ones 1(0),01(0), const 1(0))",
            "prod(const 1(0), diag ones 1(0),01(0),11(0))",
            "prod(quant(diag ones 1(0),01(0), 1), diag cyl 0:1(0),10:01(0))",
        ]:
            f = parse_function(text, DYADIC, tmp_path)
            assert f.group is DYADIC

    def test_nested_prod(self, tmp_path):
        f = parse_function("prod(prod(const 1(0), const 1(0)), inv(const 01(0)))", DYADIC, tmp_path)
        assert isinstance(f, PointwiseProduct)

    def test_prod_splits_at_the_one_comma_where_both_sides_parse(self, tmp_path):
        (tmp_path / "a").write_text("1(0)\n", encoding="utf-8")
        # The second comma's split names the table file "a, diag ones 1(0)".
        f = parse_function("prod(table 0 a, diag ones 1(0),01(0))", DYADIC, tmp_path)
        assert isinstance(f, PointwiseProduct)
        with pytest.raises(ConfigError, match="no comma .* parse; .*No such file"):
            parse_function("prod(table 0 absent, const 1(0))", DYADIC, tmp_path)
        with pytest.raises(ConfigError, match="no comma"):
            parse_function("prod(const 1(0))", DYADIC, tmp_path)
        # File names may hold commas: with all four tables present, both
        # commas split the text into two functions.
        for name in ("b, table 0 c", "a, table 0 b", "c"):
            (tmp_path / name).write_text("1(0)\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="more than one comma"):
            parse_function("prod(table 0 a, table 0 b, table 0 c)", DYADIC, tmp_path)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(GRAMMAR_GROUPS).flatmap(_described_functions))
    def test_rendered_text_parses_to_the_built_function(self, described):
        text, built = described
        f = parse_function(text, built.group, CONFIGS)
        points = grid_points(3) + OFF_GRID
        assert [f.eval(x, y) for x in points for y in points] == [
            built.eval(x, y) for x in points for y in points
        ]

    @given(
        _quant_families(),
        st.integers(0, MAX_N),
    )
    def test_quant_is_the_pipeline_quantizer(self, described, n):
        text, built = described
        f = parse_function(f"quant({text}, {n})", built.group, CONFIGS)
        assert f.mapping == ZerodimPipeline(built, n_max=n).quantized(n).mapping

    def test_quant_builds_only_the_level_it_returns(self):
        # Step 0 of the tower, which builds r_1, fails on this table's value 3.
        real = get_group("real")
        f = parse_function("quant(table 1 table-real-wild.csv, 0)", real, CONFIGS)
        assert set(f.mapping.values()) == {real.identity()}
        for n in (1, 2):
            with pytest.raises(ConfigError, match="step 0: nearest net element at distance 1/2"):
                parse_function(f"quant(table 1 table-real-wild.csv, {n})", real, CONFIGS)

    def test_probe_parsing(self):
        p = parse_probe("p", "(1) ; !{}")
        assert isinstance(p.kx, CantorPoint) and isinstance(p.ky, ClopenSet)
        q = parse_probe("q", "{0,10} ; 110(0)")
        assert isinstance(q.kx, ClopenSet) and isinstance(q.ky, CantorPoint)

    def test_bad_probe_rejected(self):
        with pytest.raises(ConfigError):
            parse_probe("p", "!{} ; !{}")  # no singleton side

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment(write_config(tmp_path, "[probes]\np = (0) ; !{}\n"))

    def test_depth_and_nmax_limits(self, tmp_path):
        bad = MINIMAL.replace("n_max = 2", "n_max = 99")
        with pytest.raises(ConfigError):
            load_experiment(write_config(tmp_path, bad))
        # The grid depth key is accepted and never read, whatever its value.
        for value in ("40", "x"):
            text = MINIMAL.replace("n_max = 2", f"grid_depth = {value}\nn_max = 2")
            assert load_experiment(write_config(tmp_path, text)).n_max == 2

    def test_probe_of_any_depth_loads(self, tmp_path):
        # Each probe side gets the cells of its own depth: no grid bounds it.
        text = MINIMAL.replace("p0 = (0) ; !{}", "p0 = (0) ; {0101}")
        (probe,) = load_experiment(write_config(tmp_path, text)).probes
        assert probe.ky == ClopenSet.parse("{0101}")

    def test_random_probes_deterministic_per_seed(self, tmp_path):
        text = MINIMAL + "random = 3\n"
        a = load_experiment(write_config(tmp_path, text), seed=7)
        b = load_experiment(write_config(tmp_path, text), seed=7)
        c = load_experiment(write_config(tmp_path, text), seed=8)
        sig = lambda exp: [(str(p.kx), str(p.ky)) for p in exp.probes]
        assert sig(a) == sig(b)
        assert sig(a) != sig(c)

    def test_sections_load_as_typed_fields(self, tmp_path):
        ball = load_experiment(CONFIGS / "ball-suite.cfg")
        assert [q.probe_id for q in ball.ball_queries] == [f"b{i}" for i in range(1, 8)]
        assert [(q.side, q.eps) for q in ball.ball_queries[:2]] == [("l", Fraction(1, 4)), ("r", Fraction(1, 4))]
        assert all(q.center is ball.function for q in ball.ball_queries)
        assert (ball.inject_fault_at, ball.problem3) == (None, None)
        assert load_experiment(CONFIGS / "closure-fault.cfg").inject_fault_at == 3
        candidate, bound = load_experiment(CONFIGS / "problem3-pass.cfg").problem3
        assert isinstance(candidate, Constant) and bound == 1

    def test_table_function_from_csv(self, tmp_path):
        (tmp_path / "t.csv").write_text("(0),1(0)\n1(0),(0)\n", encoding="utf-8")
        f = parse_function("table 1 t.csv", DYADIC, tmp_path)
        assert f.depth == 1


class TestArgumentParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_subcommand_parses(self, command):
        args = build_parser().parse_args(
            [command, "--config", "a.cfg", "--out", "rep", "--seed", "7"]
        )
        assert (args.command, args.config, args.out, args.seed) == (command, "a.cfg", "rep", 7)
        defaults = build_parser().parse_args([command, "--config", "a.cfg"])
        assert (defaults.out, defaults.seed) == (None, 0)

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["approx-everything", "--config", "a.cfg"])
        assert exc.value.code == 2

    def test_missing_config_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["nets"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_minimal_zerodim_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "rep"
        assert main(["approx-zerodim", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "zerodim.csv")))
        assert all(r["cond2_sup"] == "0/2^0" for r in rows[1:])
        assert all(r["pass"] == "1" for r in rows)

    def test_deep_probe_point_is_met_at_any_grid_depth(self, tmp_path):
        # f is 1(0) on the matched block [1^9 0] x [1^9 0], which no grid of
        # depth 6 reaches, so level 2 never settles on the probe through
        # 1^9 0^w.  The grid depth key is accepted and changes no byte.
        text = ("[experiment]\ngroup = dyadic\nfunction = diag ones 1(0)\n{}"
                "n_max = 3\nlevels = 1,2\n[probes]\ndeep_x = 111111111(0) ; !{{}}\n")
        runs = []
        for line in ("grid_depth = 2\n", "grid_depth = 6\n", ""):
            cfg = write_config(tmp_path, text.format(line))
            out = tmp_path / f"rep{len(runs)}"
            assert main(["approx-zerodim", "--config", str(cfg), "--out", str(out)]) == 1
            summary = json.loads((out / "manifest.json").read_text())["summary"]
            assert summary["stage_of_level"] == {"1": 1, "2": None}
            reports = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            runs.append((reports, summary))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("alter, code", [(False, 0), (True, 1)])
    def test_zerodim_verdict_checks_telescoping(self, tmp_path, monkeypatch, alter, code):
        # b is taken only on [11111] x [11111].  Factor 2 altered there to
        # g_2(b) b, which stays in net(2), passes every row's check; only the
        # identity g_0 ... g_n = f_{n+1} of finite maps sees it.
        b = DYADIC.parse_element("01(0)")
        factor = ZerodimPipeline.factor

        def altered(pipe, n):
            g = factor(pipe, n)
            if n != 2:
                return g
            return PostCompose(g.inner, {**g.mapping, b: DYADIC.mul(g.mapping[b], b)})

        if alter:
            monkeypatch.setattr(ZerodimPipeline, "factor", altered)
        text = (MINIMAL.replace("const 1(0)", "diag cyl 0:1(0),11111:01(0)")
                .replace("n_max = 2", "n_max = 3"))
        cfg = write_config(tmp_path, text)
        out = tmp_path / "rep"
        assert main(["approx-zerodim", "--config", str(cfg), "--out", str(out)]) == code
        rows = list(csv.DictReader(open(out / "zerodim.csv")))
        assert all(r["pass"] == "1" for r in rows)

    def test_factor_outside_its_net_fails_its_two_rows(self, tmp_path, monkeypatch):
        # Factor 2 altered at b to g_2(b) a, which lies 1/2 from the identity
        # and so outside net(2).  Condition (3) of row 3 reads g_2's values,
        # and row 2 also needs row 3's condition (3); rows 0 and 1 pass.
        a, b = DYADIC.parse_element("1(0)"), DYADIC.parse_element("01(0)")
        factor = ZerodimPipeline.factor

        def altered(pipe, n):
            g = factor(pipe, n)
            if n != 2:
                return g
            return PostCompose(g.inner, {**g.mapping, b: DYADIC.mul(g.mapping[b], a)})

        monkeypatch.setattr(ZerodimPipeline, "factor", altered)
        text = (MINIMAL.replace("const 1(0)", "diag cyl 0:1(0),11111:01(0)")
                .replace("n_max = 2", "n_max = 3"))
        cfg = write_config(tmp_path, text)
        out = tmp_path / "rep"
        assert main(["approx-zerodim", "--config", str(cfg), "--out", str(out)]) == 1
        rows = list(csv.DictReader(open(out / "zerodim.csv")))
        assert [r["cond3"] for r in rows] == ["1", "1", "1", "0"]
        assert [r["pass"] for r in rows] == ["1", "1", "0", "0"]

    @pytest.mark.parametrize("command", ["approx-zerodim", "closure-probe"])
    def test_empty_levels_exit_two(self, tmp_path, command, capsys):
        # With no level the diagonal checks no probe and would pass vacuously.
        text = (MINIMAL.replace("const 1(0)", "diag ones 1(0),01(0)")
                .replace("n_max = 2", "n_max = 3")
                .replace("levels = 1", "levels =").replace("(0) ; !{}", "(1) ; !{}"))
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert "config error: levels must list at least one level" in capsys.readouterr().err
        cfg = write_config(tmp_path, text.replace("levels =", "levels = 1"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0

    def test_parse_error_exit_two(self, tmp_path):
        bad = write_config(tmp_path, "not a config at all [")
        assert main(["nets", "--config", str(bad)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["nets", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_fault_injection_exit_one(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["closure-probe", "--config", str(CONFIGS / "closure-fault.cfg"), "--out", str(out)]
        )
        assert code == 1
        rows = list(csv.DictReader(open(out / "closure.csv")))
        assert rows[3]["within"] == "0"
        assert all(r["within"] == "1" for i, r in enumerate(rows) if i != 3)

    def test_problem3_fail_exit_one(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["problem3", "--config", str(CONFIGS / "problem3-fail.cfg"), "--out", str(out)]
        )
        assert code == 1
        payload = json.load(open(out / "problem3.json"))
        assert payload["within"] is False and payload["witness_x"]

    @pytest.mark.parametrize(
        "command, text",
        [
            ("ball", MINIMAL + "[ball]\nb = side=l; eps=1/2^3; "
                     "candidate=quant(diag ones 1(0),01(0), 2)\n"),
            ("nets", MINIMAL.replace("const 1(0)", "prod(diag ones 1(0),01(0), const 1(0))")),
        ],
    )
    def test_multi_value_family_inside_quant_and_prod_runs(self, tmp_path, command, text):
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0

    def test_bad_ball_side_exit_two(self, tmp_path):
        text = MINIMAL + "[ball]\nb = side=zz; eps=1/2^1; candidate=const 1(0)\n"
        cfg = write_config(tmp_path, text)
        assert main(["ball", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL.replace("const 1(0)", "const "),
            MINIMAL.replace("const 1(0)", "diag ones 1(0),"),
            MINIMAL + "x = ; {0}\n",
        ],
        ids=["const", "trailing-comma", "probe-point"],
    )
    def test_empty_literal_exits_two(self, tmp_path, text, capsys):
        cfg = write_config(tmp_path, text)
        assert main(["nets", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_fault_stage_out_of_range_exit_two(self, tmp_path):
        text = MINIMAL + "[closure]\ninject_fault_at = 99\n"
        cfg = write_config(tmp_path, text)
        assert main(["closure-probe", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize(
        "command, text",
        [
            ("nets", MINIMAL.replace("n_max = 2", "n_max = two")),
            ("nets", MINIMAL + "random = x\n"),
            ("ball", MINIMAL + "[ball]\nb = side=l; eps=zz; candidate=const 1(0)\n"),
            ("closure-probe", MINIMAL + "[closure]\ninject_fault_at = x\n"),
            ("problem3", MINIMAL + "[problem3]\ncandidate = const 1(0)\n"),
            (
                "problem3",
                MINIMAL.replace("dyadic", "real").replace("1(0)", "1/2^1")
                + "[problem3]\ncandidate = const 0/2^0\nbound = 1/3\n",
            ),
        ],
    )
    def test_bad_setting_exits_two(self, tmp_path, command, text, capsys):
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    @pytest.mark.parametrize("command", COMMANDS)
    def test_malformed_section_exits_two_before_any_report(self, tmp_path, command, text, capsys):
        # Every section is parsed at load, so a malformed value fails each
        # command before it writes a report or a manifest.
        cfg = write_config(tmp_path, text)
        out = tmp_path / "rep"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("level", ["-1", "-3", "13"])
    def test_quant_level_out_of_range_exits_two(self, tmp_path, level, capsys):
        text = MINIMAL.replace("const 1(0)", f"quant(diag ones 1(0), {level})")
        cfg = write_config(tmp_path, text)
        assert main(["nets", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert f"config error: quant level {level} must be in [0, 12]" in capsys.readouterr().err

    def test_huge_cyclic_group_exits_two(self, tmp_path, capsys):
        text = MINIMAL.replace("dyadic", "cyclic:5000").replace("1(0)", "1")
        cfg = write_config(tmp_path, text)
        assert main(["nets", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert "cyclic group order 5000 exceeds 64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["nets", "approx-zerodim", "closure-probe"])
    def test_negative_level_exits_two(self, tmp_path, command, capsys):
        cfg = write_config(tmp_path, MINIMAL.replace("levels = 1", "levels = 1,-1"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2
        assert "config error: levels must be nonnegative: '1,-1'" in capsys.readouterr().err

    def test_level_above_n_max_exits_two_before_the_tower(self, tmp_path, monkeypatch, capsys):
        import sepcont.cli as cli

        def no_tower(*args, **kwargs):
            raise AssertionError("the tower is built before the levels are checked")

        cfg = write_config(tmp_path, MINIMAL.replace("levels = 1", "levels = 1,3"))
        out = tmp_path / "rep"
        with monkeypatch.context() as m:
            m.setattr(cli, "ZerodimPipeline", no_tower)
            assert main(["approx-zerodim", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: level 3 needs factors up to 3; raise n_max" in err
        # Only the diagonal reads levels against n_max: without probes, and
        # for nets and closure-probe, the same levels run.
        no_probes = write_config(tmp_path, MINIMAL.replace("levels = 1", "levels = 1,3")
                                 .replace("p0 = (0) ; !{}\n", ""), "no-probes.cfg")
        assert main(["approx-zerodim", "--config", str(no_probes), "--out", str(out)]) == 0
        for command in ("nets", "closure-probe"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    def test_bad_depth_cap_env_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPCONT_MAX_DEPTH", "deep")
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["nets", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 2

    def test_internal_value_error_exits_one(self, tmp_path, monkeypatch, capsys):
        import sepcont.cli as cli

        def broken(exp):
            raise ValueError("internal fault")

        monkeypatch.setitem(cli._HANDLERS, "nets", broken)
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["nets", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert "error: internal fault" in err and "config error" not in err
        assert "Traceback (most recent call last)" in err

    def test_depth_cap_env_override(self, tmp_path, monkeypatch, capsys):
        # Stage 6 of the discrete engine works at depth 2.
        text = MINIMAL.replace("const 1(0)", "diag ones 1(0)").replace("n_max = 2", "n_max = 6")
        cfg = write_config(tmp_path, text)
        monkeypatch.setenv("SEPCONT_MAX_DEPTH", "1")
        assert main(["approx-discrete", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3
        assert "resource error: working depth 2 exceeds cap 1" in capsys.readouterr().err
        monkeypatch.setenv("SEPCONT_MAX_DEPTH", "2")
        assert main(["approx-discrete", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0


def _ball_jobs():
    """(group, center text, queries) over one group: one query per side plus
    up to two more, each (side, radius, candidate text) with a radius in
    1/2^0..1/2^3 and a candidate that is a ``const``, a ``quant`` or any
    other description."""

    def for_group(group, pool):
        described = _described_functions(group, pool)
        candidate = st.one_of(
            st.sampled_from(pool or group.dense_enumeration(1)[:4]).map(lambda v: f"const {v}"),
            st.tuples(described, st.integers(0, 2)).map(lambda t: f"quant({t[0][0]}, {t[1]})"),
            described.map(lambda d: d[0]),
        )
        query = lambda side: st.tuples(side, st.integers(0, 3), candidate)
        queries = st.tuples(
            st.tuples(*(query(st.just(side)) for side in ("l", "r", "lr", "rl"))),
            st.lists(query(st.sampled_from(("l", "r", "lr", "rl"))), max_size=2),
        ).map(lambda qs: list(qs[0]) + qs[1])
        return st.tuples(st.just(group), described.map(lambda d: d[0]), queries)

    return st.one_of(
        *(for_group(group, None) for group in GRAMMAR_GROUPS),
        for_group(get_group("real"), REAL_POOL),
    )


class TestBallMemo:
    """A ball job shares one memo over its queries."""

    @given(_ball_jobs(), st.data())
    def test_shared_memo_gives_the_fresh_memo_records(self, job, data):
        group, center_text, queries = job
        center = parse_function(center_text, group, CONFIGS)
        built = [
            BallQuery(center, parse_function(text, group, CONFIGS), side, Fraction(1, 2**k))
            for side, k, text in queries
        ]
        fresh = [ball_membership(q) for q in built]
        memo = GridMemo()
        order = data.draw(st.permutations(range(len(built))))
        shared = {i: ball_membership(built[i], memo) for i in order}
        assert [shared[i] for i in range(len(built))] == fresh

        # The CLI runs the queries in name order on one memo.
        lines = [f"b{i} = side={side}; eps=1/2^{k}; candidate={text}"
                 for i, (side, k, text) in enumerate(queries)]
        cfg_text = (f"[experiment]\ngroup = {group.name}\nfunction = {center_text}\n"
                    "[ball]\n" + "\n".join(lines) + "\n")
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), cfg_text)
            assert main(["ball", "--config", str(cfg), "--out", str(Path(tmp) / "rep")]) == 0
            records = [json.loads(line)
                       for line in (Path(tmp) / "rep" / "ball.jsonl").read_text().splitlines()]
        assert [(r["member"], r["witness_x"], r["witness_y"]) for r in records] == [
            (res.member, *(map(str, res.witness) if res.witness else ("", "")))
            for res in fresh
        ]


class TestReports:
    def test_header_only_certificate_csv(self, tmp_path):
        text = MINIMAL.replace("p0 = (0) ; !{}\n", "")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "rep"
        assert main(["approx-discrete", "--config", str(cfg), "--out", str(out)]) == 0
        content = (out / "certificate.csv").read_text()
        assert content == "n,probe_id,in_nbhd,violation_witness\n"

    def test_zerodim_schema(self, tmp_path):
        out = tmp_path / "rep"
        main(["approx-zerodim", "--config", str(CONFIGS / "diag-dyadic.cfg"), "--out", str(out)])
        with open(out / "zerodim.csv") as fh:
            header = fh.readline().strip()
        assert header == "level,cond1,cond2_sup,cond3,diag_dist_sup,budget,pass"
        rows = list(csv.DictReader(open(out / "zerodim.csv")))
        assert len(rows) == 4  # levels 0..3

    def test_certificate_schema(self, tmp_path):
        out = tmp_path / "rep"
        main(["approx-discrete", "--config", str(CONFIGS / "diag-dyadic.cfg"), "--out", str(out)])
        with open(out / "certificate.csv") as fh:
            header = fh.readline().strip()
        assert header == "n,probe_id,in_nbhd,violation_witness"

    def test_ball_jsonl_one_record_per_probe(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["ball", "--config", str(CONFIGS / "ball-suite.cfg"), "--out", str(out)]) == 0
        lines = (out / "ball.jsonl").read_text().splitlines()
        assert len(lines) == 7
        rec = json.loads(lines[0])
        assert set(rec) == {
            "probe_id", "side", "eps_num", "eps_log2_den", "member", "witness_x", "witness_y",
        }

    def test_ball_keys_may_be_spaced(self, tmp_path):
        written = []
        for query in ("side=l; eps=1/2^2; candidate=const 1(0)",
                      "side = l; eps = 1/2^2; candidate = const 1(0)"):
            cfg = write_config(tmp_path, MINIMAL + f"[ball]\nb1 = {query}\n")
            out = tmp_path / str(len(written))
            assert main(["ball", "--config", str(cfg), "--out", str(out)]) == 0
            written.append((out / "ball.jsonl").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["member"] is True

    def test_nets_report(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["nets", "--config", str(CONFIGS / "diag-dyadic.cfg"), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "nets.csv")))
        assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
        assert all(r["ball_ok"] == r["separation_ok"] == r["maximality_ok"] == "1" for r in rows)
        assert rows[1]["size"] == "8"

    def test_manifest_lists_report_checksums(self, tmp_path):
        out = tmp_path / "rep"
        main(["approx-zerodim", "--config", str(CONFIGS / "diag-dyadic.cfg"), "--out", str(out)])
        manifest = json.load(open(out / "manifest.json"))
        digest = hashlib.sha256((out / "zerodim.csv").read_bytes()).hexdigest()
        assert manifest["reports"] == {"zerodim.csv": digest}
        assert manifest["summary"]["passed"] is True
        assert "net" in manifest["net_indexing_note"]

    def test_quantizer_table_rows(self, tmp_path):
        out = tmp_path / "rep"
        assert (
            main(["approx-zerodim", "--config", str(CONFIGS / "diag-multi.cfg"), "--out", str(out)])
            == 0
        )
        rows = list(csv.DictReader(open(out / "zerodim.csv")))
        assert len(rows) == 7
        assert all(r["cond1"] == "1" and r["cond3"] == "1" for r in rows)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    ["approx-zerodim", "--config", str(CONFIGS / "diag-dyadic.cfg"), "--out", str(out)]
                )
                == 0
            )
            outs.append((out / "zerodim.csv").read_bytes())
        assert outs[0] == outs[1]
