import builtins
import csv
import io
import json
import random
from pathlib import Path

import pytest

from demon import cli, engine
from demon import expr as ex
from demon import traces as tg
from demon.automaton import decentralized_run, load_spec_file

from helpers import dspec_to_dict, spec_to_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fig1_file(fig1, tmp_path):
    p = tmp_path / "fig1.json"
    p.write_text(json.dumps(spec_to_dict(fig1)))
    return str(p)


@pytest.fixture
def trace_file(ex7_trace, tmp_path):
    p = tmp_path / "trace.csv"
    tg.store(ex7_trace, str(p))
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenTraces:
    def test_writes_files(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "components": 2, "length": 5, "count": 3, "seed": 7,
            "distributions": [{"kind": "normal"}, {"kind": "beta", "alpha": 5, "beta": 1}],
        }))
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "gen-traces", str(cfg), str(out))
        assert code == 0 and stdout.strip() == "6"
        files = sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == 6
        tg.load(str(out / files[0]))  # parses back

    def test_zero_length_files_valid(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "components": 2, "length": 0, "count": 1,
            "distributions": [{"kind": "binomial"}],
        }))
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "gen-traces", str(cfg), str(out))
        assert code == 0
        tr = tg.load(str(next(out.glob("*.csv"))))
        assert tr.length == 0

    def test_bad_params_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "components": 2, "distributions": [{"kind": "beta", "alpha": -1, "beta": 2}],
        }))
        code, _, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and "error" in err
        cfg.write_text(json.dumps({
            "components": 2, "count": -3, "distributions": [{"kind": "normal"}],
        }))
        code, out, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and out == "" and "'count'" in err
        for kind, key, value in (("normal", "sigma2", float("nan")), ("beta", "alpha", True)):
            cfg.write_text(json.dumps({"components": 2,
                                       "distributions": [{"kind": kind, key: value}]}))
            code, out, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
            assert code == 2 and out == "" and f"'{key}'" in err

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"distributions": [{"kind": "normal"}]}))
        code, _, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and "'components'" in err

    def test_unknown_distribution_parameter_named(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "components": 2, "distributions": [{"kind": "beta", "alpah": 2}],
        }))
        code, _, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and "'alpah'" in err

    def test_non_integer_option_named(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "components": "three", "distributions": [{"kind": "normal"}],
        }))
        code, _, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and "'components'" in err

    @pytest.mark.parametrize("distributions", [["normal"], {"kind": "normal"}])
    def test_distributions_must_be_objects(self, tmp_path, capsys, distributions):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"components": 2, "distributions": distributions}))
        code, _, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and "'distributions'" in err

    def test_unknown_distribution_kind_named(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"components": 2, "distributions": [{"kind": "poisson"}]}))
        code, out, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and out == "" and "unknown distribution kind 'poisson'" in err

    def test_non_numeric_distribution_parameter_named(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "components": 2, "distributions": [{"kind": "normal", "sigma2": "x"}],
        }))
        code, _, err = run_cli(capsys, "gen-traces", str(cfg), str(tmp_path / "o"))
        assert code == 2 and "'sigma2'" in err


class TestCheck:
    def test_monitorable_spec(self, fig1_file, capsys):
        code, out, _ = run_cli(capsys, "check", "monitorability", "--spec", fig1_file)
        assert code == 0
        assert json.loads(out)["monitorable"] is True

    def test_non_monitorable_lists_states(self, fig3, tmp_path, capsys):
        p = tmp_path / "fig3.json"
        p.write_text(json.dumps(spec_to_dict(fig3)))
        code, out, _ = run_cli(capsys, "check", "monitorability", "--spec", str(p))
        assert code == 1
        assert json.loads(out)["non_monitorable_states"] == ["q0", "q1"]

    def test_decentralized_monitorability(self, fig4, tmp_path, capsys):
        p = tmp_path / "fig4.json"
        p.write_text(json.dumps(dspec_to_dict(fig4)))
        code, out, _ = run_cli(capsys, "check", "monitorability", "--spec", str(p))
        assert code == 0

    def test_decentralized_validate(self, capsys):
        code, out, _ = run_cli(capsys, "check", "validate", "--spec",
                               str(FIXTURES / "decentralized_shared.json"))
        assert code == 0 and json.loads(out)["valid"] is True

    def test_decentralized_not_monitorable_exit_1(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "decentralized_shared.json").read_text())
        cyclic = json.loads(json.dumps(data))  # m2 also waits for m0, which references m2
        cyclic["monitors"]["m2"]["transitions"][0]["label"] = "a2 && m0"
        cyclic["monitors"]["m2"]["transitions"][1]["label"] = "!a2 || !m0"
        stuck = json.loads(json.dumps(data))  # m1 never leaves p0, an unknown state
        stuck["monitors"]["m1"] = {
            "initial": "p0", "states": ["p0"], "verdicts": {"p0": "unknown"},
            "transitions": [{"from": "p0", "label": "a1 || m2", "to": "p0"},
                            {"from": "p0", "label": "!a1 && !m2", "to": "p0"}]}
        for spec, witnesses in ((cyclic, {"__dependency_cycle__": True}), (stuck, {"m1": ["p0"]})):
            p = tmp_path / "spec.json"
            p.write_text(json.dumps(spec))
            code, out, _ = run_cli(capsys, "check", "monitorability", "--spec", str(p))
            assert code == 1 and json.loads(out) == {"monitorable": False,
                                                     "witnesses": witnesses}

    def test_compatibility(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"nodes": ["m0", "m1", "m2"],
                                   "edges": [["m0", "m1"], ["m2", "m1"]]}))
        sysg = tmp_path / "sys.json"
        sysg.write_text(json.dumps({"nodes": ["c0", "c1", "c2", "c3"],
                                    "edges": [["c0", "c1"], ["c1", "c2"], ["c2", "c3"]]}))
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps({"m0": "c0", "m2": "c2"}))
        code, out, _ = run_cli(capsys, "check", "compatibility",
                               "--network", str(net), "--system", str(sysg),
                               "--constraint", str(cons))
        assert code == 0
        payload = json.loads(out)
        assert payload["compatible"] and payload["assignment"]["m1"] in {"c2", "c3"}

    @pytest.mark.parametrize("network, constraint", [
        ({"nodes": ["m0"], "edges": [["m0", "m9"]]}, {}),  # edge to an unknown node
        ({"nodes": ["m0"]}, {}),  # no edge list
        ({"nodes": ["m0"], "edges": []}, {"m9": "c0"}),  # unknown monitor
        ({"nodes": ["m0"], "edges": []}, {"m0": "c9"}),  # unknown component
    ])
    def test_bad_compatibility_input_exit_2(self, tmp_path, capsys, network, constraint):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(network))
        sysg = tmp_path / "sys.json"
        sysg.write_text(json.dumps({"nodes": ["c0"], "edges": []}))
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(constraint))
        code, _, err = run_cli(capsys, "check", "compatibility", "--network", str(net),
                               "--system", str(sysg), "--constraint", str(cons))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("network, constraint, named", [
        ({"nodes": ["m0"], "edges": []}, ["m0", "c0"], "cons.json"),  # not an object
        ({"nodes": ["m0"], "edges": []}, {"m0": ["c0"]}, "cons.json"),
        ({"nodes": "abc", "edges": []}, {}, "'nodes'"),  # read as a, b, c
        ({"nodes": [1, 2], "edges": []}, {}, "'nodes'"),
        ({"nodes": ["a", "b"], "edges": ["ab"]}, {}, "'edges'"),  # read as a -> b
        (["m0"], {}, "net.json"),
        ({"nodes": ["m0", "m0"], "edges": []}, {}, "['m0', 'm0']"),
    ])
    def test_malformed_compatibility_input_named(self, tmp_path, capsys, network,
                                                 constraint, named):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(network))
        sysg = tmp_path / "sys.json"
        sysg.write_text(json.dumps({"nodes": ["c0"], "edges": []}))
        cons = tmp_path / "cons.json"
        cons.write_text(json.dumps(constraint))
        code, _, err = run_cli(capsys, "check", "compatibility", "--network", str(net),
                               "--system", str(sysg), "--constraint", str(cons))
        assert code == 2 and named in err

    def test_validate(self, fig1_file, capsys):
        code, out, _ = run_cli(capsys, "check", "validate", "--spec", fig1_file)
        assert code == 0 and json.loads(out)["valid"]

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run_cli(capsys, "check", "monitorability", "--spec", str(p))
        assert code == 2

    @pytest.mark.parametrize("mode", ["validate", "monitorability"])
    @pytest.mark.parametrize("content, named", [
        (5, "JSON object"),
        ({"monitors": 5}, "'monitors'"),
        ({"states": ["q"], "initial": "q", "transitions": [], "verdicts": ["unknown"]},
         "'verdicts'"),
        ({"states": ["q"], "initial": "q", "verdicts": {"q": "unknown"},
          "transitions": [{"from": "q", "to": "q", "label": ["a", "b"]}]}, "'label'"),
        ({"monitors": {}, "attach": "c0", "root": "m", "ap_owner": {}}, "'attach'"),
        ({"monitors": {}, "attach": {}, "root": "m", "ap_owner": "c0"}, "'ap_owner'"),
    ])
    def test_spec_of_wrong_shape_named(self, tmp_path, capsys, mode, content, named):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(content))
        code, _, err = run_cli(capsys, "check", mode, "--spec", str(p))
        assert code == 2 and err.startswith("error:") and named in err

    def test_validate_wide_labels(self, tmp_path, capsys):
        labels = " && ".join(f"x{i}" for i in range(17))
        spec = {"states": ["q0"], "initial": "q0", "verdicts": {"q0": "unknown"},
                "transitions": [{"from": "q0", "to": "q0", "label": labels},
                                {"from": "q0", "to": "q0", "label": f"!({labels})"}]}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "check", "validate", "--spec", str(p))
        assert code == 0 and json.loads(out)["valid"] is True


class TestRun:
    def test_orch_csv(self, fig1_file, trace_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--spec", fig1_file,
                               "--trace", trace_file, "--algorithm", "orch")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == list(cli.mt.CSV_HEADER)
        assert rows[1][0] == "orch" and rows[1][4] == "top"

    def test_json_format(self, fig1_file, trace_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--spec", fig1_file,
                               "--trace", trace_file, "--algorithm", "migr",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "top"

    def test_timeout_exit_1(self, fig3, tmp_path, trace_file, capsys):
        p = tmp_path / "fig3.json"
        p.write_text(json.dumps(spec_to_dict(fig3)))
        code, out, _ = run_cli(capsys, "run", "--spec", str(p),
                               "--trace", trace_file, "--algorithm", "orch",
                               "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "unknown" and payload["stop_round"] == 2 + 5

    def test_internal_key_error_propagates(self, fig1_file, trace_file, capsys, monkeypatch):
        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr(cli.engine, "simulate", broken)
        with pytest.raises(KeyError):
            cli.main(["run", "--spec", fig1_file, "--trace", trace_file, "--algorithm", "orch"])

    def test_active_above_component_count_exit_2(self, fig1_file, trace_file, capsys):
        for alg in ("orch", "migr", "migrr"):
            code, out, err = run_cli(capsys, "run", "--spec", fig1_file, "--trace", trace_file,
                                     "--algorithm", alg, "--active", "99")
            assert code == 2 and out == ""
            assert "initial_active 99" in err and "2 components" in err
            # the trace has two components: both may start active
            code, out, _ = run_cli(capsys, "run", "--spec", fig1_file, "--trace", trace_file,
                                   "--algorithm", alg, "--active", "2", "--format", "json")
            assert code == 0 and json.loads(out)["verdict"] == "top"

    def test_system_missing_trace_components_exit_2(self, tmp_path, capsys):
        # Before, orch/migr/migrr ran with c1 and c2 unread and reported unknown.
        experiment = Path(__file__).resolve().parent.parent / "fixtures" / "experiment"
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"nodes": ["c0"], "edges": []}))
        for alg in ("orch", "migr", "migrr", "chor"):
            code, out, err = run_cli(capsys, "run", "--spec", str(experiment / "spec.ltl"),
                                     "--trace", str(experiment / "trace_normal.csv"),
                                     "--algorithm", alg, "--system", str(system))
            assert code == 2 and out == "", alg
            assert "['c1', 'c2']" in err, (alg, err)

    def test_system_repeated_node_exit_2(self, tmp_path, capsys):
        # Before, the run exited 0 with components 4, msgs 3.0 and conv_e 0.75
        # (3, 2.0 and 0.667 with the nodes listed once).
        experiment = Path(__file__).resolve().parent.parent / "fixtures" / "experiment"
        nodes = ["c0", "c0", "c1", "c2"]
        system = tmp_path / "system.json"
        system.write_text(json.dumps(
            {"nodes": nodes, "edges": [[a, b] for a in nodes for b in nodes if a != b]}))
        code, out, err = run_cli(capsys, "run", "--spec", str(experiment / "spec.ltl"),
                                 "--trace", str(experiment / "trace_normal.csv"),
                                 "--algorithm", "orch", "--system", str(system))
        assert code == 2 and out == ""
        assert "['c0', 'c0', 'c1', 'c2']" in err

    @pytest.mark.parametrize("row, named", [
        ("1,c0,a0,1,9", "line 2: expected 4 fields, got 5"),
        ("x,c0,a0,1", "line 2: bad round number 'x'"),
        ("0,c0,a0,1", "line 2: round numbers start at 1, got 0"),
    ])
    def test_malformed_trace_row_exit_2(self, fig1_file, tmp_path, capsys, row, named):
        trace_path = tmp_path / "tr.csv"
        trace_path.write_text(f"t,component,ap,value\n{row}\n")
        code, out, err = run_cli(capsys, "run", "--spec", fig1_file,
                                 "--trace", str(trace_path), "--algorithm", "orch")
        assert code == 2 and out == "" and named in err

    def test_blank_trace_row_skipped(self, tmp_path):
        rows = ["t,component,ap,value", "1,c0,a0,0", "2,c0,a0,1"]
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("\n".join(rows) + "\n")
        blank.write_text("\n".join(rows[:2] + [""] + rows[2:]) + "\n")
        assert tg.load(str(blank)) == tg.load(str(plain))

    def test_non_text_ltl_key_named(self, tmp_path, trace_file, capsys):
        spec = tmp_path / "phi.json"
        spec.write_text(json.dumps({"ltl": 5}))
        for alg in ("orch", "chor"):
            code, _, err = run_cli(capsys, "run", "--spec", str(spec),
                                   "--trace", trace_file, "--algorithm", alg)
            assert code == 2 and "phi.json" in err and "'ltl'" in err

    def test_proposition_named_like_chor_monitor_exit_2(self, tmp_path, capsys):
        # chor delegates one operand of the && to a monitor named m1, whose
        # verdict the proposition m1 would otherwise be read as.
        ltl = tmp_path / "phi.ltl"
        ltl.write_text("F (m1 && b)\n")
        trace_path = tmp_path / "tr.csv"
        trace_path.write_text("t,component,ap,value\n1,c0,m1,1\n1,c1,b,0\n"
                              "2,c0,m1,0\n2,c1,b,1\n3,c0,m1,0\n3,c1,b,0\n")
        args = ("run", "--spec", str(ltl), "--trace", str(trace_path), "--format", "json")
        code, out, err = run_cli(capsys, *args, "--algorithm", "chor")
        assert code == 2 and out == "" and "'m1'" in err
        code, out, _ = run_cli(capsys, *args, "--algorithm", "orch")
        assert code == 1 and json.loads(out)["verdict"] == "unknown"

    def test_chor_from_ltl_text(self, tmp_path, capsys):
        ltl = tmp_path / "phi.ltl"
        ltl.write_text("F (a0 || a2)\n")
        tr = tg.generate(tg.TraceGenConfig(components=2, length=8, seed=4,
                                           distribution=tg.Beta(alpha=5, beta=1)))
        trace_path = tmp_path / "tr.csv"
        tg.store(tr, str(trace_path))
        code, out, _ = run_cli(capsys, "run", "--spec", str(ltl),
                               "--trace", str(trace_path), "--algorithm", "chor",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "top"


NESTS = {"parentheses": lambda n: "(" * n + "a0" + ")" * n, "negations": lambda n: "!" * n + "a0"}


class TestNestingBound:
    """Inputs nested past ``expr.MAX_NESTING`` are bad input (exit 2, naming
    the bound), in both the formula and the label syntax; at the bound they
    run.  In a formula each further operand of an ``&&`` chain is one level;
    labels take chains of any length."""

    TRACE = str(FIXTURES / "experiment" / "trace_normal.csv")

    def run(self, capsys, spec):
        return run_cli(capsys, "run", "--spec", str(spec), "--trace", self.TRACE,
                       "--algorithm", "orch")

    @pytest.mark.parametrize("nest", [*NESTS.values(),
                                      lambda n: "(" + " && ".join(["a0"] * n) + ")"],
                             ids=[*NESTS, "chain"])
    def test_ltl_file(self, tmp_path, capsys, nest):
        ltl = tmp_path / "phi.ltl"
        ltl.write_text(f"F {nest(ex.MAX_NESTING - 1)}\n")
        code, out, err = self.run(capsys, ltl)
        assert code in (0, 1) and out and err == ""
        ltl.write_text(f"F {nest(ex.MAX_NESTING)}\n")
        code, out, err = self.run(capsys, ltl)
        assert code == 2 and out == ""
        assert err == f"error: spec file {ltl}: formula nests parentheses and operators " \
                      f"more than {ex.MAX_NESTING} levels deep\n"

    @pytest.mark.parametrize("nest", NESTS.values(), ids=NESTS)
    def test_automaton_label(self, tmp_path, capsys, nest):
        def spec(depth):
            # nest(n) is a0 for an even n
            return {"states": ["q0", "q1"], "initial": "q0",
                    "verdicts": {"q0": "unknown", "q1": "top"},
                    "transitions": [{"from": "q0", "to": "q1", "label": nest(depth)},
                                    {"from": "q0", "to": "q0", "label": "!a0"},
                                    {"from": "q1", "to": "q1", "label": "true"}]}

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec(ex.MAX_NESTING)))
        code, out, err = self.run(capsys, path)
        assert code in (0, 1) and out and err == ""
        path.write_text(json.dumps(spec(ex.MAX_NESTING + 2)))
        code, out, err = self.run(capsys, path)
        assert code == 2 and out == "" and f"more than {ex.MAX_NESTING} levels" in err


DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON parser's recursion limit


class TestDeepJson:
    """JSON nested past the interpreter's recursion limit is bad input (exit
    2, naming the file) at each place a file's JSON is parsed, not a
    RecursionError traceback (exit 1)."""

    TRACE = str(FIXTURES / "experiment" / "trace_normal.csv")

    def expect_input_error(self, capsys, path, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err and "nests too deeply" in err

    def test_spec_file_under_run(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text(f'{{"states": {DEEP}}}')
        self.expect_input_error(capsys, spec, "run", "--algorithm", "orch",
                                "--spec", str(spec), "--trace", self.TRACE)

    def test_spec_file_under_check(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text(f'{{"states": {DEEP}}}')
        self.expect_input_error(capsys, spec, "check", "validate", "--spec", str(spec))

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text(f'{{"specs": {DEEP}}}')
        self.expect_input_error(capsys, config, "experiment", str(config))

    def test_trace_metadata_line(self, tmp_path, capsys):
        trace = tmp_path / "deep.csv"
        trace.write_text(f'# {{"components": {DEEP}, "length": 3}}\n'
                         "t,component,ap,value\n1,c0,a0,1\n")
        self.expect_input_error(capsys, trace, "run", "--algorithm", "orch",
                                "--spec", str(FIXTURES / "experiment" / "spec.ltl"),
                                "--trace", str(trace))


class TestInputErrorsNameTheirFile:
    """Malformed JSON and a malformed trace are bad input (exit 2) whose
    message names the file, since one run reads several."""

    TRACE = str(FIXTURES / "experiment" / "trace_normal.csv")
    LTL = str(FIXTURES / "experiment" / "spec.ltl")

    def expect_named(self, capsys, path, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err, err

    @pytest.fixture
    def truncated(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"states": [')
        return path

    @pytest.fixture
    def bad_header(self, tmp_path):
        path = tmp_path / "badhdr.csv"
        path.write_text("t,comp,ap,value\n1,c0,a0,1\n")
        return path

    def test_spec_under_check(self, capsys, truncated):
        self.expect_named(capsys, truncated, "check", "validate", "--spec", str(truncated))

    @pytest.mark.parametrize("algorithm", ["orch", "chor"])
    def test_spec_under_run(self, capsys, truncated, algorithm):
        self.expect_named(capsys, truncated, "run", "--algorithm", algorithm,
                          "--spec", str(truncated), "--trace", self.TRACE)

    def test_system_graph(self, capsys, truncated):
        self.expect_named(capsys, truncated, "run", "--algorithm", "orch", "--spec", self.LTL,
                          "--trace", self.TRACE, "--system", str(truncated))

    def test_experiment_config(self, capsys, truncated):
        self.expect_named(capsys, truncated, "experiment", str(truncated))

    @pytest.mark.parametrize("name, text", [("phi.ltl", "a0 &&"),
                                            ("phi.json", json.dumps({"ltl": "a0 &&"}))],
                             ids=["text", "json"])
    @pytest.mark.parametrize("algorithm", ["orch", "chor"])
    def test_malformed_ltl(self, tmp_path, capsys, name, text, algorithm):
        spec = tmp_path / name
        spec.write_text(text)
        self.expect_named(capsys, spec, "run", "--algorithm", algorithm, "--spec", str(spec),
                          "--trace", self.TRACE)

    @pytest.mark.parametrize("text", ["t,comp,ap,value\n1,c0,a0,1\n",
                                      "t,component,ap,value\n1,c0,a0,2\n",
                                      "t,component,ap,value\n1,c0\n"])
    def test_trace_under_run(self, tmp_path, capsys, text):
        trace = tmp_path / "bad.csv"
        trace.write_text(text)
        self.expect_named(capsys, trace, "run", "--algorithm", "orch", "--spec", self.LTL,
                          "--trace", str(trace))

    def test_unowned_proposition_names_spec_and_trace(self, tmp_path, capsys):
        # No component observes ``a``: chor cannot place it, orch runs to unknown.
        spec = tmp_path / "x.ltl"
        spec.write_text("F (a0 && a)\n")
        code, out, err = run_cli(capsys, "run", "--algorithm", "chor", "--spec", str(spec),
                                 "--trace", self.TRACE)
        assert code == 2 and out == "" and str(spec) in err and self.TRACE in err
        assert "proposition 'a' has no owning component" in err
        code, out, _ = run_cli(capsys, "run", "--algorithm", "orch", "--spec", str(spec),
                               "--trace", self.TRACE, "--format", "json")
        assert code == 1 and json.loads(out)["verdict"] == "unknown"

    def test_experiment_config_values_name_the_config(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"algorithms": ["orch"], "specs": [self.LTL],
                                      "traces": [self.TRACE], "comm_delay": 0}))
        self.expect_named(capsys, config, "experiment", str(config))

    def test_trace_under_experiment(self, tmp_path, capsys, bad_header):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"algorithms": ["orch"], "specs": [self.LTL],
                                      "traces": [bad_header.name]}))
        code, _, err = run_cli(capsys, "experiment", str(config))
        assert code == 0 and str(bad_header) in err and "skipping" in err
        self.expect_named(capsys, bad_header, "experiment", str(config), "--strict")


class TestExperiment:
    def _write_experiment(self, tmp_path, fig1):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_to_dict(fig1)))
        names = []
        for i in range(2):
            # one observation per component, named to match the fig1 labels
            tr = tg.generate(tg.TraceGenConfig(components=2, aps_per_component=1,
                                               length=6, seed=i))
            rename = {"a0": "a", "a1": "b"}
            rows = [["t", "component", "ap", "value"]]
            for (t, comp) in sorted(tr.events):
                for ap, v in sorted(tr.events[(t, comp)].observations):
                    rows.append([str(t), comp, rename[ap],
                                 "1" if v is ex.TOP else "0"])
            path = tmp_path / f"t{i}.csv"
            path.write_text("\n".join(",".join(r) for r in rows) + "\n")
            names.append(path.name)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "algorithms": ["orch", "migr"],
            "specs": ["spec.json"],
            "traces": names,
            "output": "results.csv",
        }))
        return cfg

    def test_experiment_rows(self, tmp_path, fig1, capsys):
        cfg = self._write_experiment(tmp_path, fig1)
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 0
        rows = list(csv.reader((tmp_path / "results.csv").open()))
        assert rows[0] == list(cli.mt.CSV_HEADER)
        assert len(rows) == 1 + 2 * 2  # algorithms x traces

    def test_experiment_deterministic(self, tmp_path, fig1, capsys):
        cfg = self._write_experiment(tmp_path, fig1)
        run_cli(capsys, "experiment", str(cfg))
        first = (tmp_path / "results.csv").read_bytes()
        run_cli(capsys, "experiment", str(cfg))
        assert (tmp_path / "results.csv").read_bytes() == first

    def test_missing_trace_skipped(self, tmp_path, fig1, capsys):
        cfg = self._write_experiment(tmp_path, fig1)
        data = json.loads(cfg.read_text())
        data["traces"].append("missing.csv")
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 0 and "skipping" in err
        data["output"] = None
        cfg.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--strict")
        assert code == 2

    def test_active_above_component_count_skipped_per_run(self, tmp_path, fig1, capsys):
        cfg = self._write_experiment(tmp_path, fig1)
        data = json.loads(cfg.read_text())
        data["active"] = 99
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 0 and err.count("skipping orch/") == 2 and err.count("skipping migr/") == 2
        assert "initial_active 99" in err
        rows = list(csv.reader((tmp_path / "results.csv").open()))
        assert rows[1:] == []

    def test_bad_spec_skipped_once_per_run(self, tmp_path, fig1, capsys):
        cfg = self._write_experiment(tmp_path, fig1)
        (tmp_path / "spec.json").write_text("{")
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 0 and err.count("skipping") == 2 * 2  # algorithms x traces
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--strict")
        assert code == 2 and "skipping" not in err

    def test_spec_input_built_once_per_algorithm(self, tmp_path, capsys, monkeypatch):
        import shutil

        work = tmp_path / "experiment"
        shutil.copytree(Path(__file__).resolve().parent.parent / "fixtures" / "experiment", work)
        real = cli._spec_input_for
        calls = []
        monkeypatch.setattr(cli, "_spec_input_for", lambda *a: calls.append(a) or real(*a))
        code, _, _ = run_cli(capsys, "experiment", str(work / "config.json"))
        assert code == 0
        assert len((work / "results.csv").read_text().splitlines()) == 1 + 4 * 3
        assert len(calls) == 4  # one per algorithm and spec, not one per trace

    def test_non_text_ltl_key_skipped_once_per_run(self, tmp_path, fig1, capsys):
        cfg = self._write_experiment(tmp_path, fig1)
        (tmp_path / "spec.json").write_text(json.dumps({"ltl": 5}))
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 0 and err.count("skipping") == 2 * 2 and "'ltl'" in err
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--strict")
        assert code == 2 and "'ltl'" in err

    def test_each_trace_loaded_once(self, tmp_path, capsys, monkeypatch):
        import shutil

        work = tmp_path / "experiment"
        shutil.copytree(Path(__file__).resolve().parent.parent / "fixtures" / "experiment", work)
        real = cli.traces.load
        calls = []
        monkeypatch.setattr(cli.traces, "load", lambda *a: calls.append(a) or real(*a))
        code, _, _ = run_cli(capsys, "experiment", str(work / "config.json"))
        assert code == 0
        assert len((work / "results.csv").read_text().splitlines()) == 1 + 4 * 3
        assert len(calls) == 3  # one per trace, not one per algorithm and spec


class TestLtlSpecInput:
    def test_ltl_file_drives_every_algorithm(self, tmp_path, capsys):
        ltl = tmp_path / "phi.ltl"
        ltl.write_text("F (a0 && a2)\n")
        tr = tg.generate(tg.TraceGenConfig(components=2, length=10, seed=2,
                                           distribution=tg.Beta(alpha=5, beta=1)))
        trace_path = tmp_path / "tr.csv"
        tg.store(tr, str(trace_path))
        verdicts = {}
        for alg in ("orch", "migr", "migrr", "chor"):
            code, out, _ = run_cli(capsys, "run", "--spec", str(ltl),
                                   "--trace", str(trace_path), "--algorithm", alg,
                                   "--format", "json")
            verdicts[alg] = json.loads(out)["verdict"]
        assert set(verdicts.values()) == {"top"}

    def test_ltl_key_matches_formula_text(self, tmp_path, capsys):
        as_json, as_text = tmp_path / "phi.json", tmp_path / "phi.ltl"
        as_json.write_text(json.dumps({"ltl": "F (a0 && a2)"}))
        as_text.write_text("F (a0 && a2)\n")
        trace = str(FIXTURES / "decentralized_shared.csv")
        for alg in ("orch", "chor"):
            outputs = [run_cli(capsys, "run", "--spec", str(spec), "--trace", trace,
                               "--algorithm", alg, "--format", "json")
                       for spec in (as_json, as_text)]
            assert outputs[0] == outputs[1] and outputs[0][0] == 0, alg

    def test_chor_rejects_automaton_input(self, fig1_file, trace_file, capsys):
        code, _, err = run_cli(capsys, "run", "--spec", fig1_file,
                               "--trace", trace_file, "--algorithm", "chor")
        assert code == 2 and "formula" in err


class TestDecentralizedSpecInput:
    SPEC = str(FIXTURES / "decentralized_shared.json")
    TRACE = str(FIXTURES / "decentralized_shared.csv")

    def _variant(self, tmp_path, change):
        data = json.loads(Path(self.SPEC).read_text())
        change(data)
        p = tmp_path / "variant.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_chor_runs_hand_written_spec(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--spec", self.SPEC, "--trace", self.TRACE,
                               "--algorithm", "chor", "--format", "json")
        assert code == 0 and json.loads(out)["verdict"] == "top"

    def test_spec_file_read_once(self, capsys, monkeypatch):
        opened = []

        def counting(file, *args, real=open, **kw):
            opened.append(Path(file).resolve() if isinstance(file, (str, Path)) else file)
            return real(file, *args, **kw)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        code, _, _ = run_cli(capsys, "run", "--spec", self.SPEC, "--trace", self.TRACE,
                             "--algorithm", "chor")
        assert code == 0
        assert opened.count(Path(self.SPEC).resolve()) == 1

    def test_child_with_a_final_initial_state(self, capsys):
        # m1 reports from its initial state at once, so its respawned
        # instance reports again within the round: the run still ends, with
        # the reference verdict.
        spec = str(FIXTURES / "decentralized_final_child.json")
        trace = str(FIXTURES / "experiment" / "trace_normal.csv")
        code, out, _ = run_cli(capsys, "run", "--spec", spec, "--trace", trace,
                               "--algorithm", "chor", "--format", "json")
        expected = decentralized_run(load_spec_file(spec), tg.load(trace))
        assert code == 0 and json.loads(out)["verdict"] == expected.value == "top"

    def test_centralized_algorithms_reject_it(self, capsys):
        for spec, trace in ((self.SPEC, self.TRACE),
                            (str(FIXTURES / "decentralized_eventually.json"), self.TRACE)):
            for alg in ("orch", "migr", "migrr"):
                code, out, err = run_cli(capsys, "run", "--spec", spec, "--trace", trace,
                                         "--algorithm", alg)
                assert code == 2 and out == "" and "centralized specification" in err

    def test_cyclic_spec_exit_2(self, tmp_path, capsys):
        def cycle(data):  # m2 also waits for m0, which references m2
            data["monitors"]["m2"]["transitions"][0]["label"] = "a2 && m0"
            data["monitors"]["m2"]["transitions"][1]["label"] = "!a2 || !m0"

        code, out, err = run_cli(capsys, "run", "--spec", self._variant(tmp_path, cycle),
                                 "--trace", self.TRACE, "--algorithm", "chor")
        assert code == 2 and out == "" and "cycle" in err

    def test_proposition_on_other_component_exit_2(self, tmp_path, capsys):
        # The trace observes a1 on c1; a spec that reads it on c0 would never see it.
        def move(data):
            data["ap_owner"]["a1"] = "c0"
            data["attach"]["m1"] = "c0"

        code, out, err = run_cli(capsys, "run", "--spec", self._variant(tmp_path, move),
                                 "--trace", self.TRACE, "--algorithm", "chor")
        assert code == 2 and out == "" and "['a1']" in err

    def test_attach_outside_system_exit_2(self, tmp_path, capsys):
        def extend(data):
            data["components"].append("c3")
            data["attach"]["m2"] = "c3"
            data["ap_owner"]["a2"] = "c3"

        system = tmp_path / "system.json"
        nodes = ["c0", "c1", "c2"]
        system.write_text(json.dumps(
            {"nodes": nodes, "edges": [[a, b] for a in nodes for b in nodes if a != b]}))
        trace = tmp_path / "tr.csv"
        trace.write_text("".join(line for line in Path(self.TRACE).open()
                                 if ",a2," not in line))
        code, out, err = run_cli(capsys, "run", "--spec", self._variant(tmp_path, extend),
                                 "--trace", str(trace), "--algorithm", "chor",
                                 "--system", str(system))
        assert code == 2 and out == "" and "['c3']" in err

    def test_experiment_runs_it_under_chor_only(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"algorithms": ["orch", "chor"], "specs": [self.SPEC],
                                   "traces": [self.TRACE]}))
        code, out, err = run_cli(capsys, "experiment", str(cfg))
        rows = list(csv.reader(out.splitlines()))
        assert code == 0 and [row[0] for row in rows[1:]] == ["chor"]
        assert rows[1][4] == "top" and err.count("skipping orch") == 1


class TestExperimentTraceSources:
    def test_directory_as_trace_source(self, tmp_path, fig1, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_to_dict(fig1)))
        tdir = tmp_path / "traces"
        tdir.mkdir()
        for i in range(3):
            tr = tg.generate(tg.TraceGenConfig(components=2, aps_per_component=1,
                                               length=5, seed=i))
            rename = {"a0": "a", "a1": "b"}
            rows = [["t", "component", "ap", "value"]]
            for (t, comp) in sorted(tr.events):
                for ap, v in sorted(tr.events[(t, comp)].observations):
                    rows.append([str(t), comp, rename[ap], "1" if v is ex.TOP else "0"])
            (tdir / f"t{i}.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"algorithms": ["orch"], "specs": ["spec.json"],
                                   "traces": ["traces"], "output": "out.csv"}))
        code, _, _ = run_cli(capsys, "experiment", str(cfg))
        assert code == 0
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + 3

    def test_empty_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"algorithms": [], "specs": [], "traces": []}))
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 2 and "at least one" in err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(["orch"]))
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 2 and "exp.json" in err

    def test_non_integer_option_named(self, tmp_path, capsys):
        self.check_bad_option_named(tmp_path, capsys, "comm_delay", "x")

    @pytest.mark.parametrize("key, value", [
        ("comm_delay", 2.5),
        ("comm_delay", True),
        ("specs", 5),
        ("traces", [5]),
        ("algorithms", "orch"),
        ("output", 5),
    ])
    def test_bad_option_named(self, tmp_path, capsys, key, value):
        self.check_bad_option_named(tmp_path, capsys, key, value)

    @staticmethod
    def check_bad_option_named(tmp_path, capsys, key, value):
        import shutil

        work = tmp_path / "experiment"
        shutil.copytree(Path(__file__).resolve().parent.parent / "fixtures" / "experiment", work)
        config = json.loads((work / "config.json").read_text())
        (work / "config.json").write_text(json.dumps({**config, key: value}))
        code, _, err = run_cli(capsys, "experiment", str(work / "config.json"))
        assert code == 2 and f"{key!r}" in err
        assert not (work / "results.csv").exists()


class TestShippedFixtures:
    def test_specs_load_and_check(self, capsys):
        code, out, _ = run_cli(capsys, "check", "monitorability",
                               "--spec", str(FIXTURES / "eventually_any.json"))
        assert code == 0
        code, _, _ = run_cli(capsys, "check", "monitorability",
                             "--spec", str(FIXTURES / "never_concludes.json"))
        assert code == 1
        code, _, _ = run_cli(capsys, "check", "monitorability",
                             "--spec", str(FIXTURES / "decentralized_eventually.json"))
        assert code == 0

    def test_placement_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "compatibility",
            "--network", str(FIXTURES / "monitor_network.json"),
            "--system", str(FIXTURES / "system_path.json"),
            "--constraint", str(FIXTURES / "placement_constraint.json"),
        )
        assert code == 0 and json.loads(out)["assignment"]["m1"] in {"c2", "c3"}

    def test_experiment_folder(self, tmp_path, capsys):
        import shutil

        work = tmp_path / "experiment"
        shutil.copytree(FIXTURES / "experiment", work)
        code, _, _ = run_cli(capsys, "experiment", str(work / "config.json"))
        assert code == 0
        rows = (work / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 3


class TestMutationFuzz:
    """Seeded mutations of the shipped inputs through ``cli.main``: trace
    CSVs, specification JSONs, LTL files and experiment configs.  Every case
    exits 0, 1 or 2 with no exception escaping, and every exit-2 message
    names a file of the inputs."""

    TOKENS = ("", "0", "1", "9", "-1", "a", "a0", "a9", "c0", "c9", "m0", "m9", "q0", "x",
              ",", "\n", " ", "{", "}", "[", "]", '"', ":", "null", "true", "1e999", "&&",
              "||", "!", "F", "G", "X", "U", "(", ")", "#")
    VALUES = (None, True, 0, -1, 2.5, 1e308, "", "x", "a0", "q0", "m0", "c0", "true",
              [], ["x"], [["c0", "c1"]], {}, {"x": 1})
    CASES = {"trace": 2400, "spec": 2400, "ltl": 2000, "experiment": 600}  # about 20 s

    @classmethod
    def mutate(cls, rng, text: str) -> str:
        """``text`` after one to three cuts, insertions, replacements,
        truncations, or repeated or dropped lines."""
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            j = min(len(text), i + rng.randint(1, 8))
            op = rng.randrange(5)
            if op == 0:
                text = text[:i] + text[j:]
            elif op == 1:
                text = text[:i] + rng.choice(cls.TOKENS) + text[i:]
            elif op == 2:
                text = text[:i] + rng.choice(cls.TOKENS) + text[j:]
            elif op == 3:
                text = text[:i]
            else:  # repeat or drop a line
                lines = text.splitlines(keepends=True) or [""]
                k = rng.randrange(len(lines))
                lines[k:k + 1] = rng.choice(([], [lines[k]] * 2))
                text = "".join(lines)
        return text

    @classmethod
    def mutate_json(cls, rng, text: str) -> str:
        """``text`` with one value at a random path replaced, or a key dropped."""
        data = json.loads(text)
        node, key = None, None
        while node is None or rng.random() < 0.7:
            holder = data if node is None else node[key]
            if isinstance(holder, dict) and holder:
                node, key = holder, rng.choice(list(holder))
            elif isinstance(holder, list) and holder:
                node, key = holder, rng.randrange(len(holder))
            else:
                break
        if node is None:
            return text
        if isinstance(node, dict) and rng.random() < 0.2:
            del node[key]
        else:
            node[key] = rng.choice(cls.VALUES)
        return json.dumps(data)

    def expect_handled(self, capsys, inputs, *argv):
        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert err.startswith("error: ") and str(inputs) in err, (argv, err)

    def test_mutated_inputs_exit_cleanly(self, tmp_path, capsys):
        import shutil

        rng = random.Random(20261021)
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURES, inputs)
        experiment = inputs / "experiment"
        traces = [experiment / "trace_normal.csv", inputs / "decentralized_shared.csv"]
        specs = sorted(p for p in inputs.glob("*.json")
                       if "nodes" not in json.loads(p.read_text()))
        mutant = inputs / "mutant"
        for _ in range(self.CASES["trace"]):
            base = rng.choice(traces)
            spec, alg = rng.choice([(experiment / "spec.ltl", rng.choice(engine.ALGORITHMS)),
                                    (inputs / "decentralized_shared.json", "chor")])
            mutant.with_suffix(".csv").write_text(self.mutate(rng, base.read_text()))
            self.expect_handled(capsys, inputs, "run", "--algorithm", alg, "--spec", str(spec),
                                "--trace", str(mutant.with_suffix(".csv")))
        for _ in range(self.CASES["spec"]):
            path = mutant.with_suffix(".json")
            mutate = rng.choice((self.mutate, self.mutate_json))
            path.write_text(mutate(rng, rng.choice(specs).read_text()))
            if rng.random() < 0.3:
                self.expect_handled(capsys, inputs, "check",
                                    rng.choice(("validate", "monitorability")), "--spec", str(path))
            else:
                self.expect_handled(capsys, inputs, "run", "--algorithm",
                                    rng.choice(engine.ALGORITHMS), "--spec", str(path),
                                    "--trace", str(rng.choice(traces)))
        formulas = [(experiment / "spec.ltl").read_text(), "G (a0 || a1 || a2)\n",
                    "F (a0 && a)\n", "(a0 U a1) && X !a2\n"]
        for _ in range(self.CASES["ltl"]):
            path = mutant.with_suffix(".ltl")
            path.write_text(self.mutate(rng, rng.choice(formulas)))
            self.expect_handled(capsys, inputs, "run", "--algorithm",
                                rng.choice(engine.ALGORITHMS), "--spec", str(path),
                                "--trace", str(traces[0]))
        config = experiment / "config.json"
        original = config.read_text()
        done = 0
        while done < self.CASES["experiment"]:
            text = rng.choice((self.mutate, self.mutate_json))(rng, original)
            try:  # results go only to the file the fixture names, or to stdout
                output = json.loads(text).get("output")
            except (ValueError, AttributeError, RecursionError):
                output = None
            if isinstance(output, str) and output not in ("", "results.csv"):
                continue
            config.write_text(text)
            strict = ("--strict",) if rng.random() < 0.5 else ()
            self.expect_handled(capsys, inputs, "experiment", str(config), *strict)
            done += 1
