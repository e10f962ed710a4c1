import argparse
import contextlib
import io
import json
import math
import re
import signal
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twofold import cli, fields, integrate
from twofold.cli import (SLIDE_MAP_MAX_GRID, SWEEP_MAX_CELLS, _build_parser,
                         _finite, main)
from twofold import svg
from twofold.svg import VIEWS, render_region_map, render_trajectory
from twofold.fields import TwoFoldParams, normal_form_system
from twofold.integrate import Trajectory, integrate_blowup, integrate_filippov
from twofold.scenarios import builtin, builtin_names, load_config
from twofold.singularities import (ALPHA_FLOOR, classify_two_fold,
                                   folded_singularities)
from twofold.sliding import region_classify, sliding_lambda
from twofold.transform import RUNGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_reports_invisible_with_node(capsys):
    code, out = run_cli(capsys, "classify", "--a1", "1", "--a2", "1",
                        "--b1", "-2", "--b2", "-2", "--alpha", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == "invisible"
    assert doc["determinacy_breaking"] is True
    assert doc["count"] == 1
    assert doc["singularities"][0]["lambda_s"] == pytest.approx(0.0, abs=1e-12)


def test_classify_alpha_zero_still_reports_flavor(capsys):
    code, out = run_cli(capsys, "classify", "--a1", "1", "--a2", "1",
                        "--b1", "-2", "--b2", "-2", "--alpha", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["degenerate_layer"] is True
    assert doc["count"] == 0
    assert doc["note"] == ("alpha is zero: the layer problem is degenerate and no "
                           "folded singularities are defined")


def test_classify_alpha_below_floor_names_the_cutoff(capsys):
    # a nonzero alpha at or below ALPHA_FLOOR leaves the layer nondegenerate,
    # so the note must not call alpha zero
    for alpha in ("1e-10", "-1e-9"):
        code, out = run_cli(capsys, "classify", "--a1", "1", "--a2", "1",
                            "--b1", "-2", "--b2", "-2", f"--alpha={alpha}")
        assert code == 0
        doc = json.loads(out)
        assert doc["degenerate_layer"] is False and doc["count"] == 0
        assert "alpha is zero" not in doc["note"]
        assert repr(ALPHA_FLOOR) in doc["note"]


@pytest.mark.parametrize("alpha", ["0", "1e-10"])
@pytest.mark.parametrize("command", ["singularity", "transform-check"])
def test_alpha_at_the_floor_is_a_usage_error(command, alpha, capsys):
    code = main([command, "--a1", "1", "--a2", "1", "--b1", "1", "--b2", "-1",
                 "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # the command's own usage and prefix, as for an error in its flags
    assert captured.err.startswith(f"usage: twofold {command} ")
    assert captured.err.endswith(f"\ntwofold {command}: error: |alpha| = {float(alpha)} "
                                 f"below {ALPHA_FLOOR}\n")


@pytest.mark.parametrize("argv", [
    ("slide-map", "--scenario", "mixed-nf", "--grid", "1"),
    ("sweep", "--a1", "1", "--a2", "1"),
    ("scenario", "show"),
])
def test_command_error_prints_the_subcommand_usage(argv, capsys):
    # an error a command raises after parsing names that command, as an
    # argparse error in its flags does (the alpha floor is checked above)
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: twofold {argv[0]} ")
    assert f"\ntwofold {argv[0]}: error: " in err


def test_transform_check_passes(capsys):
    code, out = run_cli(capsys, "transform-check", "--a1", "1", "--a2", "1",
                        "--b1", "1", "--b2", "-1", "--alpha", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    check = doc["checks"][0]
    assert check["slope"] == pytest.approx(2.0, abs=0.1)
    assert check["R"] == pytest.approx(0.2 * (1 + check["lambda_s"]) ** 2, rel=1e-15)
    assert check["h_values"] == [check["R"] * rung for rung in RUNGS]


def test_transform_check_mixed_nf_scales_each_ladder_to_its_domain(capsys):
    # the folded singularity at lam_s = -0.447 admits only y3 < R = 0.0611,
    # the one at lam_s = 0.447 y3 < R = 0.419: each is sampled on its own
    # ladder, min(R, 1) times the rungs
    code, out = run_cli(capsys, "transform-check", "--scenario", "mixed-nf")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [round(check["R"], 4) for check in doc["checks"]] == [0.0611, 0.4189]
    for check in doc["checks"]:
        assert check["h_values"] == [min(check["R"], 1.0) * rung for rung in RUNGS]
        assert check["pass"] is True


@pytest.mark.parametrize("alpha", ["0.2", "1e-2", "1e-3", "1e-4", "1e-6", "1e-8", "-1e-6"])
def test_transform_check_passes_down_to_small_alpha(alpha, capsys):
    # R = |alpha| (1 + lam_s)^2 shrinks with alpha; the ladder follows it
    code, out = run_cli(capsys, "transform-check", "--a1", "1", "--a2", "1",
                        "--b1=-2", "--b2=-1", f"--alpha={alpha}")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"][0]["R"] == pytest.approx(0.5836 * abs(float(alpha)), rel=1e-4)


def test_transform_check_past_the_rounding_limit_is_numerical_failure(capsys):
    # 1 + lam_s = 1e-6: the smallest residual no longer clears rounding
    code = main(["transform-check", "--a1", "1", "--a2", "-1", "--b1=1e6", "--b2=-1e6",
                 "--alpha=0.2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical failure: 1 + lam_s = 1.000e-06 is past "
                                   "the rounding limit")


def test_usage_error_exit_code(capsys):
    assert main(["classify"]) == 2
    assert main(["simulate", "--scenario", "no-such-scenario"]) == 2
    assert main(["nonsense"]) == 2


def test_exactly_one_source_required(capsys):
    code = main(["classify", "--scenario", "invisible-nf", "--a1", "1", "--a2", "1",
                 "--b1", "0", "--b2", "0", "--alpha", "0.1"])
    assert code == 2


def test_scenario_list_and_show(capsys):
    code, out = run_cli(capsys, "scenario", "list")
    assert code == 0
    names = json.loads(out)
    assert "example-ii" in names
    code, out = run_cli(capsys, "scenario", "show", "example-ii")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_plus"][0] == "-x2"


def test_simulate_smoothed_writes_artifacts(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    plot = tmp_path / "traj.svg"
    code, out = run_cli(capsys, "simulate", "--scenario", "example-ii",
                        "--epsilon", "1e-3", "--t-end", "20",
                        "--out", str(out_csv), "--plot", str(plot))
    assert code == 0
    doc = json.loads(out)
    assert doc["x1_sign_changes"] >= 5
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,mode,lambda"
    assert plot.exists() and plot.read_text().startswith("<svg")
    assert (tmp_path / "traj.events.csv").exists()


def test_simulate_reports_rosenbrock_steps_of_smoothed_runs(capsys):
    code, out = run_cli(capsys, "simulate", "--scenario", "example-iii",
                        "--epsilon", "1e-4", "--t-end", "15")
    doc = json.loads(out)
    assert code == 0 and 0 < doc["rosenbrock_steps"] < doc["steps"] <= 1000
    code, out = run_cli(capsys, "simulate", "--scenario", "example-iii",
                        "--mode", "filippov", "--t-end", "15")
    assert code == 0 and "rosenbrock_steps" not in json.loads(out)


def test_simulate_filippov_mode(tmp_path, capsys):
    # the attracting slide funnels into the folded singularity at
    # (x2, x3) = (alpha, -alpha) and leaves the surface there
    code, out = run_cli(capsys, "simulate", "--scenario", "invisible-nf",
                        "--mode", "filippov", "--x0", "0,1,1", "--t-end", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["events"].get("slide-entry") == 1
    assert doc["events"].get("slide-exit") == 1
    assert doc["events"].get("crossing", 0) >= 1


def test_simulate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    pa = tmp_path / "a.svg"
    pb = tmp_path / "b.svg"
    for out_csv, plot in ((a, pa), (b, pb)):
        code, _ = run_cli(capsys, "simulate", "--scenario", "invisible-nf",
                          "--t-end", "1", "--seed", "7",
                          "--out", str(out_csv), "--plot", str(plot))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert pa.read_bytes() == pb.read_bytes()


def test_blowup_command(tmp_path, capsys):
    out_csv = tmp_path / "layer.csv"
    code, out = run_cli(capsys, "blowup", "--a1", "1", "--a2", "1",
                        "--b1", "-2", "--b2", "-2", "--alpha", "0.2",
                        "--epsilon", "1e-3", "--x0", "0,1,1", "--t-end", "0.5",
                        "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,mode,lambda"
    assert all(ln.split(",")[1] == "0.0" for ln in lines[1:])


def test_blowup_runs_expression_built_scenario(tmp_path, capsys):
    out_csv = tmp_path / "layer.csv"
    code, out = run_cli(capsys, "blowup", "--scenario", "example-ii", "--t-end", "1",
                        "--out", str(out_csv))
    assert code == 0
    assert json.loads(out)["params"] is None
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,mode,lambda"
    assert len(lines) > 2
    assert all(ln.split(",")[4] == "layer" for ln in lines[1:])


@pytest.mark.parametrize("argv, code, kind", [
    (("--plot", "b.svg"), 0, "boundary-exit"),
    (("--x0=0.5,1,1", "--min-step", "1e-4"), 3, "step-floor"),
], ids=["boundary-exit", "step-floor"])
def test_blowup_events_sit_on_the_runs_own_samples(argv, code, kind, tmp_path, monkeypatch,
                                                   capsys):
    # a blow-up run samples (lam, x2, x3) and stops at its event, so the
    # event row repeats the run CSV's last row (x1 written as 0.0 in both:
    # the event log wrote lam there) and its plot marker ends the polyline
    # (the boundary exit was drawn at lam = 0)
    monkeypatch.chdir(tmp_path)
    assert main(["blowup", "--scenario", "mixed-nf", "--out", "b.csv", *argv]) == code
    event, = (tmp_path / "b.events.csv").read_text().splitlines()[1:]
    t, got, *state = event.split(",")
    assert got == kind and state[0] == "0.0"
    assert [t, *state] == (tmp_path / "b.csv").read_text().splitlines()[-1].split(",")[:4]
    if "--plot" in argv:
        text = (tmp_path / "b.svg").read_text()
        end = re.findall(r'<polyline points="[^"]*?([^" ]+)"', text)[-1]
        marker, = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"[^>]*><title>boundary-exit', text)
        assert ",".join(marker) == end


def test_slide_map_artifacts(tmp_path, capsys):
    out_csv = tmp_path / "map.csv"
    curve_csv = tmp_path / "curve.csv"
    plot = tmp_path / "map.svg"
    code, out = run_cli(capsys, "slide-map", "--scenario", "invisible-nf",
                        "--grid", "11", "--range=-1,1",
                        "--out", str(out_csv), "--curve-out", str(curve_csv),
                        "--plot", str(plot))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["region_counts"]) <= {"crossing", "attracting-sliding",
                                         "repelling-sliding", "tangency"}
    assert out_csv.read_text().splitlines()[0] == "x2,x3,region,n_roots,lambda_1,lambda_2"
    assert curve_csv.read_text().splitlines()[0] == "lambda,x2,x3,tx_lambda,tx_x2,tx_x3"
    assert plot.exists()


def test_curve_out_without_normal_form_writes_nothing(tmp_path, monkeypatch, capsys):
    # the usage error comes before the grid, so the map CSV is not written
    monkeypatch.chdir(tmp_path)
    assert main(["slide-map", "--scenario", "example-i", "--out", "m.csv",
                 "--curve-out", "c.csv"]) == 2
    assert "--curve-out needs a normal-form system" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_artifacts(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "sweep", "--a1", "1", "--a2", "-1",
                        "--alpha", "0.2", "--b-range=-3,3", "--b-step", "1",
                        "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "b1,b2,flavor,determinacy_breaking,count,types"
    assert len(lines) == 50
    # all cells are mixed flavour; for this orientation two singularities
    # exist beyond drift difference +2, none below, and the pair merges into
    # a single double root exactly on the threshold
    for ln in lines[1:]:
        b1, b2, tag, _, count, _ = ln.split(",")
        d = float(b1) - float(b2)
        assert tag == "mixed"
        if d == 2.0:
            assert count == "1"
        else:
            assert count == ("2" if d > 2.0 else "0")


def test_sweep_axis_stops_at_the_range_end(tmp_path, capsys):
    # (hi - lo) / step = 1.67: b = 0 and 0.6 lie in [0, 1], and 1.2 does not
    out_csv = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
                        "--b-range=0,1", "--b-step", "0.6", "--out", str(out_csv))
    assert code == 0
    assert json.loads(out)["cells"] == 4
    cells = [ln.split(",")[:2] for ln in out_csv.read_text().splitlines()[1:]]
    assert len(cells) == 4
    assert all(0.0 <= float(b) <= 1.0 for cell in cells for b in cell)


def test_sweep_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run_cli(capsys, "sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
                "--b-range=-2,2", "--b-step", "0.5", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_config_source(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "inv",
                               "params": {"a1": 1, "a2": 1, "b1": -2,
                                          "b2": -2, "alpha": 0.2}}))
    code, out = run_cli(capsys, "classify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["flavor"] == "invisible"


def test_too_deeply_nested_config_is_a_usage_error(tmp_path, capsys):
    # a 500-term sum and 250 unary minuses nest deeper than CPython compiles,
    # 250 parentheses and a 1,000-term sum deeper than Python recursion
    # allows; the config is rejected as it loads, before any kernel compiles,
    # and the error quotes a window of the text about the offence
    for text, pos in (("+".join(["x1"] * 500), 272), ("-" * 250 + "x1", 90),
                      ("(" * 250 + "x1" + ")" * 250, 90), ("+".join(["x1"] * 1000), 272)):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({"f_plus": [text, "1", "1"],
                                   "f_minus": ["x3", "1", "-1"]}))
        for argv in (("simulate", "--mode", "filippov"), ("slide-map",)):
            assert main([*argv, "--config", str(cfg)]) == 2
            error = capsys.readouterr().err.splitlines()[-1]
            assert "bad expression in f_plus: expression nests deeper than" in error
            assert f"at position {pos}: ..." in error and len(error) < 300


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--scenario", "example-ii", "--x0=0.1,0.5"),
     "argument --x0: expected three comma-separated numbers"),
    (("blowup", "--scenario", "mixed-nf", "--x0=0.1,0.5,0.5,1"),
     "argument --x0: expected three comma-separated numbers"),
    (("slide-map", "--scenario", "example-ii", "--range=2"),
     "argument --range: expected two comma-separated numbers"),
    (("sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2", "--b-range=-1,0,1"),
     "argument --b-range: expected two comma-separated numbers"),
    (("blowup", "--scenario", "mixed-nf", "--x0=1.5,1,1"),
     "blow-up initial state is lam,x2,x3 with lam in [-1, 1]"),
    (("blowup", "--scenario", "mixed-nf", "--x0=-1.0000001,1,1"),
     "blow-up initial state is lam,x2,x3 with lam in [-1, 1]"),
    (("scenario", "show", "example-iv"), "unknown scenario 'example-iv'"),
])
def test_malformed_inputs_exit_2_without_traceback(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_each_call_compiles_only_the_kernels_it_evaluates(monkeypatch, tmp_path, capsys):
    compiled = []
    compile_ = fields._compile

    def counting(src, name):
        compiled.append((name, src))
        return compile_(src, name)

    def names(*argv):
        compiled.clear()
        assert main(list(argv)) == 0
        capsys.readouterr()
        return [name for name, _ in compiled]

    monkeypatch.setattr(fields, "_compile", counting)
    monkeypatch.chdir(tmp_path)
    nf = ("--a1", "-1", "--a2", "1", "--b1", "-4", "--b2", "-1", "--alpha", "0.2")
    assert names("classify", *nf) == []
    assert names("singularity", *nf) == []
    assert names("transform-check", *nf) == ["layer"]
    # the grid is one row kernel: no `f1_sides`, `layer` or field evaluator
    assert names("slide-map", "--scenario", "invisible-nf", "--out", "map.csv",
                 "--plot", "map.svg", "--curve-out", "curve.csv") == ["surface_row"]
    assert "fn" not in names("simulate", "--scenario", "example-ii", "--t-end", "5")
    # a Filippov run compiles each half-space field's evaluator at most
    # once, and the hidden field's never
    assert "fn" in names("simulate", "--scenario", "example-ii", "--mode", "filippov",
                         "--t-end", "20")
    fn_sources = [src for name, src in compiled if name == "fn"]
    hidden = ", ".join(c.source() for c in builtin("example-ii").system.hidden.components)
    assert len(set(fn_sources)) == len(fn_sources) <= 2
    assert not any(hidden in src for src in fn_sources)


def test_numerical_failure_exit_code(tmp_path, capsys):
    # stiff layer plus a raised floor: the run must stop with exit 3 and a
    # step-floor event instead of grinding
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps({
        "params": {"a1": 1, "a2": 1, "b1": -2, "b2": -2, "alpha": 0.2},
        "sim": {"epsilon": 1e-9, "t_end": 1.0, "x0": [0.0, 1.0, 1.0]}}))
    code = main(["simulate", "--config", str(cfg), "--min-step", "1e-6"])
    assert code == 3


def test_step_budget_exits_3_without_traceback(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(integrate, "MAX_STEPS", 100)
    for argv in (("simulate", "--scenario", "example-iii", "--mode", "filippov"),
                 ("simulate", "--scenario", "example-i"),
                 ("blowup", "--scenario", "mixed-nf", "--epsilon", "1e-3")):
        code = main([*argv, "--out", str(tmp_path / "run.csv")])
        captured = capsys.readouterr()
        assert code == 3, argv
        assert json.loads(captured.out)["samples"] > 1
        assert "step budget" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["slide-map", "--scenario", "invisible-nf", "--range=nan,1"],
    ["classify", "--a1", "1", "--a2", "1", "--b1", "nan", "--b2", "-2",
     "--alpha", "0.2"],
    ["sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2", "--b-range=0,nan"],
    ["simulate", "--scenario", "invisible-nf", "--epsilon", "nan"],
    ["simulate", "--scenario", "invisible-nf", "--x0=0,inf,1"],
], ids=["slide-map-range", "classify-b1", "sweep-b-range", "simulate-epsilon",
        "simulate-x0"])
def test_non_finite_float_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "example-ii", "--t-end", "-1"],
    ["simulate", "--scenario", "example-ii", "--t-end", "0"],
    ["simulate", "--scenario", "example-ii", "--epsilon", "-1", "--t-end", "1"],
    # widths whose sigmoid source or slope would hold inf or divide by zero
    ["simulate", "--scenario", "mixed-nf", "--epsilon", "5e-324"],
    ["simulate", "--scenario", "mixed-nf", "--epsilon", "1e200", "--sigmoid", "sqrt"],
    ["simulate", "--scenario", "example-ii", "--rel-tol", "-1", "--t-end", "1"],
    ["simulate", "--scenario", "example-ii", "--abs-tol", "0", "--t-end", "1"],
    ["simulate", "--scenario", "example-ii", "--min-step", "-1", "--t-end", "1"],
    ["blowup", "--scenario", "visible-nf", "--epsilon", "-1"],
    # 1/eps is inf
    ["blowup", "--scenario", "mixed-nf", "--epsilon", "1e-320", "--t-end", "1"],
    ["blowup", "--scenario", "visible-nf", "--t-end", "-1"],
    ["slide-map", "--scenario", "invisible-nf", "--grid", "5", "--range=-1,1",
     "--plot", "{missing}/x.svg"],
    ["simulate", "--config", "{config}"],
    ["slide-map", "--config", "{huge}"],
    ["slide-map", "--config", "{digits}"],
    # members load_config would not read
    ["slide-map", "--config", "{misspelled}", "--grid", "5"],
    ["classify", "--config", "{hidden}"],
    ["classify", "--config", "{alpah}"],
    ["classify", "--config", "{note}"],
], ids=["t-end-negative", "t-end-zero", "epsilon", "epsilon-tiny", "epsilon-huge",
        "rel-tol", "abs-tol", "min-step", "blowup-epsilon", "blowup-epsilon-tiny",
        "blowup-t-end", "unwritable-plot", "config-t-end", "config-huge-number",
        "config-digit-limit", "config-unknown-member", "config-hidden-beside-params",
        "config-unknown-params-member", "config-note-not-a-string"])
def test_out_of_range_input_is_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"a1": 1, "a2": 1, "b1": 0, "b2": 0,
                                          "alpha": 0.1}, "sim": {"t_end": 0}}))
    # numbers a float cannot hold are rejected as the config loads: one of
    # 401 digits, and one past int's limit of 4,300 digits for a string
    numbers = {}
    for name, text in (("huge", "1" + "0" * 400 + "*x2"), ("digits", "1/" + "1" * 5000)):
        numbers[name] = tmp_path / f"{name}.json"
        numbers[name].write_text(json.dumps({"f_plus": [text, "1", "0"],
                                             "f_minus": ["0", "0", "0"]}))
    params = {"a1": 1, "a2": 1, "b1": 1, "b2": -1, "alpha": 0.2}
    for name, doc in (("misspelled", {"f_plus": ["-x2", "1", "-1"],
                                      "f_minus": ["x3", "0.5", "-1"],
                                      "Hidden": ["1/5", "0", "0"]}),
                      ("hidden", {"params": params, "hidden": ["1/5", "0", "0"]}),
                      ("alpah", {"params": {**params, "alpah": 0.2}}),
                      ("note", {"params": params, "note": 5})):
        numbers[name] = tmp_path / f"{name}.json"
        numbers[name].write_text(json.dumps(doc))
    argv = [a.format(missing=tmp_path / "missing", config=cfg, **numbers) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error" in err


def test_every_float_flag_rejects_non_finite():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        for action in sp._actions:
            assert action.type is not float, (name, action.dest)
    for text in ("nan", "-inf", "inf", "1e999"):
        with pytest.raises(argparse.ArgumentTypeError):
            _finite(text)


def test_slide_map_grid_cap(capsys):
    assert SLIDE_MAP_MAX_GRID >= 101          # the benchmark's --grid 101
    code = main(["slide-map", "--scenario", "invisible-nf",
                 "--grid", str(SLIDE_MAP_MAX_GRID + 1)])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    # finite ends whose span overflows to inf
    assert main(["slide-map", "--scenario", "invisible-nf", "--range=-1e308,1e308"]) == 2


def test_sweep_cell_cap(capsys):
    assert SWEEP_MAX_CELLS >= 81 * 81         # the benchmark's 81 x 81 sweep
    code = main(["sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
                 "--b-step", "1e-9"])
    assert code == 2
    assert "cells" in capsys.readouterr().err
    assert main(["sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
                 "--b-range=0,1", "--b-step", "5e-324"]) == 2
    # a finite range whose last grid value overflows to inf
    assert main(["sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
                 "--b-range=0,1.7976931348623157e308",
                 "--b-step", "8.98846567431158e307"]) == 2
    assert "overflows" in capsys.readouterr().err


NORMAL_FORM = ("--a1", "1", "--a2", "1", "--b1", "1", "--b2", "-1", "--alpha", "0.2")


@pytest.mark.parametrize("argv", [
    (command, *NORMAL_FORM, flag, value)
    for command in ("classify", "singularity", "transform-check")
    for flag, value in (("--plot", "x.svg"), ("--view", "u2"))
] + [
    ("slide-map", "--scenario", "invisible-nf", "--view", "u2"),
    ("blowup", "--scenario", "visible-nf", "--sigmoid", "sqrt"),
    ("blowup", "--scenario", "visible-nf", "--policy", "eject-plus"),
    *(("sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2", *source)
      for source in (("--scenario", "invisible-nf"), ("--config", "cfg.json"),
                     ("--b1", "1"), ("--b2", "1"))),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flags_are_usage_errors(argv, capsys):
    # a flag the command would ignore is refused, not silently dropped
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("classify", *NORMAL_FORM, "--out", "missing/r.json"),
    ("simulate", "--scenario", "mixed-nf", "--t-end", "0.1", "--out", "run.csv",
     "--plot", "missing/run.svg"),
    ("slide-map", "--scenario", "invisible-nf", "--grid", "5", "--out", "map.csv",
     "--plot", "map.svg", "--curve-out", "missing/c.csv"),
], ids=lambda argv: argv[0])
def test_an_unwritable_artifact_path_leaves_no_output(argv, tmp_path, monkeypatch, capsys):
    # the call's other artifacts are written first and removed again
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"twofold: error: [Errno 2] No such file or directory: "
                            f"{argv[-1]!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_an_unwritable_event_log_removes_the_run_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.events.csv").mkdir()
    assert main(["simulate", "--scenario", "mixed-nf", "--t-end", "0.1", "--out", "run.csv"]) == 2
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.events.csv"]


# finite flags whose derived constants overflow: JSON has no inf or nan
OVERFLOW = ("--a1", "1", "--a2", "1", "--b1=1e308", "--b2=1e308", "--alpha=0.2")
# a drift of 1e15 puts lam_s within 1e-9 of -1, where the folded constants
# divide by 1 + lam_s
LAM_S_AT_MINUS_ONE = ("--a1", "1", "--a2", "1", "--b1=3", "--b2=1e15", "--alpha=2")


@pytest.mark.parametrize("argv", [
    ("classify", *OVERFLOW), ("singularity", *OVERFLOW), ("transform-check", *OVERFLOW),
    # alpha = 1e308 rounds every residual to exactly zero, which has no log
    ("transform-check", "--a1", "1", "--a2", "1", "--b1=3", "--b2=-1e-300",
     "--alpha=1e308"),
    # lam_s within 1e-9 of -1, as in every command that builds the constants
    ("classify", *LAM_S_AT_MINUS_ONE), ("singularity", *LAM_S_AT_MINUS_ONE),
    ("transform-check", "--a1", "1", "--a2", "1", "--b1=-1",
     "--b2=1.4318425678468844e+16", "--alpha=0.2"),
    ("sweep", "--a1", "1", "--a2", "1", "--alpha=2", "--b-range=-1e16,1e16",
     "--b-step=1e14"),
    # here it is met in the third row, after two rows of the CSV went out
    ("sweep", "--a1", "-1", "--a2", "-1", "--alpha=2", "--b-range=0,4e9",
     "--b-step=1e9"),
], ids=["classify", "singularity", "transform-check", "transform-check-zero-residual",
        "classify-lam-s", "singularity-lam-s", "transform-check-lam-s", "sweep-lam-s",
        "sweep-lam-s-third-row"])
def test_report_without_finite_numbers_is_numerical_failure(argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([*argv, "--out", str(report)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not report.exists()
    assert captured.err.count("\n") == 1 and captured.err.startswith("numerical failure:")


def test_blowup_with_non_finite_attempts_ends_at_step_floor(capsys):
    # alpha = 1e308 overflows every attempt to a NaN state whose error
    # estimate reads 0.0; each rejection must shrink h by 0.2 down to the
    # floor, where 0.0 ** -0.2 used to raise ZeroDivisionError
    code = main(["blowup", "--a1", "1", "--a2", "-1", "--b1=0", "--b2=-2",
                 "--alpha=1e308", "--t-end", "0.5", "--x0=1,1e10,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["events"] == {"step-floor": 1}
    assert captured.err.startswith("numerical failure: integration hit the step floor")


def test_blowup_nonconvergent_boundary_exit_is_numerical_failure(capsys):
    # the lam = 1 boundary-exit bisection of this run does not converge
    code = main(["blowup", "--a1", "-1", "--a2", "-1", "--b1=1", "--b2=0.2",
                 "--alpha=3", "--t-end", "0.5", "--x0=1,1e10,1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("numerical failure:")


# float ** in a compiled kernel raises OverflowError where + and * give inf
X2_CUBED = {"f_plus": ["x2^3", "1", "0"], "f_minus": ["1", "x3", "0"]}


@pytest.mark.parametrize("fields, argv", [
    (X2_CUBED, ("slide-map", "--grid", "3", "--range=-1e200,1e200",
                "--out", "map.csv", "--plot", "map.svg")),
    # the row x2 = 0 is written before the row x2 = 5e199 overflows
    (X2_CUBED, ("slide-map", "--grid", "3", "--range=0,1e200",
                "--out", "map.csv", "--plot", "map.svg")),
    # x2' = x2^2 from x2 = 1 blows up at t = 1
    ({"f_plus": ["-1", "x2^2", "0"], "f_minus": ["1", "x3", "0"]},
     ("simulate", "--mode", "filippov", "--x0=1,1,0", "--t-end", "2")),
], ids=["slide-map-first-row", "slide-map-second-row", "simulate"])
def test_kernel_overflow_is_numerical_failure(fields, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(fields))
    code = main([argv[0], "--config", "cfg.json", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "numerical failure: a field expression overflowed the float range\n"
    # a grid cut short leaves none of the artifacts it was streaming
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_step_that_leaves_t_unchanged_is_step_floor(capsys):
    # at t = 4.2e88 the next step is above --min-step but below the
    # resolution of t; it used to be accepted and fail the sample-time check
    code = main(["simulate", "--a1=-1", "--a2=-1", "--b1=0",
                 "--b2=1.3138952881046098e-108", "--alpha=1.3138952881046098e-108",
                 "--t-end=1e308", "--x0=0,1e-320,1.3138952881046098e-108",
                 "--rel-tol=1e-320"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["events"] == {"step-floor": 1}
    assert captured.err.startswith("numerical failure: integration hit the step floor")


@pytest.mark.parametrize("argv", [
    ("--scenario", "example-ii", "--min-step", "1e-6", "--t-end", "7.4513366"),
    ("--config", "cfg.json", "--x0=0,1,1", "--t-end", "1"),
], ids=["crossing", "slide-exit"])
def test_a_run_whose_last_event_lies_within_min_step_of_t_end_ends_there(
        argv, tmp_path, monkeypatch, capsys):
    # the crossing lies 2.2e-7 before --t-end, the slide exit 2.2e-16: the
    # step from it is short because --t-end cut it, and it used to end the
    # run at a step floor with exit 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({
        "f_plus": ["-x2", "-1", "-4"], "f_minus": ["x3", "-1", "1"],
        "hidden": ["1/5", "0", "0"]}))
    code, out = run_cli(capsys, "simulate", *argv, "--mode", "filippov")
    report = json.loads(out)
    assert code == 0 and "step-floor" not in report["events"]
    assert report["t_end"] == float(argv[-1])


def test_slide_starting_inside_the_two_fold_window_stops_at_once(capsys):
    # the two-fold stop at the slide's start time logs its events but writes
    # no second sample at that time
    code = main(["simulate", "--scenario", "mixed-nf", "--mode", "filippov",
                 "--x0=0,1e-9,1e-9"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and (report["t_end"], report["samples"]) == (0.0, 1)
    assert report["events"] == {"slide-entry": 1, "two-fold-hit": 1, "determinacy-break": 1}


def test_repelling_slide_past_fold_line_returns(capsys):
    # the repelling branch reaches lam = -1 at x3 ~ 1.6e-16 without lift-off
    # and used to restart the slide at the same time forever
    def hang(signum, frame):
        raise TimeoutError("Filippov run did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        code, out = run_cli(capsys, "simulate", "--scenario", "invisible-nf",
                            "--mode", "filippov", "--policy", "stay", "--t-end", "10",
                            "--x0=0.0,-0.5005489061376367,-0.5000070952008387")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    doc = json.loads(out)
    assert doc["t_end"] == 10.0
    assert doc["events"] == {"crossing": 1, "slide-entry": 1, "slide-exit": 1}


# ------------------------------------------------------------ parser reuse

def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_slide_map_defaults_survive_a_call_that_sets_them(capsys):
    code, _ = run_cli(capsys, "slide-map", "--scenario", "invisible-nf",
                      "--grid", "11", "--range=-1,1")
    assert code == 0
    code, out = run_cli(capsys, "slide-map", "--scenario", "invisible-nf")
    doc = json.loads(out)
    assert code == 0 and doc["grid"] == 41 and doc["range"] == [-2, 2]


def test_policy_default_survives_a_call_that_sets_it(capsys):
    # on the repelling branch of visible-nf the policy decides the orbit
    argv = ("simulate", "--scenario", "visible-nf", "--mode", "filippov",
            "--x0=0,-0.5,-0.5", "--t-end", "2")
    _build_parser.cache_clear()
    first = run_cli(capsys, *argv)
    ejected = run_cli(capsys, *argv, "--policy", "eject-plus")
    again = run_cli(capsys, *argv)
    assert first[0] == ejected[0] == 0
    assert ejected[1] != first[1]
    assert again == first


@pytest.mark.parametrize("bad", [
    ("slide-map", "--scenario", "invisible-nf", "--grid", "many"),
    ("slide-map", "--scenario", "invisible-nf", "--grid", "1"),
], ids=["parse", "command"])
def test_usage_error_leaves_the_parser_reusable(bad, capsys):
    valid = ("slide-map", "--scenario", "mixed-nf", "--grid", "5")
    _build_parser.cache_clear()
    first = run_cli(capsys, *valid)
    _build_parser.cache_clear()
    assert main(list(bad)) == 2
    assert run_cli(capsys, *valid) == first
    assert first[0] == 0


# ------------------------------------------------------------ grid oracles

def _expression_config(tmp_path):
    # a hidden term that varies over the surface, so the roots of f1 come
    # from all three fields
    cfg = tmp_path / "hidden.json"
    cfg.write_text(json.dumps({"f_plus": ["-x2+1/10*x3", "1", "x1-1"],
                               "f_minus": ["x3+1/4*x2*x3", "-1/2", "1"],
                               "hidden": ["3/10+1/5*x2*x3", "x2", "0"]}))
    return cfg


@pytest.mark.parametrize("source", ["example-ii", "mixed-nf", "config"])
def test_slide_map_rows_match_the_sliding_layer(source, tmp_path, capsys):
    if source == "config":
        cfg = _expression_config(tmp_path)
        flags, system = ("--config", str(cfg)), load_config(cfg).system
    else:
        flags, system = ("--scenario", source), builtin(source).system
    out_csv, plot = tmp_path / "map.csv", tmp_path / "map.svg"
    code, _ = run_cli(capsys, "slide-map", *flags, "--grid", "21", "--range=-2,2",
                      "--out", str(out_csv), "--plot", str(plot))
    assert code == 0
    axis = [repr(-2.0 + 4.0 * i / 20) for i in range(21)]
    rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [(a, b) for a in axis for b in axis]
    roots_seen = set()
    for t2, t3, region, n_roots, l1, l2 in rows:
        x2, x3 = float(t2), float(t3)
        assert region == region_classify(system, x2, x3)
        lams = [s.lam for s in sliding_lambda(system, x2, x3)]
        assert n_roots == str(len(lams))
        assert [l1, l2] == [repr(v) for v in lams] + [""] * (2 - len(lams))
        roots_seen.add(len(lams))
    assert roots_seen >= {0, 1}
    cells = re.findall(r'<rect x="([^"]*)" y="([^"]*)"', plot.read_text())
    assert len(cells) == 441
    assert len({x for x, _ in cells}) == 21 and len({y for _, y in cells}) == 21


def test_sweep_rows_match_the_normal_form_analysis(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--a1", "-1", "--a2", "1", "--alpha", "-0.5",
                      "--b-range=-2,2", "--b-step", "0.5", "--out", str(out_csv))
    assert code == 0
    axis = [repr(-2.0 + i * 0.5) for i in range(9)]
    rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [(a, b) for a in axis for b in axis]
    for b1, b2, tag, db, count, types in rows:
        p = TwoFoldParams(-1, 1, float(b1), float(b2), -0.5)
        flavor = classify_two_fold(p)
        sings = folded_singularities(p)
        assert (tag, db) == (flavor.tag, str(flavor.determinacy_breaking).lower())
        assert (count, types) == (str(len(sings)), "+".join(s.folded_type for s in sings))


# ------------------------------------------------------------ plots

def trajectory_through(states):
    """A trajectory through `states`, one sample per unit of time."""
    traj = Trajectory()
    for t, y in enumerate(states):
        traj.append(float(t), y, (0.0, 0.0, 0.0), "flow+")
    return traj


def test_plot_rejects_empty_input(tmp_path):
    with pytest.raises(ValueError):
        render_trajectory(trajectory_through([]), tmp_path / "x.svg")


@pytest.mark.parametrize("render, message", [
    (lambda path: render_trajectory(trajectory_through([(0.0, 1.0, 1.0)] * 2), path,
                                    view="u4"), "unknown view 'u4'"),
    (lambda path: render_region_map([], [[]], path, None), "empty region map"),
])
def test_plot_rejects_unknown_view_and_empty_map(tmp_path, render, message):
    with pytest.raises(ValueError, match=message):
        render(tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


def test_plot_single_point_marker(tmp_path):
    path = tmp_path / "pt.svg"
    render_trajectory(trajectory_through([(0.0, 1.0, 1.0)]), path)
    text = path.read_text()
    assert '<circle cx="400" cy="300" r="3"' in text and "<polyline" not in text


def test_plot_single_point_beyond_unit_resolution(tmp_path):
    # a pad of 0.05 is lost to rounding at 1e16 and beyond, which used to
    # leave a zero-width range to divide by
    path = tmp_path / "pt.svg"
    for point in ((0.0, 1e16, 0.0), (1.0, -1e308, -4.46)):
        render_trajectory(trajectory_through([point]), path)
        assert '<circle cx="400" cy="300"' in path.read_text()


def svg_numbers(text):
    """Every number in the attribute values of an SVG text."""
    numbers = []
    for value in re.findall(r'="([^"]*)"', text):
        for token in re.split(r"[ ,]", value):
            with contextlib.suppress(ValueError):
                numbers.append(float(token))
    return numbers


@pytest.mark.parametrize("grid, bounds, code", [
    ("3", "0,1e-320", 0),            # the scale of a subnormal width overflows
    ("2", "-1e308,7.9e307", 0),      # the padded width overflows
    ("3", "-1e308,7.9e307", 2),      # the axis's last value overflows
])
def test_slide_map_plot_at_extreme_ranges_draws_finite_numbers(grid, bounds, code, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["slide-map", "--scenario", "example-ii", "--grid", grid,
                 f"--range={bounds}", "--plot", "m.svg"]) == code
    if code == 2:
        assert "overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        return
    text = (tmp_path / "m.svg").read_text()
    assert text.count("<rect x=") == int(grid) ** 2
    assert all(map(math.isfinite, svg_numbers(text)))


def test_plot_of_a_subnormal_extent_draws_finite_numbers(tmp_path):
    path = tmp_path / "run.svg"
    render_trajectory(trajectory_through([(0.0, 1.0, 1.0), (1e-320, 1.5, 0.5)]), path)
    text = path.read_text()
    assert all(map(math.isfinite, svg_numbers(text)))
    # x1 spans the vertical axis, padded by 5% of its width at each end
    assert '<polyline points="400,527.273 400,72.7273"' in text


# ---- the plot oracle: every sample built as a point tuple and projected
# one at a time, as trajectory plots were drawn before they read columns

def oracle_project(point, view):
    a, b, c = point
    return {"u3": (b + c, a), "u2": (b - c, a), "x1": (b, c), "x2": (c, a),
            "x3": (b, a)}[view]


def oracle_downsample(points, cap=6000):
    if len(points) <= cap:
        return points
    stride = (len(points) + cap - 1) // cap
    out = points[::stride]
    if out[-1] != points[-1]:
        out.append(points[-1])
    return out


def oracle_render_curves(curves, path, view, events, labels):
    pts2 = []
    proj_curves = []
    for points, color in curves:
        pc = [oracle_project(p, view) for p in points]
        proj_curves.append((pc, color))
        pts2.extend(pc)
    proj_events = [(kind, oracle_project(p, view)) for kind, p in events]
    pts2.extend(p for _, p in proj_events)
    canvas = svg._Canvas([p[0] for p in pts2], [p[1] for p in pts2])
    head = svg._HEADER + svg._axes(canvas)
    parts = []
    fmt = svg._fmt
    for pc, color in proj_curves:
        pc = oracle_downsample(pc)
        if len(pc) == 1:
            sx, sy = canvas.to_screen(*pc[0])
            parts.append(f'<circle cx="{fmt(sx)}" cy="{fmt(sy)}" r="3" fill="{color}"/>')
            continue
        coords = " ".join(f"{fmt(sx)},{fmt(sy)}"
                          for sx, sy in (canvas.to_screen(x, y) for x, y in pc))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1"/>')
    for kind, (x, y) in proj_events:
        sx, sy = canvas.to_screen(x, y)
        color = svg._EVENT_COLORS.get(kind, "#000000")
        parts.append(f'<circle cx="{fmt(sx)}" cy="{fmt(sy)}" r="2.5" fill="{color}">'
                     f'<title>{kind}</title></circle>')
    for i, text in enumerate(labels):
        parts.append(f'<text x="{svg.MARGIN}" y="{20 + 14 * i}" font-family="monospace" '
                     f'font-size="12" fill="#333333">{text}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.write("\n".join(parts))
        fh.write("\n")


def oracle_render_trajectory(traj, path, view):
    x1s, x2s, x3s = traj.columns
    if traj.meta.get("kind") == "blowup":
        x1s = traj.lams
    points = list(zip(x1s, x2s, x3s))
    events = [(e.kind, e.state) for e in traj.events]
    labels = [f"view={view} samples={len(traj)} kind={traj.meta.get('kind', '?')}"]
    oracle_render_curves([(points, "#1f77b4")], path, view, events, labels)


@pytest.fixture(scope="module")
def plot_runs():
    mixed = builtin("mixed-nf").system
    long_run = [(math.cos(0.01 * k), math.sin(0.01 * k), -0.0 if k % 2 else 0.0)
                for k in range(6002)]
    return {
        "filippov": integrate_filippov(mixed, (0.0, 1.0, 1.0), (0.0, 5.0)),
        "layer": integrate_blowup(mixed, 1e-3, (0.0, 1.0, 1.0), (0.0, 5.0)),
        # over 7,000 samples, kept at a stride of 2 plus the last
        "long": integrate_filippov(builtin("example-ii").system, (0.1, 0.5, 0.5),
                                   (0.0, 500.0)),
        # stride 2 again: the last sample differs from the last one kept, or
        # equals it as a value (0.0 and -0.0), or is the last one kept
        "stride-end": trajectory_through(long_run),
        "stride-tie": trajectory_through(long_run[:6001] + [long_run[6000][:2] + (-0.0,)]),
        "stride-hit": trajectory_through(long_run[:6001]),
        # the last one kept has a NaN coordinate, which is unequal to itself
        "stride-hit-nan": trajectory_through(long_run[:6000] + [(math.nan, 0.5, 0.5)]),
        "nan": trajectory_through([(0.0, 1.0, 2.0), (math.nan, 0.5, 0.5), (1.0, -1.0, 0.0)]),
        "one": integrate_filippov(mixed, (0.0, 0.0, 0.0), (0.0, 1.0)),
    }


@pytest.mark.parametrize("view", VIEWS)
def test_plot_matches_the_point_by_point_oracle(tmp_path, view, plot_runs):
    runs = plot_runs
    assert len(runs["long"]) > 6000 and len(runs["one"]) == 1
    for name, traj in runs.items():
        render_trajectory(traj, tmp_path / "new.svg", view=view)
        oracle_render_trajectory(traj, tmp_path / "old.svg", view)
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes(), name


# ------------------------------------------------------------ memory bounds

def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, bound", [
    # 501 x 501 cells, the most either command admits; holding every cell
    # before writing any peaked at 100 MB (slide map) and 34-38 MB (sweep)
    (("slide-map", "--scenario", "example-ii", "--grid", "501", "--range=-2,2",
      "--out", "map.csv", "--plot", "map.svg"), 2e6),
    (("sweep", "--a1", "1", "--a2", "-1", "--alpha", "0.2", "--b-range=-25,25",
      "--b-step", "0.1", "--out", "sweep.csv"), 1e6),
], ids=["slide-map", "sweep"])
def test_grid_commands_hold_one_row_at_a_time(argv, bound, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    codes = []
    peak = traced_peak(lambda: codes.append(main(list(argv))))
    assert codes == [0] and peak < bound
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 501 * 501


def test_plot_holds_a_chunk_of_samples(tmp_path, plot_runs):
    traj = plot_runs["long"]
    columns = (traj.times, *traj.columns, traj.lams)
    own = sum(len(col) * col.itemsize for col in columns)
    peak = traced_peak(lambda: render_trajectory(traj, tmp_path / "run.svg"))
    # projected lists of every sample peaked near three times these columns
    assert peak < own / 3


def test_plot_example_box_contains_origin(tmp_path):
    # a run of the invisible normal form crossing the surface spans the origin
    sys = normal_form_system(TwoFoldParams(1, 1, -2.0, -2.0, 0.2))
    traj = integrate_filippov(sys, (0.1, 1.0, -1.0), (0.0, 0.4))
    path = tmp_path / "run.svg"
    render_trajectory(traj, path)
    # the projected origin must lie inside the data box: both axis lines drawn
    text = path.read_text()
    assert text.count("<line") == 2


def test_example_i_plot_spans_origin(tmp_path, capsys):
    # a run of the first attractor example from its suggested start circles
    # the two-fold, so the projected data box contains the origin and both
    # axis guide lines are drawn
    plot = tmp_path / "ex1.svg"
    code, _ = run_cli(capsys, "simulate", "--scenario", "example-i",
                      "--t-end", "30", "--plot", str(plot))
    assert code == 0
    assert plot.read_text().count("<line") == 2


def test_plot_views(tmp_path):
    sys = normal_form_system(TwoFoldParams(1, 1, -2.0, -2.0, 0.2))
    traj = integrate_filippov(sys, (0.1, 1.0, -1.0), (0.0, 0.4))
    for view in ("u3", "u2", "x1", "x2", "x3"):
        path = tmp_path / f"{view}.svg"
        render_trajectory(traj, path, view=view)
        assert path.exists()


# ------------------------------------------------------------ CLI contract

# flag values: mostly finite numbers, the extremes of the float range among
# them; one in ten is non-finite or non-numeric text
FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.2, 2.0, 1e16, -1e16, 1e308, -1e308,
                     1e-320, -1e-320, 5e-324)),
    st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
BAD = st.sampled_from(("nan", "inf", "-inf", "1e999", "x", ""))


def sometimes_bad(good):
    return st.integers(0, 9).flatmap(lambda k: BAD if k == 9 else good)


NUMBER = sometimes_bad(FLOATS.map(repr))
POSITIVE = sometimes_bad(FLOATS.map(abs).map(repr))
SIGN = sometimes_bad(st.sampled_from(("-1", "1")))
NAME = sometimes_bad(st.sampled_from(builtin_names()))
PATH = st.sampled_from(("out.csv", "missing/out.csv"))
TRIPLE = sometimes_bad(st.tuples(NUMBER, NUMBER, NUMBER).map(",".join))
PAIR = sometimes_bad(st.tuples(FLOATS, FLOATS).map(lambda p: "{!r},{!r}".format(*sorted(p))))

NORMAL_FORM_FLAGS = {"--a1": SIGN, "--a2": SIGN, "--b1": NUMBER, "--b2": NUMBER,
                     "--alpha": NUMBER}
SOURCE_FLAGS = {**NORMAL_FORM_FLAGS, "--scenario": NAME, "--config": PATH}
REPORT_FLAGS = {"--out": PATH, "--seed": sometimes_bad(st.sampled_from(("7", "-1")))}
RUN_FLAGS = {"--epsilon": POSITIVE, "--t-end": POSITIVE, "--x0": TRIPLE,
             "--rel-tol": POSITIVE, "--abs-tol": POSITIVE, "--min-step": POSITIVE,
             "--plot": st.just("run.svg"),
             "--view": sometimes_bad(st.sampled_from(("u3", "u2", "x1", "x2", "x3")))}
COMMAND_FLAGS = {
    "classify": REPORT_FLAGS,
    "singularity": REPORT_FLAGS,
    "transform-check": REPORT_FLAGS,
    "slide-map": {**REPORT_FLAGS, "--range": PAIR,
                  "--grid": st.sampled_from(("-1", "0", "2", "5", "11", "502", "x")),
                  "--curve-out": PATH, "--plot": st.just("map.svg")},
    "simulate": {**REPORT_FLAGS, **RUN_FLAGS,
                 "--sigmoid": sometimes_bad(st.sampled_from(("tanh", "sqrt"))),
                 "--policy": sometimes_bad(st.sampled_from(
                     ("stay", "eject-plus", "eject-minus"))),
                 "--mode": sometimes_bad(st.sampled_from(("smoothed", "filippov")))},
    "blowup": {**REPORT_FLAGS, **RUN_FLAGS},
    "sweep": REPORT_FLAGS,
}


@st.composite
def sweep_grid(draw):
    """--b-range and --b-step of at most 32 points per axis, unless the cell
    cap rejects the grid: a finer step is made coarser, always when the cap
    would admit it and otherwise every other time."""
    lo, hi = draw(PAIR).partition(",")[::2]
    step = draw(POSITIVE)
    try:
        per_axis = (float(hi) - float(lo)) / float(step) + 1.0
    except (ValueError, ZeroDivisionError):
        per_axis = 0.0
    if 32.0 < per_axis and (per_axis * per_axis <= SWEEP_MAX_CELLS or draw(st.booleans())):
        step = repr((float(hi) - float(lo)) / 31.0)
    return [f"--b-range={lo},{hi}", f"--b-step={step}"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from((*COMMAND_FLAGS, "scenario")))
    if command == "scenario":
        return ["scenario", draw(sometimes_bad(st.sampled_from(("list", "show")))),
                *draw(st.lists(NAME, max_size=1))]
    if command == "sweep":
        argv = [command, *draw(sweep_grid())]
        sources = [{"--a1": SIGN, "--a2": SIGN, "--alpha": NUMBER}]
    else:
        argv = [command]
        # a full normal-form source or a scenario, so that many calls get
        # past the usage checks, or any mix of single source flags
        sources = draw(st.one_of(
            st.just([NORMAL_FORM_FLAGS]), st.just([{"--scenario": NAME}]),
            st.lists(st.sampled_from([{k: v} for k, v in SOURCE_FLAGS.items()]),
                     max_size=3)))
    for flags in sources:
        argv += [f"{flag}={draw(value)}" for flag, value in flags.items()]
    flags = COMMAND_FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=6)):
        argv.append(f"{flag}={draw(flags[flag])}")
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_every_call_exits_0_2_or_3(argv, monkeypatch, tmp_path):
    # a small step budget bounds the runs; every outcome is an exit code,
    # never an exception
    monkeypatch.setattr(integrate, "MAX_STEPS", 200)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv
