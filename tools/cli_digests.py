"""Digest of every output of a fixed list of `twofold` CLI calls.

Runs 208 calls of `twofold.cli.main` in this process, each in its own
directory under one temporary directory, empty but for the config file the
call reads, if any, and prints one line per call:

    <sha256>  <argv>

The hash covers the exit code, stdout, stderr and the name and bytes of
every file the call wrote.  Two checkouts whose outputs are identical print
identical text.  tools/cli_digests.txt holds this script's output on the
committed tree, so a change that must keep every result bit for bit leaves

    PYTHONPATH=src python3 tools/cli_digests.py | diff tools/cli_digests.txt -

empty; a change that moves digests updates that file and names the moved
calls in CHANGES.md.

The package is imported from PYTHONPATH; its location is printed to stderr.
The calls are the grouped constants and `calls()` below, each group with a
comment on what it covers; `jobs()` gives their order.  It takes about a
minute in all on one core of a 2-vCPU Xeon, Python 3.11, most of it
(40-50 s) the step-floor run of the perturbed example-i start.  The tier-1
test tests/test_digests.py runs every call but that one (about 6 s) and
compares each line with tools/cli_digests.txt.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

SCENARIOS = ("example-i", "example-ii", "example-iii",
             "visible-nf", "invisible-nf", "mixed-nf")
NORMAL_FORMS = SCENARIOS[3:]
RANGES = ("-2,2", "-3,3", "-1.5,2.5", "-2.5,1.5")
POLICIES = ("stay", "eject-plus", "eject-minus")
FILIPPOV_STARTS = ("0,1,1", "0,-0.5,-0.5", "0.1,0.3,-0.2",
                   "0,-0.5005489061376367,-0.5000070952008387")
# blow-up starts (lam, x2, x3); the last three sit on the lam bounds, and
# two of them exit at once, through the locator's zero at a bracket end
BLOWUP_STARTS = ("0,1,1", "0.5,-0.5,0.5", "-0.9,0.3,-0.2", "0,-0.5,-0.5",
                 "1,1,1", "1,-0.5,0.5", "-1,-0.5,-0.5")
# (a1, a2, b1, b2, alpha): each flavour, the mixed normal form given as
# flags, and a degenerate alpha = 0 layer
PARAM_SETS = (("1", "1", "1.0", "-1.0", "0.2"),
              ("-1", "-1", "2.0", "1.0", "-0.5"),
              ("1", "-1", "0.5", "-3.0", "0.1"),
              ("-1", "1", "-4.0", "-1.0", "0.2"),
              ("1", "1", "-2.0", "-2.0", "0.0"))
RUN_OUT = ("--out", "run.csv", "--plot", "run.svg")
# runs that end at a step floor: a flow floor at t = 0, a slide floor, the
# sliding runaway of a perturbed example-i start (floor at t = 288), a
# smoothed floor and a blow-up floor
STEP_FLOOR_RUNS = (
    ("simulate", "--scenario", "example-ii", "--mode", "filippov",
     "--min-step", "5e-3"),
    ("simulate", "--scenario", "mixed-nf", "--mode", "filippov", "--x0=0,1,1",
     "--min-step", "1e-4"),
    ("simulate", "--scenario", "example-i", "--mode", "filippov", "--t-end", "500",
     "--x0=0.0007440114815103326,0.9990989812550146,1.0009610976545993"),
    ("simulate", "--scenario", "example-iii", "--epsilon", "1e-4",
     "--min-step", "1e-5", "--t-end", "20"),
    ("blowup", "--scenario", "mixed-nf", "--x0=0,1,1", "--min-step", "1e-4"),
)
# blow-ups that exit 3: every attempt overflows to a NaN state (step floor),
# and a lam-boundary bisection that does not converge
FAILING_BLOWUPS = (
    ("blowup", "--a1", "1", "--a2", "-1", "--b1=0", "--b2=-2", "--alpha=1e308",
     "--t-end", "0.5", "--x0=1,1e10,1"),
    ("blowup", "--a1", "-1", "--a2", "-1", "--b1=1", "--b2=0.2", "--alpha=3",
     "--t-end", "0.5", "--x0=1,1e10,1"),
)

# a folded singularity within 1e-9 of lam = -1, where its constants divide
# by 1 + lam_s, in each command that builds them; the second sweep meets it
# in its third row
BOUNDARY_SINGULARITIES = (
    ("classify", "--a1", "1", "--a2", "1", "--b1=3", "--b2=1e15", "--alpha=2"),
    ("singularity", "--a1", "1", "--a2", "1", "--b1=3", "--b2=1e15", "--alpha=2"),
    ("transform-check", "--a1", "1", "--a2", "1", "--b1=-1",
     "--b2=1.4318425678468844e+16", "--alpha=0.2"),
    ("sweep", "--a1", "1", "--a2", "1", "--alpha=2", "--b-range=-1e16,1e16",
     "--b-step=1e14", "--out", "sweep.csv"),
    ("sweep", "--a1", "-1", "--a2", "-1", "--alpha=2", "--b-range=0,4e9",
     "--b-step=1e9", "--out", "sweep.csv"),
)
# at t = 4.2e88 a step above --min-step no longer advances t: a step floor
NO_PROGRESS_RUN = (
    "simulate", "--a1=-1", "--a2=-1", "--b1=0", "--b2=1.3138952881046098e-108",
    "--alpha=1.3138952881046098e-108", "--t-end=1e308",
    "--x0=0,1e-320,1.3138952881046098e-108", "--rel-tol=1e-320")

# grid edges: the smallest slide map, a range whose axis values are
# subnormal-scale and include 0.0, and a one-cell sweep
GRID_EDGES = (
    ("slide-map", "--scenario", "mixed-nf", "--grid", "2"),
    ("slide-map", "--scenario", "example-ii", "--range=-1e-300,1e-300", "--grid", "7",
     "--out", "map.csv", "--plot", "map.svg"),
    ("sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2", "--b-range=0,0",
     "--out", "sweep.csv"),
)
# 0 < |alpha| <= 1e-9: classify reports no singularities with a note, the
# other two commands exit 2
BELOW_ALPHA_FLOOR = tuple(
    (command, "--a1", "1", "--a2", "1", "--b1", "-2.0", "--b2", "-2.0",
     "--alpha", "1e-10", "--out", "report.json")
    for command in ("classify", "singularity", "transform-check"))
# surface grids: sweeps whose every cell takes the alpha-floor branch (alpha
# 0 and 1e-10), the benchmark sweep grid at the sign pairs (-1, -1) and
# (1, -1), and an example-i slide map whose f1 values reach 1e200
SURFACE_GRIDS = (
    ("sweep", "--a1", "1", "--a2", "-1", "--alpha", "0", "--b-range=-3,3",
     "--b-step", "0.25", "--out", "sweep.csv"),
    ("sweep", "--a1", "1", "--a2", "-1", "--alpha", "1e-10", "--b-range=-3,3",
     "--b-step", "0.25", "--out", "sweep.csv"),
    ("sweep", "--a1", "-1", "--a2", "-1", "--alpha", "-0.5", "--b-range=-4,4",
     "--b-step", "0.1", "--out", "sweep.csv"),
    ("sweep", "--a1", "1", "--a2", "-1", "--alpha", "0.2", "--b-range=-4,4",
     "--b-step", "0.1", "--out", "sweep.csv"),
    ("slide-map", "--scenario", "example-i", "--range=-1e200,1e200",
     "--out", "map.csv", "--plot", "map.svg"),
)
# the largest grids the CLI admits: a 501 x 501 slide map and sweep
MAX_GRIDS = (
    ("slide-map", "--scenario", "example-ii", "--grid", "501", "--range=-2,2",
     "--out", "map.csv", "--plot", "map.svg"),
    ("sweep", "--a1", "1", "--a2", "-1", "--alpha", "0.2", "--b-range=-25,25",
     "--b-step", "0.1", "--out", "sweep.csv"),
)

# surface starts whose first contact is a plus graze (0, 0, 1), a minus
# graze (0, 1, 0) and the two-fold (0, 0, 0) in every normal form
CONTACT_STARTS = ("0,0,1", "0,1,0", "0,0,0")
# alpha = 0 normal forms, one visible, one invisible and one mixed: a = -g1
# = 0, so a slide holds the linear root and its branch-fold monitor reads 1.0
LINEAR_ROOT_SYSTEMS = (("-1", "-1", "-1", "0.5"), ("1", "1", "-2", "-2"),
                       ("-1", "1", "-4", "-1"))
LINEAR_ROOT_STARTS = ("0,1,1", "0,-0.5,-0.5")

# an expression config with products, powers and a state-dependent hidden
# term, and one whose f_plus component is a 500-term sum
EXPRESSION_CONFIG = json.dumps({
    "name": "expression-config",
    "f_plus": ["-x2", "1+x1", "-7/5+1/10*x2^2"],
    "f_minus": ["x3-1/10*x1*x2", "-9/10", "1-3/5*x1"],
    "hidden": ["1/5+1/20*x2^2", "0", "0"],
    "sim": {"t_end": 50.0, "x0": [0.1, 0.5, 0.5]}})
DEEP_CONFIG = json.dumps({"f_plus": ["+".join(["x1"] * 500), "1", "1"],
                          "f_minus": ["x3", "1", "-1"]})
# params configs whose sim block sets epsilon and t_end; the second t_end is
# not positive (exit 2)
MIXED_PARAMS = {"a1": -1, "a2": 1, "b1": -4.0, "b2": -1.0, "alpha": 0.2}
SIM_CONFIG = json.dumps({"params": MIXED_PARAMS, "sim": {"epsilon": 1e-2, "t_end": 5}})
ZERO_T_END_CONFIG = json.dumps({"params": MIXED_PARAMS, "sim": {"t_end": 0}})
# members load_config does not read: a misspelled hidden term, and a hidden
# term beside params (both exit 2)
MISSPELLED_HIDDEN_CONFIG = json.dumps({"f_plus": ["-x2", "1", "-1"],
                                       "f_minus": ["x3", "0.5", "-1"],
                                       "Hidden": ["1/5", "0", "0"]})
HIDDEN_WITH_PARAMS_CONFIG = json.dumps({
    "params": {"a1": 1, "a2": 1, "b1": 1.0, "b2": -1.0, "alpha": 0.2},
    "hidden": ["1/5", "0", "0"]})
# (files written into the call's directory first, argv)
CONFIG_CALLS = (
    ({"cfg.json": EXPRESSION_CONFIG},
     ("simulate", "--config", "cfg.json", "--mode", "filippov", *RUN_OUT)),
    ({"cfg.json": EXPRESSION_CONFIG},
     ("slide-map", "--config", "cfg.json", "--out", "map.csv", "--plot", "map.svg")),
    ({"deep.json": DEEP_CONFIG},
     ("simulate", "--config", "deep.json", "--mode", "filippov")),
    ({"sim.json": SIM_CONFIG}, ("simulate", "--config", "sim.json", *RUN_OUT)),
    ({"sim.json": ZERO_T_END_CONFIG}, ("simulate", "--config", "sim.json")),
    ({"cfg.json": MISSPELLED_HIDDEN_CONFIG},
     ("slide-map", "--config", "cfg.json", "--grid", "5", "--out", "map.csv")),
    ({"cfg.json": HIDDEN_WITH_PARAMS_CONFIG}, ("classify", "--config", "cfg.json")),
)
# slide-map plots over a range of subnormal width and over one whose axis
# overflows past its last value (exit 2)
EXTREME_RANGES = tuple(
    ("slide-map", "--scenario", "example-ii", "--grid", "3", "--plot", "m.svg",
     f"--range={bounds}") for bounds in ("0,1e-320", "-1e308,7.9e307"))
# a last artifact path in a missing directory: exit 2 and no output
UNWRITABLE_PATHS = (
    ("classify", "--a1", "1", "--a2", "1", "--b1=1", "--b2=-1", "--alpha", "0.2",
     "--out", "missing/r.json"),
    ("simulate", "--scenario", "mixed-nf", "--t-end", "0.1", "--out", "run.csv",
     "--plot", "missing/run.svg"),
    ("slide-map", "--scenario", "invisible-nf", "--grid", "5", "--out", "map.csv",
     "--plot", "map.svg", "--curve-out", "missing/c.csv"),
)

# the expression field F = {f_plus: (-x2, 1, 1), f_minus: (x3, 1, -1),
# hidden: (1/5, 0, 0)} with f1+, f1- and g1 times 1e6: a slide map whose
# sliding cells each hold their root and a Filippov run that slides; then a
# sweep whose b-step does not divide its range, so its axis stops short of
# hi, and one whose last in-range b value overflows (exit 2)
SCALED_CONFIG = json.dumps({"f_plus": ["-1000000*x2", "1", "1"],
                            "f_minus": ["1000000*x3", "1", "-1"],
                            "hidden": ["200000", "0", "0"]})
REPRODUCERS = (
    ({"cfg.json": SCALED_CONFIG},
     ("slide-map", "--config", "cfg.json", "--grid", "3", "--range=0.1,0.3",
      "--out", "map.csv")),
    ({"cfg.json": SCALED_CONFIG},
     ("simulate", "--config", "cfg.json", "--mode", "filippov", "--x0=0,0.2,0.2",
      "--t-end", "0.01", "--out", "run.csv")),
    ({}, ("sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2", "--b-range=0,1",
          "--b-step", "0.6", "--out", "sweep.csv")),
    ({}, ("sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
          "--b-range=0,1.7976931348623157e308", "--b-step", "8.98846567431158e307")),
)

# late additions, in the (files, argv) form: a slide whose f1 terms reach
# 1e200, so its discriminant overflows, yet it exits at its branch fold as
# the unscaled run does (t = 0.6549); a run whose last crossing lies
# 2.2e-7 before --t-end, within --min-step, which still ends at --t-end;
# a normal-form slide that starts inside the two-fold window, so it
# enters the slide, hits the two-fold and breaks determinacy at t = 0;
# order studies whose rectification domain R = |alpha| (1 + lam_s)^2 is
# 6e-4, 6e-9 and 6e-7 (alpha 1e-3, 1e-8 and -1e-6), and one at 1 + lam_s =
# 1e-6, past the rounding limit (exit 3); a smoothed run at x2 = 1e308 whose
# RODAS4 attempts are all rejected, down to h = 1e-323, where gamma h
# underflows to 0, and which ends at a step floor at t = 0 (exit 3)
BIG_F1 = "1" + "0" * 200
BIG_F1_CONFIG = json.dumps({"f_plus": [f"-{BIG_F1}*x2", "-1", "-4"],
                            "f_minus": [f"{BIG_F1}*x3", "-1", "1"],
                            "hidden": [f"{BIG_F1}/5", "0", "0"]})
LATE_CALLS = (
    ({"cfg.json": BIG_F1_CONFIG},
     ("simulate", "--config", "cfg.json", "--mode", "filippov", "--x0=0,1,1",
      "--t-end", "0.9", "--out", "run.csv")),
    ({}, ("simulate", "--scenario", "example-ii", "--mode", "filippov",
          "--min-step", "1e-6", "--t-end", "7.4513366", "--out", "run.csv")),
    ({}, ("simulate", "--scenario", "visible-nf", "--mode", "filippov",
          "--x0=0,1e-9,1e-9", "--t-end", "1", "--out", "run.csv")),
    *(({}, ("transform-check", "--a1", "1", "--a2", "1", "--b1=-2", "--b2=-1",
            f"--alpha={alpha}")) for alpha in ("1e-3", "1e-8", "-1e-6")),
    ({}, ("transform-check", "--a1", "1", "--a2", "-1", "--b1=1e6", "--b2=-1e6",
          "--alpha=0.2")),
    ({}, ("simulate", "--scenario", "mixed-nf", "--x0=0,1e308,0", "--t-end", "1",
          "--min-step", "5e-324")),
)


def calls() -> list[tuple[str, ...]]:
    """The argv of every call before the CONFIG_CALLS, in order."""
    out = []
    for name in SCENARIOS:
        curve = ("--curve-out", "curve.csv") if name in NORMAL_FORMS else ()
        for rng in RANGES:
            out.append(("slide-map", "--scenario", name, f"--range={rng}",
                        "--grid", "101", "--out", "map.csv", "--plot", "map.svg",
                        *curve))
    for name in SCENARIOS[:3]:
        out.append(("simulate", "--scenario", name, "--mode", "filippov",
                    "--t-end", "100", *RUN_OUT))
    for name in NORMAL_FORMS:
        for policy in POLICIES:
            for x0 in FILIPPOV_STARTS:
                out.append(("simulate", "--scenario", name, "--mode", "filippov",
                            "--policy", policy, "--t-end", "10", f"--x0={x0}",
                            *RUN_OUT))
    for name in SCENARIOS:
        for sigmoid in ("tanh", "sqrt"):
            out.append(("simulate", "--scenario", name, "--sigmoid", sigmoid,
                        "--t-end", "20", *RUN_OUT))
    out.append(("simulate", "--scenario", "example-iii", "--epsilon", "1e-4",
                "--t-end", "20", *RUN_OUT))
    # long runs deep in the stiff regime, where most steps sit on the layer
    for name in ("example-ii", "example-iii"):
        out.append(("simulate", "--scenario", name, "--epsilon", "1e-5",
                    "--t-end", "200", *RUN_OUT))
    for name in NORMAL_FORMS:
        for y0 in BLOWUP_STARTS:
            out.append(("blowup", "--scenario", name, f"--x0={y0}",
                        "--t-end", "10", *RUN_OUT))
    out.append(("blowup", "--scenario", "mixed-nf", "--epsilon", "1e-2",
                "--t-end", "10", *RUN_OUT))
    for name in ("example-i", "example-iii"):
        out.append(("blowup", "--scenario", name, "--t-end", "10", *RUN_OUT))
    sources = [("--scenario", name) for name in NORMAL_FORMS]
    sources += [("--a1", a1, "--a2", a2, "--b1", b1, "--b2", b2, "--alpha", alpha)
                for a1, a2, b1, b2, alpha in PARAM_SETS]
    for command in ("classify", "singularity", "transform-check"):
        for src in sources:
            out.append((command, *src, "--out", "report.json"))
    out.append(("sweep", "--a1", "1", "--a2", "1", "--alpha", "0.2",
                "--b-range=-4,4", "--b-step", "0.1", "--out", "sweep.csv"))
    out.append(("sweep", "--a1", "-1", "--a2", "1", "--alpha", "-0.5",
                "--b-range=-3,3", "--b-step", "0.25", "--out", "sweep.csv"))
    out.extend((*argv, *RUN_OUT) for argv in STEP_FLOOR_RUNS)
    out.append(("scenario", "list"))
    out.extend(("scenario", "show", name) for name in SCENARIOS)
    out.extend(FAILING_BLOWUPS)
    out.extend(BOUNDARY_SINGULARITIES)
    out.append(NO_PROGRESS_RUN)
    out.extend(GRID_EDGES)
    out.extend(BELOW_ALPHA_FLOOR)
    # the long Filippov runs of the events benchmark, hundreds of crossings each
    for name in SCENARIOS[:3]:
        out.append(("simulate", "--scenario", name, "--mode", "filippov",
                    "--t-end", "500", *RUN_OUT))
    out.extend(SURFACE_GRIDS)
    for name in NORMAL_FORMS:
        for x0 in CONTACT_STARTS:
            out.append(("simulate", "--scenario", name, "--mode", "filippov",
                        "--t-end", "10", f"--x0={x0}", *RUN_OUT))
    for a1, a2, b1, b2 in LINEAR_ROOT_SYSTEMS:
        for x0 in LINEAR_ROOT_STARTS:
            out.append(("simulate", "--a1", a1, "--a2", a2, f"--b1={b1}", f"--b2={b2}",
                        "--alpha=0", "--mode", "filippov", "--t-end", "10",
                        f"--x0={x0}", *RUN_OUT))
    # the trajectory plot in every view but the default u3
    for view in ("u2", "x1", "x2", "x3"):
        out.append(("simulate", "--scenario", "example-ii", "--mode", "filippov",
                    "--t-end", "100", "--plot", "run.svg", "--view", view))
    out.append(("classify", "--a1", "1", "--a2", "1", "--b1=-2", "--b2=-2",
                "--alpha=-0.0", "--out", "report.json"))
    out.extend(MAX_GRIDS)
    return out


def jobs() -> list[tuple[dict, tuple[str, ...]]]:
    """(files written into the call's directory first, argv) of every call,
    in order."""
    return ([({}, argv) for argv in calls()] + list(CONFIG_CALLS)
            + [({}, argv) for argv in EXTREME_RANGES + UNWRITABLE_PATHS]
            + list(REPRODUCERS) + list(LATE_CALLS))


def line(main, files, argv, workdir) -> str:
    """The output line of one call, run in the empty directory `workdir`
    after writing `files` into it."""
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return f"{digest(main, argv, workdir)}  {shlex.join(argv)}"


def digest(main, argv, workdir) -> str:
    """Run one call in `workdir` and hash everything it produced, with the
    files that were there before it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    for label, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        data = text.encode()
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            data = fh.read()
        h.update(f"file {name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def main() -> int:
    from twofold import cli
    print(f"twofold from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (files, argv) in enumerate(jobs()):
            workdir = os.path.join(tmp, f"call{i:03d}")
            os.mkdir(workdir)
            print(line(cli.main, files, argv, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
