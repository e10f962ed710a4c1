"""Digest of every output of a fixed list of `twofold` CLI calls.

Runs 179 calls of `twofold.cli.main` in this process, each in its own
directory under one temporary directory, empty but for the config file the
call reads, if any, and prints one line per call:

    <sha256>  <argv>

The hash covers the exit code, stdout, stderr and the name and bytes of
every file the call wrote.  Two checkouts whose outputs are identical print
identical text, so a change that must keep every result bit for bit is
checked by diffing this script's output on the parent and on the change:

    PYTHONPATH=src python3 tools/cli_digests.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 tools/cli_digests.py > before.txt
    diff before.txt after.txt

The package is imported from PYTHONPATH; its location is printed to stderr.
The list covers slide maps, Filippov, smoothed and blow-up runs (two of
them smoothed at eps = 1e-5 over 200 time units), the normal-form reports
and sweeps, runs that stop early at a step floor,
`scenario list` plus `scenario show` of every built-in scenario, two
blow-ups that end in a numerical failure, four reports on a folded
singularity next to lam = -1 and a run whose step stops advancing t, which
all exit 3 too, three grid edges: a 2 x 2 slide map, a 7 x 7 one over
+-1e-300 and a one-cell sweep, the three reports at a nonzero alpha below
the 1e-9 cutoff, the three long Filippov runs of the events benchmark
(examples i-iii to t = 500 from their default starts, hundreds of
crossings each), and last five surface grids: two sweeps below the alpha
cutoff, the benchmark sweep at two more sign pairs and an example-i slide
map over +-1e200, then nine Filippov runs of the normal forms from surface
starts where the plus field grazes, the minus field grazes and both do (the
two-fold), six Filippov runs of alpha = 0 normal forms, whose slides hold
the linear root of f1's lam-quadratic, and three calls that read an
expression config: a Filippov run and a slide map of one, and a config
whose 500-term sum nests too deep to load (exit 2).  It takes about a
minute in all on one core of a 2-vCPU Xeon, Python 3.11, most of it
(40-50 s) the step-floor run of the perturbed example-i start.
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
# by 1 + lam_s, in each command that builds them
BOUNDARY_SINGULARITIES = (
    ("classify", "--a1", "1", "--a2", "1", "--b1=3", "--b2=1e15", "--alpha=2"),
    ("singularity", "--a1", "1", "--a2", "1", "--b1=3", "--b2=1e15", "--alpha=2"),
    ("transform-check", "--a1", "1", "--a2", "1", "--b1=-1",
     "--b2=1.4318425678468844e+16", "--alpha=0.2"),
    ("sweep", "--a1", "1", "--a2", "1", "--alpha=2", "--b-range=-1e16,1e16",
     "--b-step=1e14"),
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
# (files written into the call's directory first, argv)
CONFIG_CALLS = (
    ({"cfg.json": EXPRESSION_CONFIG},
     ("simulate", "--config", "cfg.json", "--mode", "filippov", *RUN_OUT)),
    ({"cfg.json": EXPRESSION_CONFIG},
     ("slide-map", "--config", "cfg.json", "--out", "map.csv", "--plot", "map.svg")),
    ({"deep.json": DEEP_CONFIG},
     ("simulate", "--config", "deep.json", "--mode", "filippov")),
)


def calls() -> list[tuple[str, ...]]:
    """The argv of every call but the CONFIG_CALLS, in order."""
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
    return out


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
        jobs = [({}, argv) for argv in calls()] + list(CONFIG_CALLS)
        for i, (files, argv) in enumerate(jobs):
            workdir = os.path.join(tmp, f"call{i:03d}")
            os.mkdir(workdir)
            for name, text in files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"{digest(cli.main, argv, workdir)}  {shlex.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
