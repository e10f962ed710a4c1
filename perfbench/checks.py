"""Output checks of the benchmark ops.

Each check takes the op, its exit code and captured stdout, the recorded
reference and the op's artifact directory, and returns a list of problems;
an empty list means the op is correct.  Oracles here are independent of the
program: numpy evaluates f1 and the existence quadratic, and slopes are
refitted from the reported residuals.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Simulations start from a seeded perturbation of the reference start, and
# a later stepper may place steps differently, so crossing counts and
# extremes are compared loosely.  Perturbations of 1e-3 moved the sign-change
# count by up to 10% and the sup-norm by up to 3% over t = 500.
SIGN_CHANGE_ABS = 2
SIGN_CHANGE_REL = 0.2
SUP_NORM_REL = 0.1
LAMBDA_RESIDUAL = 1e-9
SLOPE_TARGET, SLOPE_TOL = 2.0, 0.1

# f1 on the surface x1 = 0 of f_plus, f_minus and the hidden field, as
# functions of (x2, x3); the slide-map scenarios are written out here from
# their definitions so the oracle does not use the program.  The two share
# their first components: -x2, x3 and 1/5.
SURFACE_F1 = dict.fromkeys(("example-ii", "invisible-nf"),
                           (lambda x2, x3: -x2, lambda x2, x3: x3, 0.2))


def flag(argv, name):
    """Value of `--name value` or `--name=value` in argv, else None."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def f1_residual(scenario, x2, x3, lam):
    """|f1(0, x2, x3; lam)| by numpy, elementwise."""
    fp, fm, g = SURFACE_F1[scenario]
    fp1, fm1 = fp(x2, x3), fm(x2, x3)
    a, b, c = -g, 0.5 * (fp1 - fm1), 0.5 * (fp1 + fm1) + g
    return np.abs((a * lam + b) * lam + c)


def lambda_problems(path, scenario):
    """Problems with the sliding roots of a slide-map CSV."""
    cols = np.genfromtxt(path, delimiter=",", skip_header=1,
                         usecols=(0, 1, 3, 4, 5), filling_values=np.nan, ndmin=2)
    x2, x3, n_roots = cols[:, 0], cols[:, 1], cols[:, 2]
    problems = []
    for k in (1, 2):
        lam = cols[:, 2 + k]
        given = n_roots >= k
        if np.isnan(lam[given]).any() or (~np.isnan(lam[~given])).any():
            problems.append(f"lambda_{k} column disagrees with n_roots")
            continue
        lam, a2, a3 = lam[given], x2[given], x3[given]
        if lam.size and (np.abs(lam) > 1.0).any():
            problems.append(f"lambda_{k} outside [-1, 1]")
        worst = f1_residual(scenario, a2, a3, lam).max() if lam.size else 0.0
        if worst > LAMBDA_RESIDUAL:
            problems.append(f"lambda_{k} leaves |f1| = {worst:.3e} > {LAMBDA_RESIDUAL}")
    return problems


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _run_problems(op, report, ref):
    problems = []
    if not _finite(report["final_state"]):
        problems.append(f"final state {report['final_state']} is not finite")
    if "step-floor" in report["events"]:
        problems.append("run hit the step floor")
    t_end = float(flag(op.argv, "--t-end"))
    if op.command == "simulate" and report["t_end"] != t_end:
        problems.append(f"run stopped at t = {report['t_end']}, not {t_end}")
    if op.command == "blowup" and not (report["t_end"] == t_end
                                       or report["events"].get("boundary-exit") == 1):
        problems.append(f"blow-up stopped at t = {report['t_end']} without a boundary exit")
    n, n_ref = report["x1_sign_changes"], ref["x1_sign_changes"]
    if abs(n - n_ref) > SIGN_CHANGE_ABS + SIGN_CHANGE_REL * n_ref:
        problems.append(f"{n} x1 sign changes against reference {n_ref}")
    sup, sup_ref = report["sup_norm"], ref["sup_norm"]
    if not abs(sup - sup_ref) <= SUP_NORM_REL * sup_ref:
        problems.append(f"sup-norm {sup} against reference {sup_ref}")
    return problems


def _slide_map_problems(op, report, ref, workdir):
    problems = []
    if report["region_counts"] != ref["region_counts"]:
        problems.append(f"region counts {report['region_counts']} "
                        f"against reference {ref['region_counts']}")
    scenario = flag(op.argv, "--scenario")
    problems += lambda_problems(Path(workdir) / flag(op.argv, "--out"), scenario)
    return problems


def _sweep_problems(op, report, ref):
    got = {"cells": report["cells"], "flavor_count_histogram": report["flavor_count_histogram"]}
    return [] if got == ref else [f"sweep {got} against reference {ref}"]


def _params(op):
    return tuple(float(flag(op.argv, f"--{k}")) for k in ("a1", "a2", "b1", "b2", "alpha"))


def _classify_problems(op, report):
    a1, a2, *_ = _params(op)
    expected = "invisible" if a1 == a2 == 1 else "visible"
    problems = []
    if report["flavor"] != expected:
        problems.append(f"flavor {report['flavor']}, expected {expected}")
    if report["count"] != 1:
        problems.append(f"{report['count']} folded singularities, expected 1 for a1 = a2")
    return problems


def _singularity_problems(op, report):
    a1, a2, b1, b2, _ = _params(op)
    if report["count"] != 1:
        return [f"{report['count']} folded singularities, expected 1 for a1 = a2"]
    # existence quadratic A l^2 + B l + C = 0
    A, B, C = (a1 - a2) + (b1 - b2), 2.0 * (a1 + a2), (a1 - a2) - (b1 - b2)
    lam = report["singularities"][0]["lambda_s"]
    resid = abs(np.polyval([A, B, C], lam))
    if resid > LAMBDA_RESIDUAL * max(1.0, abs(A), abs(B), abs(C)):
        return [f"lambda_s = {lam} leaves residual {resid:.3e}"]
    return []


def _transform_problems(report):
    problems = []
    for chk in report["checks"]:
        slope = chk["slope"]
        fit = np.polyfit(np.log10(chk["h_values"]), np.log10(chk["residuals"]), 1)[0]
        if abs(fit - slope) > 1e-9:
            problems.append(f"reported slope {slope} against refit {fit}")
        if not abs(slope - SLOPE_TARGET) <= SLOPE_TOL:
            problems.append(f"slope {slope} not within {SLOPE_TOL} of {SLOPE_TARGET}")
    if not report["checks"]:
        problems.append("no singularity checked")
    return problems


def op_problems(op, code, stdout, ref, workdir):
    """Every problem with one op's outcome."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    command = op.command
    if command in ("simulate", "blowup"):
        return _run_problems(op, report, ref)
    if command == "slide-map":
        return _slide_map_problems(op, report, ref, workdir)
    if command == "sweep":
        return _sweep_problems(op, report, ref)
    if command == "classify":
        return _classify_problems(op, report)
    if command == "singularity":
        return _singularity_problems(op, report)
    return _transform_problems(report)
