"""Command-line front end.

Commands: classify, singularity, slide-map, simulate, blowup,
transform-check, sweep, scenario.  Every command is a pure function of its
flags (plus the recorded seed), so identical invocations write identical
artifacts.  Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

from . import __version__
from .fields import TwoFoldParams, normal_form_system
from .integrate import (BUDGET, EJECT_MINUS, EJECT_PLUS, EPS_MAX, EPS_MIN,
                        SIGMOIDS, STAY_SLIDING, STEP_FLOOR,
                        IntegratorOptions, NonconvergentEventError,
                        integrate_blowup, integrate_filippov, integrate_smoothed)
from .scenarios import (ConfigError, Scenario, builtin, builtin_names,
                        load_config, scenario_to_config, save_run)
from .singularities import (ALPHA_FLOOR, AlphaZeroError, BoundarySingularityError,
                            classify_two_fold, folded_singularities, sweep_grid)
from .sliding import curve_L, degeneracy_report, surface_grid
from .svg import render_region_map, render_trajectory
from .transform import TransformDomainError, transform_check

# failures of the numerics behind a command, each an exit 3
_NUMERICAL_ERRORS = (BoundarySingularityError, NonconvergentEventError,
                     TransformDomainError)

# why a run stopped early, by its meta['aborted']
_ABORT_REASONS = {STEP_FLOOR: "integration hit the step floor",
                  BUDGET: "integration used up its step budget"}

# work caps of the grid commands; both admit a 501 x 501 grid of cells
SLIDE_MAP_MAX_GRID = 501
SWEEP_MAX_CELLS = SLIDE_MAP_MAX_GRID ** 2


def _add_system_args(sp):
    src = sp.add_argument_group("system source")
    src.add_argument("--scenario", metavar="NAME", help="built-in scenario name")
    src.add_argument("--config", metavar="PATH", help="JSON system configuration")
    src.add_argument("--a1", type=int, choices=(-1, 1))
    src.add_argument("--a2", type=int, choices=(-1, 1))
    src.add_argument("--b1", type=_finite)
    src.add_argument("--b2", type=_finite)
    src.add_argument("--alpha", type=_finite)


def _add_run_args(sp):
    sp.add_argument("--epsilon", type=_positive, help="smoothing/timescale parameter")
    sp.add_argument("--t-end", type=_positive, dest="t_end")
    sp.add_argument("--x0", type=_triple, help="initial state, three comma-separated numbers")
    sp.add_argument("--rel-tol", type=_positive, dest="rel_tol")
    sp.add_argument("--abs-tol", type=_positive, dest="abs_tol")
    sp.add_argument("--min-step", type=_positive, dest="min_step")


def _finite(text: str) -> float:
    """argparse type for a finite float; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type for a finite float > 0."""
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(_finite(p) for p in parts)


def _resolve_scenario(args, parser) -> Scenario:
    given_params = [v is not None for v in (args.a1, args.a2, args.b1, args.b2, args.alpha)]
    sources = sum((args.scenario is not None, args.config is not None, any(given_params)))
    if sources != 1:
        parser.error("give exactly one system source: --scenario, --config, "
                     "or the full --a1/--a2/--b1/--b2/--alpha set")
    if args.scenario is not None:
        try:
            sc = builtin(args.scenario)
        except ValueError as exc:
            parser.error(str(exc))
    elif args.config is not None:
        try:
            sc = load_config(args.config)
        except (ConfigError, OSError, json.JSONDecodeError) as exc:
            parser.error(f"bad config: {exc}")
    else:
        if not all(given_params):
            parser.error("normal-form parameters need all of --a1 --a2 --b1 --b2 --alpha")
        p = TwoFoldParams(args.a1, args.a2, args.b1, args.b2, args.alpha)
        sc = Scenario("normal-form", normal_form_system(p), 1e-3, 10.0,
                      (0.0, 1.0, 1.0), "tanh", "")
    return dataclasses.replace(sc, **_given(args, "epsilon", "t_end", "x0", "sigmoid"))


def _given(args, *names) -> dict:
    """The flags among `names` that the command takes and the call set."""
    return {name: value for name in names
            if (value := getattr(args, name, None)) is not None}


def _emit(report, args, out=None) -> int:
    """Print the JSON report, with --seed added, and copy it to `out`.

    A report holding a non-finite number is not written (JSON has no such
    numbers): exit 3.
    """
    seed = getattr(args, "seed", None)
    if seed is not None:
        report["seed"] = seed
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        return _numerical_failure("the report holds a non-finite number")
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return 0


def _need_params(sc: Scenario, parser) -> TwoFoldParams:
    if sc.params is None:
        parser.error(f"{sc.name!r} is not a normal-form system; this command "
                     "needs --a1/--a2/--b1/--b2/--alpha (or a params config)")
    return sc.params


def _numerical_failure(traj_or_msg) -> int:
    if isinstance(traj_or_msg, str):
        print(f"numerical failure: {traj_or_msg}", file=sys.stderr)
    else:
        print(f"numerical failure: {_ABORT_REASONS[traj_or_msg.meta['aborted']]}",
              file=sys.stderr)
        for e in traj_or_msg.events[-8:]:
            print(f"  t={e.t!r} {e.kind} state={e.state}", file=sys.stderr)
    return 3


# ---------------------------------------------------------------- commands

def _cmd_classify(args, parser) -> int:
    sc = _resolve_scenario(args, parser)
    p = _need_params(sc, parser)
    flavor = classify_two_fold(p)
    deg = degeneracy_report(p)
    report = {
        "params": dataclasses.asdict(p),
        "flavor": flavor.tag,
        "determinacy_breaking": flavor.determinacy_breaking,
        "degenerate_layer": deg.is_degenerate,
        "d2f1_dlambda2": deg.d2f1_dlambda2,
    }
    try:
        sings = folded_singularities(p)
        report["singularities"] = [s.to_json_dict() for s in sings]
        report["count"] = len(sings)
    except AlphaZeroError:
        report["singularities"] = []
        report["count"] = 0
        report["note"] = ("alpha is zero: the layer problem is degenerate and no "
                          "folded singularities are defined" if deg.is_degenerate else
                          f"|alpha| <= {ALPHA_FLOOR!r}: the layer problem is too close "
                          "to degenerate and no folded singularities are computed")
    return _emit(report, args, args.out)


def _cmd_singularity(args, parser) -> int:
    sc = _resolve_scenario(args, parser)
    p = _need_params(sc, parser)
    sings = folded_singularities(p)
    report = {"params": dataclasses.asdict(p),
              "count": len(sings),
              "singularities": [s.to_json_dict() for s in sings]}
    return _emit(report, args, args.out)


def _cmd_slide_map(args, parser) -> int:
    sc = _resolve_scenario(args, parser)
    lo, hi = args.range
    n = args.grid
    if not 2 <= n <= SLIDE_MAP_MAX_GRID or not 0.0 < hi - lo < math.inf:
        parser.error(f"need 2 <= --grid <= {SLIDE_MAP_MAX_GRID} and a nonempty, "
                     "finite --range lo,hi")
    if args.curve_out and sc.params is None:
        parser.error("--curve-out needs a normal-form system")
    # x2 and x3 run over the same axis
    axis = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    regions, roots = surface_grid(sc.system, axis)
    if args.out:
        text = [repr(v) for v in axis]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("x2,x3,region,n_roots,lambda_1,lambda_2\n")
            for t2, region_row, roots_row in zip(text, regions, roots):
                for t3, region, lams in zip(text, region_row, roots_row):
                    l1 = repr(lams[0]) if len(lams) > 0 else ""
                    l2 = repr(lams[1]) if len(lams) > 1 else ""
                    fh.write(f"{t2},{t3},{region},{len(lams)},{l1},{l2}\n")
    curve = (curve_L(sc.params, 201)
             if sc.params is not None and (args.curve_out or args.plot) else None)
    if args.curve_out:
        curve.to_csv(args.curve_out)
    if args.plot:
        render_region_map((axis, axis, regions), curve, args.plot)
    counts: dict[str, int] = {}
    for region in itertools.chain.from_iterable(regions):
        counts[region] = counts.get(region, 0) + 1
    return _emit({"grid": n, "range": [lo, hi], "region_counts": counts}, args)


def _traj_summary(traj) -> dict:
    return {
        "samples": len(traj),
        "t_end": traj.t_end,
        "final_state": list(traj.final_state),
        "events": {k: len(traj.events_of(k)) for k in
                   sorted({e.kind for e in traj.events})},
        "sup_norm": traj.sup_norm(),
        "x1_sign_changes": traj.sign_changes(0),
    }


def _run_report(args, traj, head: dict) -> int:
    """The tail of simulate and blowup: artifacts, then the report (`head`
    plus the run summary), then exit 3 if the run stopped early."""
    if args.out:
        save_run(traj, args.out)
    if args.plot:
        render_trajectory(traj, args.plot, view=args.view)
    code = _emit({**head, **_traj_summary(traj)}, args)
    if "aborted" in traj.meta:
        return _numerical_failure(traj)
    return code


def _run_options(args) -> IntegratorOptions:
    return IntegratorOptions(**_given(args, "rel_tol", "abs_tol", "min_step",
                                      "repelling_policy"))


def _cmd_simulate(args, parser) -> int:
    sc = _resolve_scenario(args, parser)
    if args.mode != "filippov" and not EPS_MIN <= sc.epsilon <= EPS_MAX:
        parser.error(f"smoothed runs need {EPS_MIN!r} <= epsilon <= {EPS_MAX!r}")
    opts = _run_options(args)
    if args.mode == "filippov":
        traj = integrate_filippov(sc.system, sc.x0, (0.0, sc.t_end), opts)
    else:
        traj = integrate_smoothed(sc.system, sc.sigmoid, sc.epsilon,
                                  sc.x0, (0.0, sc.t_end), opts)
    head = {"scenario": sc.name, "mode": args.mode, "epsilon": sc.epsilon,
            "sigmoid": sc.sigmoid, "x0": list(sc.x0)}
    if args.mode != "filippov":
        # accepted steps, and how many of them were RODAS4 steps on the layer
        head["steps"] = traj.meta["steps"]
        head["rosenbrock_steps"] = traj.meta["rosenbrock_steps"]
    return _run_report(args, traj, head)


def _cmd_blowup(args, parser) -> int:
    sc = _resolve_scenario(args, parser)
    y0 = args.x0 if args.x0 is not None else (0.0, 1.0, 1.0)
    if not -1.0 <= y0[0] <= 1.0:
        parser.error("blow-up initial state is lam,x2,x3 with lam in [-1, 1]")
    traj = integrate_blowup(sc.system, sc.epsilon, y0, (0.0, sc.t_end),
                            _run_options(args))
    p = sc.params
    head = {"params": None if p is None else dataclasses.asdict(p), "epsilon": sc.epsilon}
    return _run_report(args, traj, head)


def _cmd_transform_check(args, parser) -> int:
    sc = _resolve_scenario(args, parser)
    p = _need_params(sc, parser)
    return _emit(transform_check(p), args, args.out)


def _cmd_sweep(args, parser) -> int:
    if args.a1 is None or args.a2 is None or args.alpha is None:
        parser.error("sweep needs --a1, --a2 and --alpha")
    lo, hi = args.b_range
    step = args.b_step
    if step <= 0 or hi < lo:
        parser.error("need --b-step > 0 and --b-range lo,hi with lo <= hi")
    per_axis = (hi - lo) / step + 1.0
    if per_axis * per_axis > SWEEP_MAX_CELLS:
        parser.error(f"sweep grid exceeds {SWEEP_MAX_CELLS} cells; raise --b-step "
                     "or narrow --b-range")
    n = int(round((hi - lo) / step)) + 1
    if not math.isfinite(lo + (n - 1) * step):
        parser.error("the sweep grid's last b value overflows; narrow --b-range")
    # b1 and b2 run over the same axis, b1 in the outer loop
    axis = [lo + i * step for i in range(n)]
    grid = sweep_grid(args.a1, args.a2, args.alpha, axis)
    if args.out:
        text = [repr(b) for b in axis]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("b1,b2,flavor,determinacy_breaking,count,types\n")
            for t1, row in zip(text, grid):
                for t2, (flavor, kinds) in zip(text, row):
                    fh.write(f"{t1},{t2},{flavor.tag},{str(flavor.determinacy_breaking).lower()},"
                             f"{len(kinds)},{'+'.join(kinds)}\n")
    summary: dict[str, int] = {}
    for flavor, kinds in itertools.chain.from_iterable(grid):
        key = f"{flavor.tag}:{len(kinds)}"
        summary[key] = summary.get(key, 0) + 1
    return _emit({"a1": args.a1, "a2": args.a2, "alpha": args.alpha,
                  "cells": n * n, "flavor_count_histogram": summary}, args)


def _cmd_scenario(args, parser) -> int:
    if args.action == "list":
        return _emit(builtin_names(), args)
    if args.name is None:
        parser.error("scenario show needs a name")
    try:
        sc = builtin(args.name)
    except ValueError as exc:
        parser.error(str(exc))
    return _emit(scenario_to_config(sc), args)


# ---------------------------------------------------------------- wiring

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on the first
    `main` call; parsing leaves it unchanged and every default is immutable
    (or, for `fn` and `parser`, the command and its own subparser), so each
    call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="twofold",
        description="Analysis and simulation of two-fold singularities in "
                    "piecewise-smooth dynamical systems.")
    parser.add_argument("--version", action="version", version=f"twofold {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run_args=False, plot=False):
        # slide-map and the runs draw SVGs (--plot); only runs pick a --view
        _add_system_args(sp)
        if run_args:
            _add_run_args(sp)
        sp.add_argument("--out", metavar="PATH", help="artifact output path")
        if plot or run_args:
            sp.add_argument("--plot", metavar="PATH", help="SVG output path")
        if run_args:
            sp.add_argument("--view", choices=("u3", "u2", "x1", "x2", "x3"),
                            default="u3", help="projection axis for plots")
        sp.add_argument("--seed", type=int, metavar="U64",
                        help="recorded in the printed report")

    sp = sub.add_parser("classify", help="two-fold flavour and folded singularities")
    common(sp)
    sp.set_defaults(fn=_cmd_classify, parser=sp)

    sp = sub.add_parser("singularity", help="folded-singularity analysis report")
    common(sp)
    sp.set_defaults(fn=_cmd_singularity, parser=sp)

    sp = sub.add_parser("slide-map", help="region map of the switching surface")
    common(sp, plot=True)
    sp.add_argument("--range", type=_pair, default=(-2.0, 2.0),
                    metavar="LO,HI", help="x2 and x3 range (default -2,2)")
    sp.add_argument("--grid", type=int, default=41, help="points per axis")
    sp.add_argument("--curve-out", metavar="PATH", dest="curve_out",
                    help="CSV of the fold curve with tangents")
    sp.set_defaults(fn=_cmd_slide_map, parser=sp)

    sp = sub.add_parser("simulate", help="integrate a system")
    common(sp, run_args=True)
    sp.add_argument("--sigmoid", choices=tuple(SIGMOIDS))
    sp.add_argument("--policy", choices=(STAY_SLIDING, EJECT_PLUS, EJECT_MINUS),
                    dest="repelling_policy")
    sp.add_argument("--mode", choices=("smoothed", "filippov"), default="smoothed")
    sp.set_defaults(fn=_cmd_simulate, parser=sp)

    sp = sub.add_parser("blowup", help="integrate the layer (blow-up) system")
    common(sp, run_args=True)
    sp.set_defaults(fn=_cmd_blowup, parser=sp)

    sp = sub.add_parser("transform-check", help="order check of the folded-"
                                                "singularity equivalence")
    common(sp)
    sp.set_defaults(fn=_cmd_transform_check, parser=sp)

    sp = sub.add_parser("sweep", help="grid over (b1, b2) at fixed a1, a2, alpha")
    sp.add_argument("--a1", type=int, choices=(-1, 1))
    sp.add_argument("--a2", type=int, choices=(-1, 1))
    sp.add_argument("--alpha", type=_finite)
    sp.add_argument("--b-range", type=_pair, default=(-6.0, 6.0), metavar="LO,HI")
    sp.add_argument("--b-step", type=_finite, default=0.1)
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--seed", type=int, metavar="U64")
    sp.set_defaults(fn=_cmd_sweep, parser=sp)

    sp = sub.add_parser("scenario", help="list or show built-in scenarios")
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("name", nargs="?")
    sp.set_defaults(fn=_cmd_scenario, parser=sp)

    return parser


def _pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return (_finite(parts[0]), _finite(parts[1]))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a command's own errors print its subcommand's usage
        try:
            return args.fn(args, args.parser)
        except AlphaZeroError as exc:    # |alpha| at the floor: bad input, not numerics
            args.parser.error(str(exc))
    except SystemExit as exc:        # argparse usage failure or --version
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:           # an artifact path that cannot be written
        print(f"twofold: error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        return _numerical_failure(str(exc))


if __name__ == "__main__":
    sys.exit(main())
