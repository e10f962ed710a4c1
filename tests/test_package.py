import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import twofold

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_public_names_are_pinned():
    # a name leaves or joins the package surface only by editing this list
    assert twofold.__all__ == [
        "AlphaZeroError", "BoundarySingularityError", "ConfigError", "CurveL",
        "EJECT_MINUS", "EJECT_PLUS", "Event", "ExpressionError",
        "FoldedSingularity", "IntegratorOptions", "NonconvergentEventError",
        "PiecewiseSmoothSystem", "STAY_SLIDING", "Scenario", "SlidingSolution",
        "SmoothField", "Trajectory", "TransformContext", "TransformDomainError",
        "TwoFoldFlavor", "TwoFoldParams", "builtin", "builtin_names", "chart",
        "classify_two_fold", "curve_L", "curve_functions",
        "equivalence_residual", "folded_normal_field",
        "folded_singularities", "from_x_tilde",
        "integrate_blowup", "integrate_filippov", "integrate_smooth",
        "integrate_smoothed", "load_config", "normal_form_system", "parse_expr",
        "parse_field", "region_classify", "save_run",
        "sliding_lambda", "to_y", "transform_check",
    ]


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(twofold.__path__)])
def test_every_name_in_a_submodules_all_exists(name):
    # a stale entry, a name deleted but still listed, breaks `import *`
    module = importlib.import_module(f"twofold.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_the_benchmark_tracer_installs_on_the_package():
    # perfbench/tracer.py looks package functions and methods up by name to
    # wrap them, so deleting one breaks a traced benchmark pass; installing
    # the tracer here catches that.  A fresh process, as install patches the
    # package's classes for good.
    src = Path(twofold.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(PERFBENCH)))}
    done = subprocess.run(
        [sys.executable, "-c", "import twofold.cli; from tracer import Tracer; Tracer().install()"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
