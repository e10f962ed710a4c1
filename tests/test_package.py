import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
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
        "classify_two_fold", "curve_L",
        "equivalence_residual", "folded_normal_field",
        "folded_singularities", "from_x_tilde",
        "integrate_blowup", "integrate_filippov", "integrate_smooth",
        "integrate_smoothed", "load_config", "normal_form_system", "parse_expr",
        "parse_field", "region_classify", "save_run",
        "sliding_lambda", "transform_check",
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


def test_the_benchmark_tracer_wraps_calls_the_program_makes():
    # installing shows only that the names exist; the wrapped `_Stepper`
    # methods must also accept the calls the program makes (the step
    # counter passes positional arguments alone), so a smoothed run, which
    # takes RODAS4 attempts, and a Filippov run that slides go through them
    src = Path(twofold.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(PERFBENCH)))}
    code = ("import sys, twofold.cli\n"
            "from tracer import Tracer\n"
            "Tracer().install()\n"
            "for argv in (['simulate', '--scenario', 'example-i', '--epsilon', '1e-3',\n"
            "              '--t-end', '1'],\n"
            "             ['simulate', '--mode', 'filippov', '--scenario', 'mixed-nf',\n"
            "              '--x0=0,1,1', '--t-end', '1']):\n"
            "    code = twofold.cli.main(argv)\n"
            "    if code:\n"
            "        sys.exit(f'{argv} exited {code}')\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_start_up_imports_no_dataclass_machinery():
    # importing the CLI and building every built-in, as perfbench's set-up
    # probe does, must not load `dataclasses` or the modules it pulls in,
    # which would add about a third to every call's start-up
    src = Path(twofold.__file__).resolve().parent.parent
    code = ("import sys, twofold.cli\n"
            "from twofold.scenarios import builtin, builtin_names\n"
            "for name in builtin_names(): builtin(name)\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_nodes_are_immutable_and_equal_by_type_and_value():
    from twofold.expr import Add, Mul, Neg, Num, Pow, Sub, Var
    a, b = Var(1), Var(2)
    assert Add(a, b) != Sub(a, b) and Add(a, b) != Mul(a, b) and Var(1) != Num(Fraction(1))
    assert Add(Var(1), Var(2)) == Add(a, b)
    t1, t2 = (twofold.parse_expr("x1*(x2-3/4)^2 + -x3") for _ in range(2))
    assert t1 is not t2 and t1 == t2 and hash(t1) == hash(t2)
    for node in (Num(Fraction(1, 2)), a, Neg(a), Add(a, b), Sub(a, b), Mul(a, b), Pow(a, 2)):
        for name in ("left", "value", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, a)


def test_records_are_immutable_keyword_built_and_equal_by_value():
    import inspect
    p = twofold.TwoFoldParams(1, 1, 1.0, -1.0, 0.2)
    s = twofold.folded_singularities(p)[0]
    records = [p, twofold.IntegratorOptions(), twofold.Event(0.5, "crossing", (0.0, 1.0, 2.0)),
               twofold.builtin("example-ii"), twofold.classify_two_fold(p), s,
               twofold.SlidingSolution(0.5, (1.0, 0.0), "attracting"), twofold.curve_L(p),
               twofold.TransformContext(p, s, 1e-3, twofold.normal_form_system(p))]
    for record in records:
        names = list(inspect.signature(type(record)).parameters)
        with pytest.raises(AttributeError):
            setattr(record, names[0], getattr(record, names[0]))
        with pytest.raises(AttributeError):
            record.extra = 1
        copy = type(record)(**{name: getattr(record, name) for name in names})
        assert copy is not record and copy == record
    assert twofold.TwoFoldParams(a1=1, a2=1, b1=1.0, b2=-1.0, alpha=0.2) == p
    assert twofold.TwoFoldParams(1, 1, 1.0, -1.0, 0.3) != p
    assert twofold.IntegratorOptions() == twofold.IntegratorOptions(
        rel_tol=1e-8, abs_tol=1e-10, min_step=1e-12, repelling_policy=twofold.STAY_SLIDING)
    sol = twofold.SlidingSolution(lam=0.5, slide_vector=(1.0, 0.0), stability="attracting")
    assert sol.double_root is False
