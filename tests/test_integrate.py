import functools
import itertools
import math
import random
import re
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twofold.expr import Mul, Neg, Num, Var, num
from twofold.fields import (PiecewiseSmoothSystem, SmoothField, TwoFoldParams,
                            compile_df1_dx1, compile_jacobian, compile_layer,
                            normal_form_system, parse_field, quadratic_roots)
from twofold import integrate, rodas4
from twofold.integrate import (EJECT_MINUS, EJECT_PLUS, FLOW_MINUS, FLOW_PLUS, LAYER, POLICIES,
                               STAY_SLIDING, Event, IntegratorOptions, Trajectory, integrate_blowup,
                               integrate_filippov, integrate_smooth, integrate_smoothed)
from twofold.integrate import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52,
                               _A53, _A54, _A61, _A62, _A63, _A64, _A65, _B1,
                               _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7,
                               BISECT_MAX_ITER, NonconvergentEventError,
                               TWO_FOLD_TOL, _Stepper, _bisect_event, _dp54_run,
                               SIGMOIDS, _hermite, _monotone_noise,
                               _illinois, _slide_monitors, _surface_crossing)
from twofold.scenarios import builtin, load_config
from twofold.sliding import CLASSIFY_TOL, slide_root, sliding_lambda, surface_quadratic


def events_of_kind(traj, kind):
    return [e for e in traj.events if e.kind == kind]


def nf(a1, a2, b1, b2, alpha):
    return normal_form_system(TwoFoldParams(a1, a2, b1, b2, alpha))


# ------------------------------------------------------------ smooth core

def test_constant_field():
    traj = integrate_smooth(parse_field("0", "0", "1"), (0.0, 0.0, 0.0), (0.0, 1.0))
    assert traj.final_state == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_harmonic_oscillator_period():
    traj = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0),
                            (0.0, 2 * math.pi))
    assert traj.final_state == pytest.approx((1.0, 0.0, 0.0), abs=1e-6)


def test_tolerance_halving_improves_harmonic_error():
    errs = []
    for k in range(4):
        tol = 2e-6 / 2 ** k
        traj = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0),
                                (0.0, 2 * math.pi),
                                IntegratorOptions(rel_tol=tol, abs_tol=tol * 1e-2))
        x = traj.final_state
        errs.append(math.hypot(x[0] - 1.0, x[1]))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_dense_output_matches_samples_and_is_continuous():
    traj = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0), (0.0, 3.0))
    ts = traj.times
    mid = 0.5 * (ts[3] + ts[4])
    x = traj.eval(mid)
    assert x[0] == pytest.approx(math.cos(mid), abs=1e-7)
    assert all(traj.eval(t) == traj.state(i) for i, t in enumerate(ts))


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", 0.0),
    ("abs_tol", math.inf), ("abs_tol", math.nan),
    ("min_step", math.inf), ("min_step", 0.0),
    ("repelling_policy", "eject-at"),
    ("rel_tol", True), ("abs_tol", "1e-10"), ("min_step", None),
])
def test_integrator_options_reject_bad_values(field, value):
    with pytest.raises(ValueError):
        IntegratorOptions(**{field: value})


def test_eval_of_an_empty_and_a_one_sample_trajectory():
    traj = Trajectory()
    with pytest.raises(ValueError, match="empty trajectory"):
        traj.eval(0.0)
    traj.append(1.0, (0.5, -1.0, 2.0), (1.0, 0.0, 0.0), "flow+")
    assert traj.eval(1.0) == (0.5, -1.0, 2.0)
    with pytest.raises(ValueError, match="outside the run's span"):
        traj.eval(3.0)


@pytest.mark.parametrize("t", [-5.0, -1e-300, 1.0 + 2.0 ** -52, 50.0, math.inf, math.nan])
def test_eval_outside_the_runs_span_is_an_error(t):
    # dense output interpolates only between samples: past either end the
    # cubic of the end segment ran off the orbit (the unit circle here gave
    # (-11.5, -15.8, 0) at t = -5 and (15499, 12044, 0) at t = 50)
    traj = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError, match=r"lies outside the run's span \[0\.0, 1\.0\]"):
        traj.eval(t)
    assert traj.eval(0.0) == (1.0, 0.0, 0.0)
    assert traj.eval(1.0) == traj.final_state


@pytest.mark.parametrize("probe", [math.inf, -math.inf, math.nan])
def test_illinois_stops_at_a_probe_whose_value_is_not_finite(probe):
    probes = []
    assert _illinois(lambda t: probes.append(t) or probe, 0.0, 1.0, -1.0, 1.0, 0.0) == (0.0, 1.0)
    assert probes == [0.5]


def test_sample_times_must_increase():
    for t in (1.0, 0.5):
        traj = Trajectory()
        traj.append(1.0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "flow+")
        with pytest.raises(ValueError, match=f"strictly increasing, got {t}"):
            traj.append(t, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "flow+", f_in=(2.0, 0.0, 0.0))
        assert len(traj) == 1 and traj._f_in == {}     # a rejected sample leaves nothing


@pytest.mark.parametrize("run, args, message", [
    (integrate_smoothed, ("tanh", 0.0, (0.1, 0.5, 0.5), (0.0, 1.0)), "eps must lie in"),
    (integrate_smoothed, ("tanh", 1e101, (0.1, 0.5, 0.5), (0.0, 1.0)), "eps must lie in"),
    (integrate_smoothed, ("tanh", 1e-3, (0.1, 0.5, 0.5), (1.0, 1.0)),
     "smoothed runs integrate forward"),
    (integrate_smoothed, ("logistic", 1e-3, (0.1, 0.5, 0.5), (0.0, 1.0)),
     "unknown sigmoid 'logistic'"),
    (integrate_blowup, (0.0, (0.0, 1.0, 1.0), (0.0, 1.0)), "eps must lie in"),
    (integrate_blowup, (-1e-3, (0.0, 1.0, 1.0), (0.0, 1.0)), "eps must lie in"),
    (integrate_blowup, (1e-101, (0.0, 1.0, 1.0), (0.0, 1.0)), "eps must lie in"),
    (integrate_blowup, (1e101, (0.0, 1.0, 1.0), (0.0, 1.0)), "eps must lie in"),
    (integrate_blowup, (math.nan, (0.0, 1.0, 1.0), (0.0, 1.0)), "eps must lie in"),
])
def test_out_of_range_run_inputs_are_rejected(run, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run(builtin("mixed-nf").system, *args)


def test_step_below_the_resolution_of_t_is_a_step_floor():
    # past t = 1e20 a step of 1e-3 leaves t unchanged, though it is far above
    # min_step: the run stops at a step floor instead of appending a sample
    # at the same time
    span = (1e20, 1e20 + 1e6)
    runs = (integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0), span),
            integrate_filippov(builtin("example-ii").system, (0.1, 0.3, -0.2), span))
    for traj in runs:
        assert traj.meta["aborted"] == "step-floor"
        assert traj.events[-1].kind == "step-floor"
        assert traj.t_end == 1e20 and len(traj) == 1


def test_a_step_that_t_end_cuts_below_min_step_is_taken():
    # the last step of a span is as short as the span's end makes it; only a
    # step the controller shrinks below min_step is a step floor
    traj = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0), (0.0, 1e-13))
    assert "aborted" not in traj.meta and list(traj.times) == [0.0, 1e-13]


def test_step_budget_is_enforced(monkeypatch):
    full = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0), (0.0, 100.0))
    assert "aborted" not in full.meta and full.meta["steps"] == len(full) - 1
    monkeypatch.setattr(integrate, "MAX_STEPS", 50)
    traj = integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0),
                            (0.0, 100.0))
    assert traj.meta["aborted"] == "budget" and traj.meta["steps"] == 50
    assert len(traj) == 51 and traj.t_end < 100.0


def test_step_budget_counts_every_segment_of_a_filippov_run(monkeypatch):
    # each crossing or slide starts a new segment; the budget is the run's
    monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
    sc = builtin("example-iii")
    traj = integrate_filippov(sc.system, sc.x0, (0.0, 200.0))
    assert traj.meta["aborted"] == "budget" and traj.meta["steps"] == 1000
    assert traj.t_end < 200.0
    assert len(events_of_kind(traj, "crossing")) + len(events_of_kind(traj, "slide-entry")) > 1


# ------------------------------------------------------------ DP54 oracle

def reference_attempt(rhs, y, k1, h, opts):
    """Generic DP54 attempt over a state tuple of any length, written as
    loops; `rhs` maps a state tuple to a derivative tuple.  The attempt
    unrolled in `_dp54_run` must reproduce it bit for bit."""
    rng = range(len(y))
    k2 = rhs(tuple(y[i] + h * (_A21 * k1[i]) for i in rng))
    k3 = rhs(tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng))
    k4 = rhs(tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in rng))
    k5 = rhs(tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                               + _A54 * k4[i]) for i in rng))
    k6 = rhs(tuple(y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                               + _A64 * k4[i] + _A65 * k5[i]) for i in rng))
    y_new = tuple(y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i]
                              + _B5 * k5[i] + _B6 * k6[i]) for i in rng)
    k7 = rhs(y_new)
    err = 0.0
    at, rt = opts.abs_tol, opts.rel_tol
    for i in rng:
        e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                 + _E6 * k6[i] + _E7 * k7[i])
        scale = at + rt * max(abs(y[i]), abs(y_new[i]))
        q = abs(e) / scale
        if q > err:
            err = q
    return y_new, k7, err


def same_bits(a, b):
    """Equal floats including the sign of zero; NaN matches NaN."""
    if a != a:
        return b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_attempts_match(fn, y0, h, opts):
    """One fused attempt of size h > 0 from y0, `_dp54_run` to t = h with
    min_step just under h, against `reference_attempt`: an accepted attempt
    is the sample at h, and a rejected one ends the run at the step floor.
    Either leaves its next h on the stepper, h * min(5, max(0.2, 0.9
    err**-0.2)) after an accepted attempt, h * max(0.2, 0.9 err**-0.2)
    after a rejected one, or h * 0.2 at a non-finite state with err <= 1,
    so a rejection's err is checked through that h.  Returns the
    reference's (y_new, f_new, err)."""
    stepper = _Stepper(fn, 0.0, y0, IntegratorOptions(opts.rel_tol, opts.abs_tol,
                                                      math.nextafter(h, 0.0)), h=h)
    want = y_new, f_new, err = reference_attempt(lambda y: fn(*y), stepper.y, stepper.f, h, opts)
    traj = Trajectory()
    assert _dp54_run(traj, stepper, h) is None and traj.meta["attempts"] == 1
    if err <= 1.0 and all(v == v for v in y_new):
        assert list(traj.times) == [0.0, h] and "aborted" not in traj.meta
        for g, w in zip((traj.state(1), tuple(col[1] for col in traj._f)), (y_new, f_new)):
            assert all(same_bits(a, b) for a, b in zip(g, w)), (y0, h, g, w)
        fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    else:
        assert len(traj) == 1 and traj.meta["aborted"] == "step-floor"
        fac = max(0.2, 0.9 * err ** -0.2) if err > 1.0 else 0.2
    assert same_bits(stepper.h, h * fac), (y0, h, err, stepper.h)
    return want


def signed_steps(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)


@pytest.mark.parametrize("name", ["example-i", "example-ii", "example-iii"])
def test_unrolled_attempt_matches_reference_on_smoothed_layers(name):
    # a run steps forward only, so the drawn step's sign is dropped; about
    # a quarter of the 400 attempts per system are rejected
    rng = random.Random(f"dp54-{name}")
    sys = builtin(name).system
    rejected = 0
    for sigmoid in ("tanh", "sqrt"):
        for eps in (1e-3, 1e-4):
            fn = compile_layer(sys, SIGMOIDS[sigmoid][0](eps))
            for _ in range(100):
                y0 = (rng.uniform(-10 * eps, 10 * eps), rng.uniform(-2, 2),
                      rng.uniform(-2, 2))
                opts = IntegratorOptions(rel_tol=10.0 ** rng.uniform(-10, -4),
                                         abs_tol=10.0 ** rng.uniform(-12, -6))
                err = assert_attempts_match(fn, y0, abs(signed_steps(rng, -7, -1)), opts)[2]
                rejected += err > 1.0
    assert 50 < rejected < 350


def test_unrolled_attempt_matches_reference_through_overflow():
    # cubic growth sends the stages to inf and inf - inf to NaN, so these
    # attempts carry the values that make the loop reject
    fn = parse_field("x2*x2*x2", "-x1*x1*x1", "x3*x3").fn
    rng = random.Random(4242)
    nan_states = big_errors = accepted = 0
    for _ in range(300):
        size = 10.0 ** rng.uniform(-2, 20)
        y0 = tuple(size * rng.uniform(-1.0, 1.0) for _ in range(3))
        y_new, _, err = assert_attempts_match(fn, y0, abs(signed_steps(rng, -4, 0)),
                                              IntegratorOptions())
        nan_states += any(v != v for v in y_new)
        big_errors += err > 1.0
        accepted += err <= 1.0 and all(v == v for v in y_new)
    assert nan_states > 20 and big_errors > 20 and accepted > 20


def test_slide_with_x1_pinned_matches_the_two_dimensional_attempt():
    # a slide integrates (0.0, x2, x3) with f1 = 0.0: x1 must stay +0.0 and
    # the attempt must equal the generic one on (x2, x3) alone
    sys = builtin("mixed-nf").system
    rng = random.Random(77)
    for sigma in (-1, 1):
        def fn(x1, x2, x3):
            lam = slide_root(*sys.f1_sides(x2, x3), sigma)[0]
            _, f2, f3 = sys.layer(0.0, x2, x3, lam)
            return (0.0, f2, f3)

        def fn2(w):
            return fn(0.0, w[0], w[1])[1:]

        for _ in range(100):
            y0 = (0.0, rng.uniform(-2, 2), rng.uniform(-2, 2))
            h = 10.0 ** rng.uniform(-6, -1)
            opts = IntegratorOptions()
            y_new, f_new, err = assert_attempts_match(fn, y0, h, opts)
            assert same_bits(y_new[0], 0.0) and same_bits(f_new[0], 0.0)
            want = reference_attempt(fn2, y0[1:], fn2(y0[1:]), h, opts)
            assert all(same_bits(a, b) for a, b in zip(y_new[1:], want[0]))
            assert all(same_bits(a, b) for a, b in zip(f_new[1:], want[1]))
            assert same_bits(err, want[2])


# ------------------------------------------------------------ the fused DP54 loop

def reference_dp54_run(traj, stepper, t1, side=0, blowup=False, every=False, counts=None):
    """`_dp54_run`'s contract as a plain loop over `reference_attempt` and
    `rodas4.attempt`, with the step rules written out:

    * an attempt takes min(h, t1 - t); a step the controller shrank below
      min_step, or one that leaves t unchanged, is a step floor;
    * for a stepper with df1_dx1, an attempt with h (-df1/dx1) > 3.3 at
      the step's start is RODAS4, kept if that also holds at its end and
      otherwise redone at the same h by DP54;
    * an accepted attempt sets h to h min(5, max(0.2, 0.9 err**p)), a
      rejected one to h max(0.2, 0.9 err**p), or h 0.2 at a non-finite
      state, p = -0.25 after RODAS4 and -0.2 after DP54.

    The same tags (flow+ or flow- by the sign of the first coordinate, no
    lam), budget and meta sums, RODAS4 steps in meta['rosenbrock_steps']
    too, and as pre-test `every` and a flow or a slide (side != 0) flag
    every step (the scan finds no crossing on a step the hull test passes)
    and a blow-up each step whose lam leaves (-1, 1).  `counts`, a Counter,
    adds up the same-h DP54 redos ("redo") and the rejected RODAS4
    attempts ("rejected-rodas4")."""
    counts = Counter() if counts is None else counts

    def tag(y):
        return FLOW_PLUS if y[0] >= 0 else FLOW_MINUS

    df1_dx1, at, rt = stepper.df1_dx1, stepper.abs_tol, stepper.rel_tol
    opts = IntegratorOptions(rel_tol=rt, abs_tol=at)
    jac = []

    def attempt(stiff, h, y, f):
        if not stiff:
            return reference_attempt(lambda w: stepper.rhs(*w), y, f, h, opts)
        if not jac:
            jac.append(stepper.make_jac())
        return rodas4.attempt(stepper.rhs, jac[0], y, f, h, at, rt)

    def step():
        """(segment, attempts, stiff) of one accepted step; no segment at a
        floor."""
        t, y, f = stepper.t, stepper.y, stepper.f
        rate = 0.0 if df1_dx1 is None else -df1_dx1(*y)
        tries = 0
        while True:
            h = min(stepper.h, t1 - t)
            if h < stepper.min_step and h < t1 - t or t + h == t:
                return None, tries, False
            stiff = h * rate > 3.3
            tries += 1
            y_new, f_new, err = attempt(stiff, h, y, f)
            ok = err <= 1.0 and all(v == v for v in y_new)
            if ok and stiff and not h * -df1_dx1(*y_new) > 3.3:
                counts["redo"] += 1
                stiff = False
                tries += 1
                y_new, f_new, err = attempt(stiff, h, y, f)
                ok = err <= 1.0 and all(v == v for v in y_new)
            power = -0.25 if stiff else -0.2
            if ok:
                fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** power))
                stepper.t, stepper.y, stepper.f, stepper.h = t + h, y_new, f_new, h * fac
                return (t, y, f, t + h, y_new, f_new), tries, stiff
            counts["rejected-rodas4"] += stiff
            stepper.h = h * (max(0.2, 0.9 * err ** power) if err > 1.0 else 0.2)

    if not traj:
        traj.append(stepper.t, stepper.y, stepper.f, tag(stepper.y))
    meta = traj.meta
    steps, attempts = meta.get("steps", 0), meta.get("attempts", 0)
    rosenbrock = meta.get("rosenbrock_steps", 0)
    flagged = None
    while stepper.t < t1:
        if steps >= integrate.MAX_STEPS:
            meta["aborted"] = "budget"
            break
        seg, tries, stiff = step()
        attempts += tries
        if seg is None:
            traj.add_event(stepper.t, "step-floor", stepper.y)
            meta["aborted"] = "step-floor"
            break
        steps += 1
        rosenbrock += stiff
        if every or side or blowup and not -1.0 < seg[4][0] < 1.0:
            flagged = seg
            break
        traj.append(seg[3], seg[4], seg[5], tag(seg[4]))
    meta["steps"], meta["attempts"], meta["rosenbrock_steps"] = steps, attempts, rosenbrock
    return flagged


def snapshot(traj):
    """Everything a run leaves, comparable bit for bit."""
    return ([bytes(col) for col in (traj.times, *traj.columns, *traj._f, traj.lams)],
            list(traj._modes), repr(sorted(traj._f_in.items())), repr(traj.events),
            repr(sorted(traj.meta.items())))


def assert_fused_matches_reference(monkeypatch, run, counts=None):
    fused = run()
    with monkeypatch.context() as patched:
        patched.setattr(integrate, "_dp54_run",
                        functools.partial(reference_dp54_run, counts=counts))
        reference = run()
    assert snapshot(fused) == snapshot(reference)
    return fused


@pytest.mark.parametrize("name", ["example-i", "example-ii", "example-iii"])
def test_fused_filippov_runs_match_the_reference_loop(monkeypatch, name):
    sc = builtin(name)
    traj = assert_fused_matches_reference(
        monkeypatch, lambda: integrate_filippov(sc.system, sc.x0, (0.0, 100.0)))
    assert traj.t_end == 100.0 and len(events_of_kind(traj, "crossing")) > 2


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", ["visible-nf", "invisible-nf", "mixed-nf", "two-fold-slide"])
def test_fused_normal_form_runs_match_the_reference_loop(monkeypatch, name, policy):
    opts = IntegratorOptions(repelling_policy=policy)
    if name == "two-fold-slide":
        # the attracting slide into the two-fold, where the two-fold step
        # cap binds: the slide sets it on stepper.h before each fused call,
        # the reference's `step` takes min(h, t1 - t) of that same h
        sys, starts, t_end = nf(1, 1, -2.0, -2.0, 0.0), [(0.0, 1.0, 1.0)], 5.0
    else:
        sc = builtin(name)
        sys, starts, t_end = sc.system, [sc.x0, (0.3, -1.0, 0.5), (-0.2, 0.7, -1.2)], 10.0
    for x0 in starts:
        traj = assert_fused_matches_reference(
            monkeypatch, lambda: integrate_filippov(sys, x0, (0.0, t_end), opts))
    if name == "two-fold-slide":
        hits = events_of_kind(traj, "two-fold-hit")
        assert len(hits) == 1 and hits[0].t == pytest.approx(2.0, abs=1e-6)


def random_field(rng):
    """A field whose components are each 1-3 terms: a coefficient times one
    of 1, x1, x2, x3, x2 x3 or x3^2."""
    return parse_field(*("+".join(f"{rng.choice(('1', '2', '1/2', '3/10', '-1', '-2'))}"
                                  f"*{rng.choice(('1', 'x1', 'x2', 'x3', 'x2*x3', 'x3*x3'))}"
                                  for _ in range(rng.randint(1, 3)))
                         for _ in range(3)))


def test_fused_runs_of_random_systems_match_the_reference_loop(monkeypatch):
    # 40 drawn systems from starts on or near the surface, under every
    # policy: slides, slide exits, crossings and step floors all occur, and
    # draws that blow up in finite time end at the budget and are compared
    # there
    monkeypatch.setattr(integrate, "MAX_STEPS", 2000)
    rng = random.Random(0)
    runs = sliding = 0
    for _ in range(40):
        sys = PiecewiseSmoothSystem(random_field(rng), random_field(rng),
                                    parse_field(rng.choice(("1/5", "-1/5", "x2", "0")), "0", "0"))
        x0 = (rng.choice((0.0, 0.1, -0.1)), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for policy in POLICIES:
            opts = IntegratorOptions(repelling_policy=policy)
            traj = assert_fused_matches_reference(
                monkeypatch, lambda: integrate_filippov(sys, x0, (0.0, 5.0), opts))
            runs += 1
            sliding += traj._modes.count("sliding")
    assert runs == 120 and sliding > 5000, sliding


@pytest.mark.parametrize("y0, t_end, exits", [
    ((0.0, 1.0, -1.0), 1.0, True),
    ((0.5, 1.0, 1.0), 2.0, False),
    ((-0.8, 0.0, 0.0), 1e-4, False),
    ((1.0, 1.0, -1.0), 1.0, True),
])
def test_fused_blowups_match_the_reference_loop(monkeypatch, y0, t_end, exits):
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    traj = assert_fused_matches_reference(
        monkeypatch, lambda: integrate_blowup(sys, 1e-3, y0, (0.0, t_end)))
    assert ("boundary_exit" in traj.meta) == exits and (traj.t_end < t_end) == exits
    # the fused and the reference loop share the relabel: every sample is a
    # layer sample whose lambda is its first coordinate, bit for bit
    assert set(traj._modes) == {LAYER}
    assert bytes(traj.lams) == bytes(traj.columns[0])


def test_fused_smooth_runs_match_the_reference_loop(monkeypatch):
    # the harmonic oscillator's x1 changes sign, so both tags occur
    fld = parse_field("x2", "-x1", "0")
    traj = assert_fused_matches_reference(
        monkeypatch, lambda: integrate_smooth(fld, (1.0, 0.0, 0.0), (0.0, 20.0)))
    assert {traj.mode(i) for i in range(len(traj))} == {FLOW_PLUS, FLOW_MINUS}


@pytest.mark.parametrize("kind", ["smooth", "filippov", "blowup"])
def test_fused_budget_exit_matches_the_reference_loop(monkeypatch, kind):
    monkeypatch.setattr(integrate, "MAX_STEPS", 7)
    sc = builtin("example-iii")
    run = {"smooth": lambda: integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0),
                                              (0.0, 100.0)),
           "filippov": lambda: integrate_filippov(sc.system, sc.x0, (0.0, 100.0)),
           "blowup": lambda: integrate_blowup(nf(1, 1, -2.0, -2.0, 0.2), 1e-3,
                                              (0.5, 1.0, 1.0), (0.0, 2.0))}[kind]
    traj = assert_fused_matches_reference(monkeypatch, run)
    assert traj.meta["aborted"] == "budget" and traj.meta["steps"] == 7


def test_fused_step_floor_matches_the_reference_loop(monkeypatch):
    # x1' = x1^2 from x1 = 1 blows up at t = 1, where the steps shrink
    # below min_step; the blow-up's attempts all overflow to NaN states
    field = parse_field("x1*x1", "0", "1")
    sys = PiecewiseSmoothSystem(field, field)
    flow = assert_fused_matches_reference(
        monkeypatch, lambda: integrate_filippov(sys, (1.0, 0.0, 0.0), (0.0, 2.0),
                                                IntegratorOptions(min_step=1e-6)))
    blowup = assert_fused_matches_reference(
        monkeypatch, lambda: integrate_blowup(nf(1, -1, 0.0, -2.0, 1e308), 1e-3,
                                              (1.0, 1e10, 1.0), (0.0, 0.5)))
    for traj in (flow, blowup):
        assert traj.meta["aborted"] == "step-floor" and traj.events[-1].kind == "step-floor"
    assert 0.99 < flow.t_end < 1.0 and len(blowup) == 1


def test_fused_grazing_start_is_sampled_and_goes_on(monkeypatch):
    # from x1 = 0 with x1' = x2 = 1 on both sides the run crosses at once;
    # the flow's first step starts on the surface, so its hull test flags
    # it, and the scan finds no new crossing there
    field = parse_field("x2", "1", "0")
    sys = PiecewiseSmoothSystem(field, field)
    traj = assert_fused_matches_reference(
        monkeypatch, lambda: integrate_filippov(sys, (0.0, 1.0, 0.0), (0.0, 1.0)))
    assert [e.kind for e in traj.events] == ["crossing"] and traj.t_end == 1.0
    assert len(traj) == traj.meta["steps"] + 1 > 2


@pytest.mark.parametrize("name", ["example-i", "example-iii"])
def test_fused_steps_match_the_reference_attempt(name):
    # one step of size h to t = h: where the first attempt passes, the
    # sample is `reference_attempt`'s state and derivative, bit for bit
    rng = random.Random(f"fused-{name}")
    sys = builtin(name).system
    checked = 0
    for sigmoid in ("tanh", "sqrt"):
        fn = compile_layer(sys, SIGMOIDS[sigmoid][0](1e-3))
        for _ in range(100):
            y0 = (rng.uniform(-1e-2, 1e-2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            opts = IntegratorOptions(rel_tol=10.0 ** rng.uniform(-10, -4),
                                     abs_tol=10.0 ** rng.uniform(-12, -6))
            h = 10.0 ** rng.uniform(-7, -3)
            traj = Trajectory()
            stepper = _Stepper(fn, 0.0, y0, opts, h=h)
            assert _dp54_run(traj, stepper, h) is None
            if traj.meta["attempts"] == 1:
                want = reference_attempt(lambda y: fn(*y), y0, fn(*y0), h, opts)
                got = (traj.state(1), tuple(col[1] for col in traj._f))
                for g, w in zip(got, want[:2]):
                    assert all(same_bits(a, b) for a, b in zip(g, w)), (y0, h, g, w)
                checked += 1
    assert checked > 50


def test_rhs_calls_are_one_plus_six_per_attempt():
    calls = 0
    fn = parse_field("x2", "-x1", "x1*x2").fn

    def counted(x1, x2, x3):
        nonlocal calls
        calls += 1
        return fn(x1, x2, x3)
    traj = integrate_smooth(types.SimpleNamespace(fn=counted), (1.0, 0.0, 0.0), (0.0, 20.0),
                            IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13))
    attempts = traj.meta["attempts"]
    assert calls == 1 + 6 * attempts and attempts > traj.meta["steps"] > 0


def test_every_integrator_counts_its_attempts():
    sc = builtin("example-ii")
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    runs = (integrate_filippov(sc.system, sc.x0, (0.0, 50.0)),
            integrate_filippov(sys, (0.0, 1.0, 1.0), (0.0, 5.0)),
            integrate_blowup(sys, 1e-3, (0.0, 1.0, -1.0), (0.0, 1.0)),
            integrate_smoothed(sc.system, "tanh", 1e-3, sc.x0, (0.0, 20.0)))
    for traj in runs:
        assert traj.meta["attempts"] >= traj.meta["steps"] > 0
    assert runs[-1].meta["rosenbrock_steps"] > 0


# ------------------------------------------------------------ Filippov

def test_attracting_slide_reaches_two_fold_and_breaks_determinacy():
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.0, 1.0, 1.0), (0.0, 5.0))
    hits = events_of_kind(traj, "two-fold-hit")
    breaks = events_of_kind(traj, "determinacy-break")
    assert len(hits) == 1 and len(breaks) == 1
    # straight slide at lam = 0 covers distance 1 at speed 1/2 in each slot
    assert hits[0].t == pytest.approx(2.0, abs=1e-6)
    assert traj.final_state == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)
    # sliding samples respect the surface and the sliding equation
    for i in range(len(traj)):
        if traj.mode(i) == "sliding":
            assert abs(traj.state(i)[0]) <= 1e-10
            lam = traj.lams[i]
            assert -1.0 <= lam <= 1.0
            assert abs(sys.f1_surface(traj.state(i)[1], traj.state(i)[2], lam)) <= 1e-9


@pytest.mark.parametrize("name, x0, t_end", [
    ("visible-nf", (0.0, 1.0, 1.0), 10.0),
    ("mixed-nf", (0.0, 1.0, 1.0), 10.0),
    ("example-ii", (0.1, 0.5, 0.5), 100.0),
])
def test_slide_samples_sit_exactly_on_the_surface(name, x0, t_end):
    # samples the slide stepper writes carry x1 = +0.0 in the state and in
    # both derivatives; an entry sample keeps the located crossing state
    # and the incoming flow, so only samples after it are checked
    traj = integrate_filippov(builtin(name).system, x0, (0.0, t_end))
    checked = 0
    for i in range(1, len(traj)):
        if traj.mode(i) == "sliding" and traj.mode(i - 1) == "sliding":
            f_in = traj._f_in[i][0] if i in traj._f_in else traj._f[0][i]
            for v in (traj._y[0][i], f_in, traj._f[0][i]):
                assert same_bits(v, 0.0), (i, v)
            checked += 1
    assert checked >= 15


def test_slide_lambda_matches_closed_form_alpha_zero():
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.0, 1.0, 2.0), (0.0, 1.0))
    for i in range(len(traj)):
        if traj.mode(i) == "sliding" and traj.times[i] > 0:
            _, x2, x3 = traj.state(i)
            assert traj.lams[i] == pytest.approx((x3 - x2) / (x3 + x2), abs=1e-9)


def test_single_crossing_event_accuracy():
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.1, 1.0, -1.0), (0.0, 0.5))
    crossings = events_of_kind(traj, "crossing")
    assert len(crossings) == 1
    e = crossings[0]
    assert abs(traj.eval(e.t)[0]) <= 1e-12
    assert abs(e.state[0]) <= 1e-12
    # after the crossing the run continues on the minus side
    assert traj.final_state[0] < 0


def polynomial_segment(p, dp, t0, t1):
    """Flow segment whose x1 Hermite cubic is the polynomial p (degree <= 3,
    so the cubic reproduces it exactly); x2 and x3 are constant."""
    return (t0, (p(t0), 0.5, -0.5), (dp(t0), 0.0, 0.0),
            t1, (p(t1), 0.5, -0.5), (dp(t1), 0.0, 0.0))


def test_surface_crossing_finds_a_dip_between_two_plus_side_ends():
    # x1 = 4 (t - 2.15)(t - 2.3) is positive at both ends of [2, 2.5] and
    # dips to -0.0225 in between; the crossing is the dip's first root
    seg = polynomial_segment(lambda t: 4.0 * (t - 2.15) * (t - 2.3),
                             lambda t: 4.0 * (2.0 * t - 4.45), 2.0, 2.5)
    assert seg[1][0] > 0.0 and seg[4][0] > 0.0
    # the Bernstein control point x1(t0) + h x1'(t0)/3 lies off the plus
    # side, so the hull test must fall through to the scan
    assert seg[1][0] + (seg[3] - seg[0]) * seg[2][0] / 3.0 < 0.0
    t_star, y_star = _surface_crossing(seg, 1)
    assert t_star == pytest.approx(2.15, abs=1e-12)
    assert abs(y_star[0]) <= 1e-12 and y_star[1:] == pytest.approx((0.5, -0.5))


def test_surface_crossing_takes_the_earliest_of_three_roots():
    # x1 = -(s - 0.2)(s - 0.5)(s - 0.8) on [0, 1] crosses at s = 0.2, 0.5, 0.8
    roots = (0.2, 0.5, 0.8)
    seg = polynomial_segment(
        lambda t: -math.prod(t - r for r in roots),
        lambda t: -sum(math.prod(t - r for r in roots if r != q) for q in roots),
        0.0, 1.0)
    assert seg[1][0] > 0.0 > seg[4][0]
    t_star, _ = _surface_crossing(seg, 1)
    assert t_star == pytest.approx(0.2, abs=1e-12)


def test_surface_crossing_brackets_from_the_first_point_off_the_surface():
    # a segment that starts on x1 = 0, as after a slide exit, must not find
    # its own start, which would restart the run there forever: x1 =
    # s (0.5 - s) rises, turns at s = 0.25 and crosses at s = 0.5.  Seen
    # from the minus side it goes beyond the surface at once, with no point
    # on its own side before, so it has no crossing bracket
    seg = polynomial_segment(lambda t: t * (0.5 - t), lambda t: 0.5 - 2.0 * t, 0.0, 1.0)
    t_star, _ = _surface_crossing(seg, 1)
    assert t_star == pytest.approx(0.5, abs=1e-12)
    assert _surface_crossing(seg, -1) is None


def test_flow_steps_inside_the_hull_skip_the_scan(monkeypatch):
    # x1' = x2, x2' = 1 on both sides.  From (1, 0, 0), x1 = 1 + t^2/2 keeps
    # every control point of every step on the plus side, so the fused
    # loop's hull test flags no step and the scan never runs.  From
    # (0.0042, -0.09, 0), x1 dips to 1.5e-4 inside the step [0.031, 0.156],
    # whose second control point lies below the surface: that one step is
    # scanned, does not cross, and is sampled like any other.  A start
    # 2e-12 off the surface at x1' = 1e5 stays inside the hull too, but
    # within its rounding margin: the first step is scanned
    scanned = []

    def scan(seg, side):
        scanned.append((seg[0], seg[3]))
        return _surface_crossing(seg, side)
    monkeypatch.setattr(integrate, "_surface_crossing", scan)
    field = parse_field("x2", "1", "0")
    sys = PiecewiseSmoothSystem(field, field)
    far = integrate_filippov(sys, (1.0, 0.0, 0.0), (0.0, 1.0))
    assert scanned == [] and far.t_end == 1.0 and not far.events
    dip = integrate_filippov(sys, (0.0042, -0.09, 0.0), (0.0, 1.0))
    assert scanned == [(0.031, 0.156)] and not dip.events
    assert dip.t_end == 1.0 and 0.156 in dip.times and len(dip) == dip.meta["steps"] + 1
    for side in (1, -1):
        scanned.clear()
        field = parse_field(f"{side * 100000}", "1", "0")
        near = integrate_filippov(PiecewiseSmoothSystem(field, field), (side * 2e-12, 0.0, 0.0),
                                  (0.0, 1.0))
        assert scanned == [(0.0, 0.001)] and not near.events and near.t_end == 1.0


# ---- the locator's oracle: the extrema scan with no hull test, and plain
# halving of the whole bracket, as they stood before the Illinois narrowing

def oracle_bisect(seg, scalar, t_lo=None, t_hi=None, on_first=False):
    dense = (lambda seg, t: _hermite(seg, t)[0]) if on_first else _hermite

    def end_value(t, y):
        return scalar(dense(seg, t) if y is None else (y[0] if on_first else y))

    y_lo = seg[1] if t_lo is None else None
    y_hi = seg[4] if t_hi is None else None
    t_lo = seg[0] if t_lo is None else t_lo
    t_hi = seg[3] if t_hi is None else t_hi
    v_lo = end_value(t_lo, y_lo)
    v_hi = end_value(t_hi, y_hi)
    if v_lo == 0.0:
        return t_lo, y_lo or _hermite(seg, t_lo)
    if v_hi == 0.0:
        return t_hi, y_hi or _hermite(seg, t_hi)
    if (v_lo > 0.0) == (v_hi > 0.0):
        raise NonconvergentEventError("no sign change in event bracket")
    for _ in range(BISECT_MAX_ITER):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:
            return t_mid, _hermite(seg, t_mid)
        v_mid = scalar(dense(seg, t_mid))
        if v_mid == 0.0:
            return t_mid, _hermite(seg, t_mid)
        if (v_mid > 0.0) == (v_lo > 0.0):
            t_lo, v_lo = t_mid, v_mid
        else:
            t_hi, v_hi = t_mid, v_mid
    raise NonconvergentEventError(
        f"event bisection did not converge ({BISECT_MAX_ITER} iterations)")


def oracle_crossing(seg, side, tol):
    t0, y0, f0, t1, y1, f1 = seg
    h = t1 - t0
    x1_old, x1_end = y0[0], y1[0]
    d0, d1 = h * f0[0], h * f1[0]
    a = 6.0 * x1_old + 3.0 * d0 - 6.0 * x1_end + 3.0 * d1
    b = -6.0 * x1_old - 4.0 * d0 + 6.0 * x1_end - 2.0 * d1
    extrema = sorted(t for t in (t0 + s * h for s, _ in quadratic_roots(a, b, d0, 0.0))
                     if t0 < t < t1)
    t_lo = t0 if side * x1_old > 0.0 else None
    for t_c in extrema + [None]:
        x1_new = x1_end if t_c is None else _hermite(seg, t_c)[0]
        if side * x1_new > 0.0:
            t_lo = t_c
        elif t_lo is not None and (side * x1_new <= -tol or x1_new == 0.0):
            return oracle_bisect(seg, lambda x1: x1, t_lo, t_c, on_first=True)
    return None


def outcome(fn, *args, **kwargs):
    """A result or a raised locator error, comparable bit for bit."""
    try:
        return repr(fn(*args, **kwargs))
    except NonconvergentEventError as exc:
        return f"raised {exc}"


def scaled(lo, hi):
    """Floats in [lo, hi] times 1, 1e-3, 1e3 or 1e6: |x1| up to 1e6."""
    return st.builds(lambda v, k: v * k, st.floats(lo, hi), st.sampled_from((1.0, 1e-3, 1e3, 1e6)))


def monotone_slopes(draw, p0, p1, h):
    """End slopes that keep the Hermite cubic from p0 to p1 monotone: its
    derivative's Bernstein coefficients k0 D, (3 - k0 - k1) D and k1 D,
    D = p1 - p0, share one sign when k0 + k1 < 3."""
    k0, k1 = draw(st.floats(0.01, 1.49)), draw(st.floats(0.01, 1.49))
    return k0 * (p1 - p0) / h, k1 * (p1 - p0) / h


@st.composite
def hermite_segments(draw):
    """Flow segments whose first component is a Hermite cubic: random, or
    starting exactly on the surface, or grazing it with two roots in the
    step, or crossing it monotonically, the common case in a run."""
    t0 = draw(st.sampled_from((0.0, 1e-3, 7.5, 500.0)) | st.floats(0.0, 1e3))
    h = draw(st.floats(1e-6, 10.0))
    t1 = t0 + h
    kind = draw(st.sampled_from(("random", "surface-start", "grazing", "transversal")))
    if kind == "grazing":
        # c (t - r1) (t - r2) with both roots inside the step
        c = draw(scaled(-1.0, 1.0).filter(lambda v: v != 0.0))
        r1, r2 = sorted(t0 + h * draw(st.floats(0.01, 0.99)) for _ in range(2))
        p = lambda t: c * (t - r1) * (t - r2)
        dp = lambda t: c * (2.0 * t - r1 - r2)
        p0, q0, p1, q1 = p(t0), dp(t0), p(t1), dp(t1)
    elif kind == "transversal":
        p0 = draw(scaled(0.0, 1.0))
        p1 = -draw(scaled(0.0, 1.0))
        if draw(st.booleans()):
            p0, p1 = p1, p0
        q0, q1 = monotone_slopes(draw, p0, p1, h)
    else:
        p0 = 0.0 if kind == "surface-start" else draw(scaled(-1.0, 1.0))
        p1, q0, q1 = (draw(scaled(-1.0, 1.0)) for _ in range(3))
    rest = st.floats(-10.0, 10.0)
    return (t0, (p0, draw(rest), draw(rest)), (q0, draw(rest), draw(rest)),
            t1, (p1, draw(rest), draw(rest)), (q1, draw(rest), draw(rest)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(seg=hermite_segments(), side=st.sampled_from((1, -1)))
def test_surface_crossing_matches_the_plain_scan(seg, side):
    assert outcome(_surface_crossing, seg, side) == outcome(oracle_crossing, seg, side, 1e-12)


@st.composite
def boundary_segments(draw):
    """Blow-up steps whose lam leaves [-1, 1]: (segment, boundary scalar)."""
    t0 = draw(st.sampled_from((0.0, 3.25)) | st.floats(0.0, 100.0))
    h = draw(st.floats(1e-8, 1.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    lam0 = sign * draw(st.floats(-1.0, 1.0, exclude_max=True))
    lam1 = sign * draw(st.floats(1.0, 1.5))
    if draw(st.booleans()):
        q0, q1 = monotone_slopes(draw, lam0, lam1, h)
    else:
        q0, q1 = (draw(scaled(-1.0, 1.0)) for _ in range(2))
    scalar = (lambda lam: 1.0 - lam) if sign > 0 else (lambda lam: lam + 1.0)
    return (t0, (lam0, 1.0, -1.0), (q0, 0.5, 0.5),
            t0 + h, (lam1, 1.0, -1.0), (q1, 0.5, 0.5)), scalar


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=boundary_segments())
def test_boundary_exit_matches_plain_halving(case):
    seg, scalar = case
    assert outcome(_bisect_event, seg, lambda t: scalar(_hermite(seg, t)[0]),
                   seg[0], scalar(seg[1][0]),
                   seg[3], scalar(seg[4][0]), _monotone_noise(seg)) == \
        outcome(oracle_bisect, seg, scalar, on_first=True)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seg=hermite_segments())
# monotone crossings early in a run, where the computed sign of x1 flips
# within a few ulps of the root: a narrowing that took the sign of a probe in
# that band at face value would return a neighbouring float
@example(seg=(0.0, (-6.106247234207582, 0.0, 0.0), (13729.773612711348, 0.0, 0.0),
              0.0008342815213704032, (8.81012751972784, 0.0, 0.0),
              (5574.031059186792, 0.0, 0.0)))
@example(seg=(0.001, (-0.00019086293907991382, 0.0, 0.0), (0.00976743929651514, 0.0, 0.0),
              0.3474136854418032, (0.002956136295083517, 0.0, 0.0),
              (0.005121943806421111, 0.0, 0.0)))
@example(seg=(0.0, (-0.6886451445316484, 0.0, 0.0), (6.955866993450119, 0.0, 0.0),
              0.18374267021837581, (0.6911799348376542, 0.0, 0.0),
              (5.0374748531205125, 0.0, 0.0)))
def test_whole_step_locator_matches_plain_halving(seg):
    # over the whole step, on x1 alone and on the full state
    assert outcome(_bisect_event, seg, lambda t: _hermite(seg, t)[0], seg[0], seg[1][0],
                   seg[3], seg[4][0], _monotone_noise(seg)) == \
        outcome(oracle_bisect, seg, lambda x1: x1, on_first=True)
    assert outcome(_bisect_event, seg, lambda t: _hermite(seg, t)[0], seg[0], seg[1][0],
                   seg[3], seg[4][0], None) == \
        outcome(oracle_bisect, seg, lambda w: w[0])


def test_filippov_finds_a_shallow_dip_inside_one_natural_step():
    # x1' = x2, x2' = 1 on both sides: x1 = x10 + x20 t + t^2/2 exactly, and
    # from x10 = 0.00395, x20 = -0.09 it dips to -1e-4 and back on
    # t = 0.09 -+ sqrt(2e-4).  DP54 is exact on this field, so its steps grow
    # fivefold from 1e-3 and the whole dip sits inside the fourth step
    # [0.031, 0.156]; only the interior extremum shows it
    field = parse_field("x2", "1", "0")
    sys = PiecewiseSmoothSystem(field, field)
    x10, x20 = 0.00395, -0.09
    traj = integrate_filippov(sys, (x10, x20, 0.0), (0.0, 1.0))
    root = math.sqrt(x20 * x20 - 2.0 * x10)
    crossings = events_of_kind(traj, "crossing")
    assert [e.t for e in crossings] == pytest.approx([-x20 - root, -x20 + root], abs=1e-12)
    # a work bound: 13 steps, as each of the three flow segments starts again
    # at h = 1e-3; a 1e-3 step cap while |x1| < 0.01 takes 237
    assert traj.meta["steps"] <= 20
    assert traj.final_state == pytest.approx((x10 + x20 + 0.5, x20 + 1.0, 0.0), abs=1e-12)


def test_visible_slide_exits_at_fold_line():
    sys = nf(-1, -1, 0.0, 0.0, 0.0)
    traj = integrate_filippov(sys, (0.0, 1.0, 2.0), (0.0, 3.0))
    exits = events_of_kind(traj, "slide-exit")
    assert len(exits) == 1
    e = exits[0]
    assert abs(e.state[1]) <= 1e-9          # fold line x2 = 0, where lam = +1
    assert traj.final_state[0] > 0          # tangential launch into x1 > 0
    modes = [traj.mode(i) for i in range(len(traj))]
    assert "sliding" in modes and "flow+" in modes


def test_invisible_slide_does_not_exit_at_fold_line():
    # same geometry but invisible curvature: the slide pushes x2 back up and
    # the boundary root grazes lam = +1 without lift-off
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.0, 0.2, 2.0), (0.0, 1.5))
    assert events_of_kind(traj, "slide-exit") == []
    assert all(traj.mode(i) == "sliding" for i in range(len(traj)))


def test_mode_changes_only_at_events():
    sys = nf(-1, -1, 0.0, 0.0, 0.0)
    traj = integrate_filippov(sys, (0.5, 1.0, 2.0), (0.0, 3.0))
    event_times = {e.t for e in traj.events}
    for i in range(1, len(traj)):
        if traj.mode(i) != traj.mode(i - 1):
            assert traj.times[i] in event_times


def test_event_log_reconstructs_mode_sequence():
    # replaying the event log must give exactly the observed mode runs:
    # crossing flips the flow side, slide-entry opens a sliding run,
    # slide-exit closes it into a flow run
    sys = nf(-1, -1, 0.0, 0.0, 0.0)
    traj = integrate_filippov(sys, (0.5, 1.0, 2.0), (0.0, 3.0))
    runs = []
    for i in range(len(traj)):
        if not runs or traj.mode(i) != runs[-1]:
            runs.append(traj.mode(i))
    replay = [traj.mode(0)]
    for e in traj.events:
        if e.kind == "crossing":
            replay.append("flow-" if replay[-1] == "flow+" else "flow+")
        elif e.kind == "slide-entry":
            replay.append("sliding")
        elif e.kind == "slide-exit":
            # destination side is the sign of x1 right after the exit sample
            idx = next(i for i in range(len(traj)) if traj.times[i] >= e.t)
            nxt = traj.state(min(idx + 1, len(traj) - 1))[0]
            replay.append("flow+" if nxt >= 0 else "flow-")
    assert replay == runs


def test_repelling_default_stays_sliding():
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.0, -1.0, -1.0), (0.0, 1.0))
    assert events_of_kind(traj, "slide-exit") == []
    assert traj.mode(len(traj) - 1) == "sliding"
    # repelling slide moves away from the two-fold
    assert traj.final_state[1] < -1.0


def test_repelling_stay_leaves_branch_past_fold_line():
    # the repelling branch of the invisible normal form passes lam = -1 where
    # x3 turns positive; the minus field does not lift off, the plus field
    # points away, so the orbit crosses over instead of sliding on at lam < -1
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    traj = integrate_filippov(sys, (0.0, -0.5004, -0.5003), (0.0, 3.0))
    exits = events_of_kind(traj, "slide-exit")
    assert len(exits) == 1
    assert abs(exits[0].state[2]) <= 1e-9
    after = [i for i in range(len(traj)) if traj.times[i] > exits[0].t]
    assert after and all(traj.mode(i) == "flow+" for i in after)


def test_repelling_eject_plus():
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    opts = IntegratorOptions(repelling_policy=EJECT_PLUS)
    traj = integrate_filippov(sys, (0.0, -1.0, -1.0), (0.0, 1.0), opts)
    assert traj.final_state[0] > 0


# ---- the contact oracle: a sign ladder over f1 at lam = +1 and -1, each
# from a full layer evaluation, with its own tolerance

LADDER_TOL = 1e-12


def ladder_decide_surface(run, t, y, f_in=None):
    sys = run.sys
    sides = sys.f1_sides(y[1], y[2])
    fp = sys.f1_surface(y[1], y[2], 1.0)
    fm = sys.f1_surface(y[1], y[2], -1.0)
    tol = LADDER_TOL
    if abs(fp) <= tol and abs(fm) <= tol:
        return run._two_fold(t, y, f_in or (0.0, 0.0, 0.0), math.nan, f_in)
    if fp < -tol < tol < fm:
        return run.enter_sliding(t, y, sides, attracting=True, f_in=f_in)
    if fm < -tol < tol < fp:
        policy = run.opts.repelling_policy
        if policy != STAY_SLIDING:
            return run._flow_from(t, y, 1 if policy == EJECT_PLUS else -1, f_in)
        return run.enter_sliding(t, y, sides, attracting=False, f_in=f_in)
    if abs(fp) <= tol:
        if integrate._lifts_off(sys, y, 1):
            return run._flow_from(t, y, 1, f_in)
        return run.enter_sliding(t, y, sides, attracting=fm > 0, f_in=f_in)
    if abs(fm) <= tol:
        if integrate._lifts_off(sys, y, -1):
            return run._flow_from(t, y, -1, f_in)
        return run.enter_sliding(t, y, sides, attracting=fp < 0, f_in=f_in)
    return run._flow_from(t, y, 1 if fp > 0 else -1, f_in, "crossing")


def constant(k):
    """The float k, sign of zero included, as an expression node."""
    return Neg(Num(Fraction(-k))) if math.copysign(1.0, k) < 0 else Num(Fraction(k))


# zeros of both signs, the tolerance and its neighbouring floats, and
# magnitudes whose products overflow to inf (and, times a zero, to NaN)
EDGE_VALUES = tuple(s * v for s in (1.0, -1.0) for v in (
    0.0, CLASSIFY_TOL, math.nextafter(CLASSIFY_TOL, 0.0),
    math.nextafter(CLASSIFY_TOL, 1.0), 1.0, 1e300))
finite = st.floats(allow_nan=False, allow_infinity=False)


def record(traj):
    """Every float of the samples and events, as text (NaN and -0.0 kept)."""
    return repr((traj.times, traj.columns, traj._f, traj._f_in, traj.lams,
                 traj._modes, traj.events))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(k=st.tuples(*[st.sampled_from((1.0, -1.0, 0.0, -0.0, 1e300)) | finite] * 3),
       x2=st.sampled_from(EDGE_VALUES) | finite, x3=st.sampled_from(EDGE_VALUES) | finite,
       policy=st.sampled_from((STAY_SLIDING, EJECT_PLUS, EJECT_MINUS)),
       f_in=st.sampled_from((None, (0.5, -0.25, 2.0))))
@example(k=(1.0, 1.0, 1.0), x2=0.0, x3=-0.0, policy=STAY_SLIDING, f_in=None)
@example(k=(1.0, 1.0, 0.0), x2=CLASSIFY_TOL, x3=-1.0, policy=STAY_SLIDING, f_in=None)
@example(k=(-1.0, 1.0, 0.0), x2=-CLASSIFY_TOL, x3=1.0, policy=STAY_SLIDING, f_in=None)
@example(k=(1.0, 1.0, 0.0), x2=-1.0, x3=math.nextafter(CLASSIFY_TOL, 0.0),
         policy=STAY_SLIDING, f_in=None)
@example(k=(1.0, 1.0, 0.0), x2=1.0, x3=-1.0, policy=EJECT_MINUS, f_in=None)
@example(k=(1.0, 1.0, 0.0), x2=1e300, x3=1e300, policy=STAY_SLIDING, f_in=None)
def test_contact_decision_matches_the_sign_ladder(k, x2, x3, policy, f_in):
    # surface first components k1 x2, k2 x3 and k3 x2 x3 take the drawn
    # values; f2 and f3 make each side's lift-off test depend on k's signs
    kp, km, kg = map(constant, k)
    sys = PiecewiseSmoothSystem(SmoothField((Mul(kp, Var(2)), num(1), num(-1))),
                                SmoothField((Mul(km, Var(3)), num(-1), num(1))),
                                SmoothField((Mul(kg, Mul(Var(2), Var(3))), num(0), num(0))))
    y = (0.0, x2, x3)
    run, oracle = (integrate._FilippovRun(sys, IntegratorOptions(repelling_policy=policy),
                                          Trajectory(), 10.0) for _ in range(2))
    assert run.decide_surface(1.0, y, f_in) == ladder_decide_surface(oracle, 1.0, y, f_in)
    assert record(run.traj) == record(oracle.traj)


@pytest.mark.parametrize("stalled", [True, False])
def test_slide_event_where_the_boundary_root_grazes_lam_1(stalled):
    # at (0, 0, 0.5) the plus field does not lift off the surface and the
    # minus field does not point away from it, so the slide does not exit
    sys = PiecewiseSmoothSystem(parse_field("-x2", "1", "0"), parse_field("1", "0", "0"))
    traj = Trajectory()
    run = integrate._FilippovRun(sys, IntegratorOptions(), traj, 2.0)
    action = run._slide_event(0, 1.0, (0.0, 0.0, 0.5), 1, stalled=stalled)
    if stalled:
        # sliding on would restart at the same time forever: a step floor
        assert action is None and traj.meta["aborted"] == "step-floor"
        assert traj.events == [Event(1.0, "step-floor", (0.0, 0.0, 0.5))] and len(traj) == 0
    else:
        # the run records a sliding sample at lam = 1 and slides on
        assert action == ("slide", 1) and traj.events == [] and "aborted" not in traj.meta
        assert (list(traj.times), traj.mode(0), list(traj.lams), traj.state(0)) == (
            [1.0], "sliding", [1.0], (0.0, 0.0, 0.5))


# ---- the slide oracle: the quadratic, the tracked root and the monitor
# scalars as separate closures, each from its own surface evaluation

def oracle_f1_quadratic(sys, x2, x3):
    fp1, fm1, g1 = sys.f1_sides(x2, x3)
    return (-g1, 0.5 * (fp1 - fm1), 0.5 * (fp1 + fm1) + g1)


def oracle_discriminant(a, b, c):
    """(a, b, c, b^2 - 4ac); where that overflows, the same roots from a, b,
    c scaled by one power of two, the largest to [2^509, 2^510)."""
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc) and all(map(math.isfinite, (a, b, c))):
        e = 510 - math.frexp(max(map(abs, (a, b, c))))[1]
        a, b, c = (math.ldexp(v, e) for v in (a, b, c))
        disc = b * b - 4.0 * a * c
    return a, b, c, disc


def oracle_branch_lambda(sys, sigma, x2, x3):
    a, b, c = oracle_f1_quadratic(sys, x2, x3)
    if a == 0.0:
        if b == 0.0:
            return 0.0
        return -c / b
    a, b, c, disc = oracle_discriminant(a, b, c)
    if a == 0.0:
        # a underflowed in the scaling: the root within the float range
        return -c / b
    s = math.sqrt(max(disc, 0.0))
    # Citardauq: the root whose numerator would cancel comes from 2c over
    # the other numerator
    if b >= 0.0:
        q = -(b + s)
        r_minus, r_plus = q / (2.0 * a), (2.0 * c / q if q != 0.0 else -b / (2.0 * a))
    else:
        q = s - b
        r_minus, r_plus = 2.0 * c / q, q / (2.0 * a)
    return r_plus if sigma > 0 else r_minus


def oracle_slide_monitors(sys, sigma, w):
    def lam_of(w):
        return oracle_branch_lambda(sys, sigma, w[1], w[2])

    def disc_of(w):
        # 1.0 on the linear root, also where a underflows in the scaling
        a, b, c = oracle_f1_quadratic(sys, w[1], w[2])
        if a == 0.0:
            return 1.0
        a, _, _, disc = oracle_discriminant(a, b, c)
        return disc if a != 0.0 else 1.0

    scalars = [lambda w: 1.0 - lam_of(w), lambda w: lam_of(w) + 1.0, disc_of]
    if sys.params is not None:
        scalars.append(lambda w: max(abs(w[1]), abs(w[2])) - TWO_FOLD_TOL)
    return [g(w) for g in scalars]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(k=st.tuples(*[st.sampled_from((1.0, -1.0, 2.0, 0.0, -0.0, 1e300)) | finite] * 3),
       x2=st.sampled_from(EDGE_VALUES) | finite, x3=st.sampled_from(EDGE_VALUES) | finite,
       sigma=st.sampled_from((-1, 1)), normal_form=st.booleans())
# a = -0.0 and b = 0.0: the a = b = 0 root
@example(k=(1.0, 1.0, 0.0), x2=1.0, x3=1.0, sigma=-1, normal_form=False)
@example(k=(-0.0, 0.0, 1.0), x2=0.0, x3=-0.0, sigma=1, normal_form=True)
# a = 0, b != 0: the linear root and the disc monitor's 1.0
@example(k=(1.0, -1.0, 0.0), x2=0.5, x3=0.25, sigma=1, normal_form=False)
# a = 1, b = 0, c = 1: a negative discriminant, clamped at zero
@example(k=(2.0, 2.0, -1.0), x2=1.0, x3=1.0, sigma=-1, normal_form=False)
@example(k=(2.0, 2.0, -1.0), x2=1.0, x3=1.0, sigma=1, normal_form=True)
# b * b overflows to inf: both roots from the scaled quadratic
@example(k=(1e300, -1.0, 1.0), x2=1.0, x3=1.0, sigma=1, normal_form=False)
# b * b and 4 a c both overflow to inf: the discriminant inf - inf is NaN
@example(k=(1e308, -1e300, -1e300), x2=1.0, x3=1.0, sigma=-1, normal_form=False)
# a and c overflow to +inf and -inf: both roots are NaN
@example(k=(1.0, 1.0, 1.0), x2=1e300, x3=-1e300, sigma=1, normal_form=True)
# g1 = 0 * (1e300 * 1e300) is NaN
@example(k=(1.0, 1.0, 0.0), x2=1e300, x3=1e300, sigma=-1, normal_form=False)
# fp1 + fm1 overflows to inf, or halves a subnormal exactly
@example(k=(1e308, 1e308, 0.0), x2=1.0, x3=1.0, sigma=1, normal_form=False)
@example(k=(1.0, 1.0, 0.0), x2=5e-324, x3=5e-324, sigma=1, normal_form=False)
# a discriminant of -3.6e-301, clamped, and one of -1e-323, where 4 a c
# rounds differently from a c 4
@example(k=(1.0, 1.0, -9e149), x2=1e-150, x3=1e-150, sigma=-1, normal_form=False)
@example(k=(1.0003e-160, 1.0003e-160, -1e-160), x2=1.0, x3=1.0, sigma=1,
         normal_form=True)
def test_slide_quadratic_matches_the_separate_closures(k, x2, x3, sigma, normal_form):
    # surface first components k1 x2, k2 x3 and k3 x2 x3, as in the contact
    # property; params mark a normal form, which adds the two-fold monitor
    kp, km, kg = map(constant, k)
    sys = PiecewiseSmoothSystem(SmoothField((Mul(kp, Var(2)), num(1), num(-1))),
                                SmoothField((Mul(km, Var(3)), num(-1), num(1))),
                                SmoothField((Mul(kg, Mul(Var(2), Var(3))), num(0), num(0))),
                                TwoFoldParams(1, 1, 0.0, 0.0, 0.0) if normal_form else None)
    quadratic = surface_quadratic(*sys.f1_sides(x2, x3))
    assert repr(quadratic) == repr(oracle_f1_quadratic(sys, x2, x3))
    lam, a, _ = slide_root(*sys.f1_sides(x2, x3), sigma)
    assert repr(lam) == repr(oracle_branch_lambda(sys, sigma, x2, x3))
    assert repr(a) == repr(quadratic[0])
    w = (0.0, x2, x3)
    lam, scalars = _slide_monitors(sys, sigma, w)
    assert repr(lam) == repr(oracle_branch_lambda(sys, sigma, x2, x3))
    assert repr(list(scalars)) == repr(oracle_slide_monitors(sys, sigma, w))


def slide_exit_config(k):
    """{f_plus: (-x2, -1, -4), f_minus: (x3, -1, 1), hidden: (1/5, 0, 0)}
    with f1+, f1- and g1 times the integer k, written out as a literal."""
    return load_config({"f_plus": [f"-{k}*x2", "-1", "-4"], "f_minus": [f"{k}*x3", "-1", "1"],
                        "hidden": [f"{k}/5", "0", "0"]}).system


@pytest.mark.parametrize("power", [160, 200, 300])
def test_slide_exits_at_its_branch_fold_where_the_discriminant_overflows(power):
    # from (0, 1, 1) the attracting slide reaches its branch fold at t =
    # 0.6549, crosses and slides again from t = 0.8433.  With f1's terms
    # times 10^power, b*b - 4ac overflows; the monitor reads the discriminant
    # of the scaled quadratic, as the root does, and finds the same fold
    want = integrate_filippov(slide_exit_config(1), (0.0, 1.0, 1.0), (0.0, 0.9))
    got = integrate_filippov(slide_exit_config(10 ** power), (0.0, 1.0, 1.0), (0.0, 0.9))
    kinds = ["slide-entry", "slide-exit", "slide-entry"]
    assert [e.kind for e in got.events] == [e.kind for e in want.events] == kinds
    for e_got, e_want in zip(got.events, want.events):
        assert e_got.t == pytest.approx(e_want.t, abs=1e-9)
        assert e_got.state[1:] == pytest.approx(e_want.state[1:], abs=1e-9)
    assert got.t_end == 0.9 and "aborted" not in got.meta


def test_slide_evaluates_the_surface_once_per_accepted_state(monkeypatch):
    # at each accepted slide state the stepper's last stage and the event
    # monitor evaluate f1_sides; the sample's lam comes from the monitor's
    # evaluation, where a third call used to compute it again.  The two
    # states that bracket a located slide event are no exception: the
    # locator takes their values from the monitor
    sys = builtin("mixed-nf").system
    calls = {}
    f1_sides = sys.f1_sides
    bisect_event = integrate._bisect_event
    brackets = []

    def counted(x2, x3):
        calls[x2, x3] = calls.get((x2, x3), 0) + 1
        return f1_sides(x2, x3)

    def recorded(seg, *args, **kwargs):
        brackets.append(seg)
        return bisect_event(seg, *args, **kwargs)

    monkeypatch.setattr(sys, "f1_sides", counted)
    monkeypatch.setattr(integrate, "_bisect_event", recorded)
    traj = integrate_filippov(sys, (0.0, 1.0, 1.0), (0.0, 5.0))
    event_times = {e.t for e in traj.events}
    slide_states = [traj.state(i)[1:] for i in range(len(traj) - 1)
                    if traj.mode(i) == "sliding"
                    and not event_times & {traj.times[i], traj.times[i + 1]}]
    assert len(slide_states) > 20
    assert [calls[w] for w in slide_states] == [2] * len(slide_states)
    # a slide step holds x1 = +0.0 with x1' = 0.0 at both ends; this run
    # locates two slide exits, at t = 0.6549 and t = 1.0
    ends = [w[1:] for seg in brackets
            if seg[1][0] == seg[2][0] == seg[4][0] == seg[5][0] == 0.0
            for w in (seg[1], seg[4])]
    assert len(ends) == 4
    assert [calls[w] for w in ends] == [2] * len(ends)


# ---- the flow step size carried across events

def test_flow_segments_carry_the_step_size():
    # example-ii crosses the surface about 550 times by t = 500; restarting
    # every flow segment at h = 1e-3 took 8,717 accepted steps
    sc = builtin("example-ii")
    traj = integrate_filippov(sc.system, (0.1, 0.5, 0.5), (0.0, 500.0))
    assert traj.meta["steps"] < 8000


@pytest.mark.parametrize("name, worst", [("example-i", 2e-5), ("example-ii", 5.66e-2),
                                         ("example-iii", 1e-5)])
def test_carried_step_keeps_the_events_of_a_tight_run(name, worst):
    # the same events as at rel_tol 1e-12, and event times no further off
    # than with every segment restarted at h = 1e-3, which read 3.57e-5,
    # 5.66e-2 and 1.41e-5 (carrying h: 9.1e-6, 5.655e-2 and 6.0e-6).
    # example-ii's worst is its branch-fold slide exit, whose time converges
    # only like the square root of the tolerance
    sc = builtin(name)
    traj = integrate_filippov(sc.system, sc.x0, (0.0, 100.0))
    ref = integrate_filippov(sc.system, sc.x0, (0.0, 100.0),
                             IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14))
    assert [e.kind for e in traj.events] == [e.kind for e in ref.events]
    assert max(abs(a.t - b.t) for a, b in zip(traj.events, ref.events)) <= worst


def test_forward_only():
    with pytest.raises(ValueError):
        integrate_filippov(nf(1, 1, 0.0, 0.0, 0.0), (0.1, 1.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        integrate_smooth(parse_field("x2", "-x1", "0"), (1.0, 0.0, 0.0), (1.0, 0.0))
    for run in (lambda span: integrate_smoothed(nf(1, 1, 0.0, 0.0, 0.2), "tanh", 1e-3,
                                                (0.1, 1.0, 1.0), span),
                lambda span: integrate_blowup(nf(1, 1, 0.0, 0.0, 0.2), 1e-3,
                                              (0.0, 1.0, 1.0), span)):
        for span in ((1.0, 0.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match="integrate forward"):
                run(span)


# ------------------------------------------------------------ smoothed

def test_smoothed_field_matches_piecewise_outside_layer():
    sys = PiecewiseSmoothSystem(parse_field("-x2", "1+x1", "-7/5"),
                                parse_field("x3", "-9/10", "1-3/5*x1"),
                                parse_field("1/5", "0", "0"))
    eps = 1e-3
    rng = np.random.default_rng(42)
    for _ in range(200):
        x1 = rng.choice([-1, 1]) * rng.uniform(10 * eps, 1.0)
        x = (float(x1), float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        lam = math.tanh(x[0] / eps)
        smooth = sys.combination(x, lam)
        side = sys.f_plus.fn(*x) if x[0] > 0.0 else sys.f_minus.fn(*x)
        for a, b in zip(smooth, side):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_a_slide_at_rest_takes_no_two_fold_step_cap():
    # from (0, 1, 0.6) the attracting root is lam = 0, where the slide field
    # is exactly (0, 0): the two-fold cap has no speed to bound the step by
    sys = nf(1, 1, -1.0, -1.0, 0.2)
    assert sys.layer(0.0, 1.0, 0.6, 0.0) == (0.0, 0.0, 0.0)
    traj = integrate_filippov(sys, (0.0, 1.0, 0.6), (0.0, 1.0))
    assert traj.events == [Event(0.0, "slide-entry", (0.0, 1.0, 0.6))]
    assert traj.meta["steps"] == 6 and traj.t_end == 1.0
    assert {traj.state(i) for i in range(len(traj))} == {(0.0, 1.0, 0.6)}
    assert set(traj.lams) == {0.0}


def test_smoothed_tracks_filippov_slide():
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    ref = integrate_filippov(sys, (0.0, 1.0, 1.0), (0.0, 1.2))
    errs = []
    for eps in (1e-2, 1e-3):
        traj = integrate_smoothed(sys, "tanh", eps, (0.0, 1.0, 1.0), (0.0, 1.2))
        ts = np.linspace(0.05, 1.2, 120)
        worst = 0.0
        for t in ts:
            a = traj.eval(float(t))
            b = ref.eval(float(t))
            worst = max(worst, math.dist(a, b))
        errs.append(worst)
    assert 5.0 <= errs[0] / errs[1] <= 20.0, errs


def test_smoothed_layer_mode_tagging():
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    traj = integrate_smoothed(sys, "tanh", 1e-3, (0.1, 1.0, 1.0), (0.0, 1.0))
    saw_layer = saw_flow = False
    for i in range(len(traj)):
        x1 = traj.state(i)[0]
        if traj.mode(i) == "layer":
            saw_layer = True
            assert abs(x1) < 10e-3
            assert traj.lams[i] == pytest.approx(math.tanh(x1 / 1e-3), abs=1e-12)
        else:
            saw_flow = True
            assert traj.lams[i] != traj.lams[i]   # nan outside the layer
    assert saw_layer and saw_flow


def test_smoothed_sqrt_sigmoid_runs():
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    traj = integrate_smoothed(sys, "sqrt", 1e-3, (0.0, 1.0, 1.0), (0.0, 0.5))
    assert traj.t_end == pytest.approx(0.5)


def test_smoothed_step_floor_is_reported():
    sys = nf(1, 1, -2.0, -2.0, 0.2)
    opts = IntegratorOptions(min_step=1e-4)
    traj = integrate_smoothed(sys, "tanh", 1e-7, (0.0, 1.0, 1.0), (0.0, 1.0), opts)
    assert traj.meta.get("aborted") == "step-floor"
    assert len(events_of_kind(traj, "step-floor")) == 1


def dp54_smoothed(sys, sigmoid, eps, x0, t_end, opts=None):
    """A smoothed run on DP54 steps alone: the stepper gets no Jacobian."""
    rhs = compile_layer(sys, SIGMOIDS[sigmoid][0](eps))
    traj = Trajectory()
    _dp54_run(traj, _Stepper(rhs, 0.0, x0, opts or IntegratorOptions()), t_end)
    return traj


def first_crossing_after(traj, t_after):
    """Time of the first x1 sign change after t_after, bisected on the dense
    output of the step that holds it."""
    ts = traj.times
    for i in range(1, len(traj)):
        a, b = traj.state(i - 1)[0], traj.state(i)[0]
        if ts[i] > t_after and a * b < 0.0:
            lo, hi = ts[i - 1], ts[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if traj.eval(mid)[0] * a > 0.0 else (lo, mid)
            return lo
    return None


def test_rodas4_is_fourth_order_on_a_smooth_field():
    # identical sides and no hidden term: the smoothed field is f_plus itself
    # and compile_jacobian its exact Jacobian.  Fixed RODAS4 steps h, h/2,
    # h/4 against a tight DP54 run; order 4 divides the error by 16 per halving
    side = parse_field("x1*(1-x2)+1/5*x3", "x2*(x1-1)", "x1-x3*x2")
    sys = PiecewiseSmoothSystem(side, side)
    lam, dlam = SIGMOIDS["tanh"][0](0.1), SIGMOIDS["tanh"][1](0.1)
    rhs = compile_layer(sys, lam)
    jac, df1_dx1 = compile_jacobian(sys, lam, dlam), compile_df1_dx1(sys, lam, dlam)
    y0, t_end = (0.5, 1.5, 0.2), 2.0
    ref = integrate_smooth(side, y0, (0.0, t_end),
                           IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15)).final_state
    errs = []
    for n in (20, 40, 80):
        stepper = _Stepper(rhs, 0.0, y0, IntegratorOptions(), lambda: jac, df1_dx1)
        y, f = stepper.y, stepper.f
        for _ in range(n):
            y, f, _ = stepper._attempt(t_end / n, y, f)
        errs.append(max(abs(a - b) for a, b in zip(y, ref)))
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0, errs


def test_rodas4_attempt_of_a_subnormal_step_is_rejected_not_raised():
    # gamma * h underflows to 0 at h = 5e-324; 1/gamma/h is inf there, which
    # the singular-matrix check turns into a NaN state the loop rejects
    rhs = parse_field("-1000*x1", "x3", "-x2").fn
    jac = lambda x1, x2, x3: (-1000.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0)
    y = (1.0, 0.0, 1.0)
    y_new, f_new, err = rodas4.attempt(rhs, jac, y, rhs(*y), 5e-324, 1e-10, 1e-8)
    assert all(v != v for v in y_new)


def test_singular_rosenbrock_matrix_rejects_the_attempt(monkeypatch):
    # a NaN Jacobian makes every RODAS4 attempt singular, a NaN state that
    # the loop rejects with h * 0.2 until the step is small enough for DP54
    rhs = parse_field("-1000*x1", "x3", "-x2").fn
    nan_jac = lambda x1, x2, x3: (math.nan,) * 9
    stepper = _Stepper(rhs, 0.0, (1.0, 0.0, 1.0), IntegratorOptions(), lambda: nan_jac,
                       lambda x1, x2, x3: -1000.0, h=1.0)
    y_new, f_new, err = stepper._attempt(1.0, stepper.y, stepper.f)
    assert all(v != v for v in y_new) and f_new == stepper.f and err == 0.0
    monkeypatch.setattr(integrate, "MAX_STEPS", 1)
    traj = Trajectory()
    assert _dp54_run(traj, stepper, 10.0) is None and traj.meta["steps"] == 1
    assert traj.times[1] <= 0.2 ** 3 and traj.meta["rosenbrock_steps"] == 0
    assert traj.meta["attempts"] > 4 and all(math.isfinite(v) for v in traj.state(1))


def test_smoothed_runs_match_the_reference_loop(monkeypatch):
    # the stiff benchmark's runs: 301 RODAS4 steps on the attracting layer
    # (none in example-i's runs at eps 1e-3), one DP54 redo at the same h
    # where a RODAS4 step ends off it and two rejected RODAS4 attempts, with
    # the samples' layer tags and lam values
    counts, rosenbrock = Counter(), 0
    for name, sigmoid, eps in itertools.product(("example-i", "example-iii"),
                                                ("tanh", "sqrt"), (1e-3, 1e-4)):
        sc = builtin(name)
        traj = assert_fused_matches_reference(monkeypatch, lambda: integrate_smoothed(
            sc.system, sigmoid, eps, sc.x0, (0.0, 15.0)), counts)
        assert traj.meta["attempts"] >= traj.meta["steps"] > traj.meta["rosenbrock_steps"]
        assert LAYER in traj._modes and traj.t_end == 15.0
        rosenbrock += traj.meta["rosenbrock_steps"]
    assert rosenbrock > 250
    assert counts["redo"] > 0 and counts["rejected-rodas4"] > 0, counts


def test_smoothed_step_floor_and_rejections_match_the_reference_loop(monkeypatch):
    # a smoothed run that ends at a step floor on the layer; one on x1' =
    # -1000 x1 + x2^3 whose RODAS4 steps are rejected with 1 < err < 2
    # where they grow too fast (16 times); and one whose every RODAS4
    # attempt is singular: x1' = -1000 x1 makes each step with h > 3.3e-3
    # try RODAS4, which a NaN Jacobian rejects
    floor = assert_fused_matches_reference(monkeypatch, lambda: integrate_smoothed(
        nf(1, 1, -2.0, -2.0, 0.2), "tanh", 1e-7, (0.0, 1.0, 1.0), (0.0, 1.0),
        IntegratorOptions(min_step=1e-4)))
    assert floor.meta["aborted"] == "step-floor" and floor.events[-1].kind == "step-floor"
    side = parse_field("-1000*x1+x2*x2*x2", "x3", "-x2")
    counts = Counter()
    growth = assert_fused_matches_reference(monkeypatch, lambda: integrate_smoothed(
        PiecewiseSmoothSystem(side, side), "tanh", 1e-3, (1.0, 0.0, 1.0), (0.0, 10.0),
        IntegratorOptions(rel_tol=1e-6, abs_tol=1e-8)), counts)
    assert growth.meta["rosenbrock_steps"] > 100 and counts["rejected-rodas4"] > 10
    monkeypatch.setattr(integrate, "compile_jacobian",
                        lambda *args: lambda x1, x2, x3: (math.nan,) * 9)
    side = parse_field("-1000*x1", "x3", "-x2")
    counts = Counter()
    singular = assert_fused_matches_reference(monkeypatch, lambda: integrate_smoothed(
        PiecewiseSmoothSystem(side, side), "tanh", 1e-3, (1.0, 0.0, 1.0), (0.0, 1.0)), counts)
    assert singular.meta["rosenbrock_steps"] == 0 and singular.t_end == 1.0
    assert counts["rejected-rodas4"] > 1000


def test_stiff_layer_work_is_bounded():
    # DP54 alone takes thousands of steps here (its step count grows like
    # 1/eps); RODAS4 steps on the attracting layer do not
    sc = builtin("example-iii")
    traj = integrate_smoothed(sc.system, "tanh", 1e-4, sc.x0, (0.0, 15.0))
    assert traj.meta["steps"] <= 1000
    assert 0 < traj.meta["rosenbrock_steps"] < traj.meta["steps"]


def test_smoothed_run_leaves_the_layer_where_dp54_does():
    # an L-stable step past the fold would pin the orbit to the repelling
    # sheet (a numerical canard); the end-of-step test keeps the exit time
    # near that of a tight DP54 run (about 8.38)
    sc = builtin("example-ii")
    x0 = (0.1, 0.5, 0.5)
    ref = dp54_smoothed(sc.system, "tanh", 1e-3, x0, 12.0,
                        IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14))
    traj = integrate_smoothed(sc.system, "tanh", 1e-3, x0, (0.0, 12.0))
    assert traj.meta["rosenbrock_steps"] > 0
    t_ref = first_crossing_after(ref, 1.0)
    assert abs(first_crossing_after(traj, 1.0) - t_ref) <= 0.5, t_ref


def test_non_stiff_smoothed_run_takes_dp54_steps_only():
    sc = builtin("example-i")
    traj = integrate_smoothed(sc.system, "tanh", 0.1, sc.x0, (0.0, 50.0))
    ref = dp54_smoothed(sc.system, "tanh", 0.1, sc.x0, 50.0)
    assert traj.meta["rosenbrock_steps"] == 0
    assert list(traj.times) == list(ref.times)
    assert all(traj.state(i) == ref.state(i) for i in range(len(ref)))


def test_jacobian_is_compiled_at_the_first_stiff_step_only(monkeypatch):
    # a run that takes no RODAS4 step never compiles the Jacobian; one that
    # does compiles it once
    compiled = []

    def counting(*args):
        compiled.append(args)
        return compile_jacobian(*args)

    monkeypatch.setattr(integrate, "compile_jacobian", counting)
    sc = builtin("example-i")
    traj = integrate_smoothed(sc.system, "tanh", 0.1, sc.x0, (0.0, 50.0))
    assert traj.meta["rosenbrock_steps"] == 0 and compiled == []
    traj = integrate_smoothed(sc.system, "tanh", 1e-3, sc.x0, (0.0, 50.0))
    assert traj.meta["rosenbrock_steps"] > 0 and len(compiled) == 1


# ------------------------------------------------------------ blow-up

def test_blowup_two_fold_point_freezes_lambda_initially():
    # at the two-fold of the unperturbed system f1 vanishes for every lam,
    # so lam barely moves over a short window regardless of its start
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    for lam0 in (-0.8, 0.0, 0.5):
        traj = integrate_blowup(sys, 1e-3, (lam0, 0.0, 0.0), (0.0, 1e-4))
        assert abs(traj.lams[-1] - lam0) <= 1e-4
    # contrast: away from the two-fold lam relaxes fast
    traj = integrate_blowup(sys, 1e-3, (0.5, 1.0, 1.0), (0.0, 1e-4))
    assert abs(traj.lams[-1] - 0.5) > 1e-2


def test_blowup_tracks_sliding_manifold():
    p = TwoFoldParams(1, 1, -2.0, -2.0, 0.2)
    sys = normal_form_system(p)
    eps = 1e-3
    lam0 = sliding_lambda(sys, 1.0, 1.0)[0].lam
    traj = integrate_blowup(sys, eps, (lam0, 1.0, 1.0), (0.0, 1.0))
    for i in range(len(traj)):
        if traj.times[i] < 10 * eps:
            continue
        lam = traj.lams[i]
        _, x2, x3 = traj.state(i)
        defect = abs(sys.f1_surface(x2, x3, lam))
        a, b, _ = surface_quadratic(*sys.f1_sides(x2, x3))
        slope = abs(2.0 * a * lam + b)
        assert defect / max(slope, 1e-6) <= 20 * eps


def test_blowup_relaxation_rate():
    p = TwoFoldParams(1, 1, -2.0, -2.0, 0.2)
    sys = normal_form_system(p)
    eps = 1e-3
    traj = integrate_blowup(sys, eps, (0.0, 1.0, 1.0), (0.0, 0.05))
    t_check = 0.02     # ~ eps * log(1/tol) / rate with rate ~ 1
    lam = None
    for i in range(len(traj)):
        if traj.times[i] >= t_check:
            lam = traj.lams[i]
            _, x2, x3 = traj.state(i)
            break
    target = sliding_lambda(sys, x2, x3)[0].lam
    # the quasi-steady lam lags the instantaneous root by O(eps)
    assert lam == pytest.approx(target, abs=5e-4)


def test_blowup_boundary_exit():
    traj = integrate_blowup(nf(1, 1, -2.0, -2.0, 0.2), 1e-3, (0.0, 1.0, -1.0), (0.0, 1.0))
    exits = events_of_kind(traj, "boundary-exit")
    assert len(exits) == 1
    assert traj.meta["boundary_exit"] == -1
    assert traj.lams[-1] == pytest.approx(-1.0, abs=1e-9)
    assert traj.t_end < 1.0


@pytest.mark.parametrize("name, eps, y0, bound", [
    ("example-i", None, (0.0, 1.0, 1.0), 1.0),
    ("mixed-nf", 1e-2, (0.0, 1.0, 1.0), -1.0),
    ("invisible-nf", None, (0.0, 1.0, 1.0), -1.0),
])
def test_blowup_exit_state_holds_lam_at_its_bound(name, eps, y0, bound):
    # the located lam lies within rounding of the bound, on either side
    # (1 + 2.2e-16, -1 - 6.7e-16 and -1 + 8.3e-14 here); the exit sample
    # and the event record the bound itself
    sc = builtin(name)
    traj = integrate_blowup(sc.system, eps or sc.epsilon, y0, (0.0, 10.0))
    exit_event, = events_of_kind(traj, "boundary-exit")
    assert exit_event.t == traj.t_end < 10.0
    assert exit_event.state[0] == traj.final_state[0] == traj.lams[-1] == bound
    assert exit_event.state == traj.final_state
    assert traj.meta["boundary_exit"] == bound


def test_blowup_needs_no_params():
    # the same normal form written as expressions, without params
    nf_sys = nf(-1, 1, -4.0, -1.0, 0.2)
    expr_sys = PiecewiseSmoothSystem(parse_field("-x2", "-1", "-4"),
                                     parse_field("x3", "-1", "1"),
                                     parse_field("1/5", "0", "0"))
    assert expr_sys.params is None
    for y0 in ((0.0, 1.0, 1.0), (0.5, 1.0, -1.0)):
        a = integrate_blowup(nf_sys, 1e-3, y0, (0.0, 2.0))
        b = integrate_blowup(expr_sys, 1e-3, y0, (0.0, 2.0))
        assert len(a) == len(b) > 2
        assert list(a.times) == list(b.times)
        for i in range(len(a)):
            assert a.state(i) == b.state(i)
            assert a.lams[i] == b.lams[i]
        assert a.events == b.events


def test_blowup_rejects_bad_lambda():
    with pytest.raises(ValueError):
        integrate_blowup(nf(1, 1, 0.0, 0.0, 0.1), 1e-3,
                         (1.5, 0.0, 0.0), (0.0, 1.0))


# ------------------------------------------------------------ persistence

def test_trajectory_csv_format(tmp_path):
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.1, 1.0, -1.0), (0.0, 0.3))
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,mode,lambda"
    first = lines[1].split(",")
    assert first[4] == "flow+" and first[5] == ""
    # sliding/flow rows at the end carry the mode of their sample
    assert len(lines) == len(traj) + 1


def test_event_csv_format(tmp_path):
    sys = nf(1, 1, -2.0, -2.0, 0.0)
    traj = integrate_filippov(sys, (0.1, 1.0, -1.0), (0.0, 0.3))
    path = tmp_path / "run.events.csv"
    traj.events_to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,kind,x1,x2,x3"
    assert any("crossing" in ln for ln in lines[1:])


def test_blowup_csv_puts_lambda_in_lambda_column(tmp_path):
    traj = integrate_blowup(nf(1, 1, -2.0, -2.0, 0.2), 1e-3, (0.5, 1.0, 1.0), (0.0, 0.01))
    path = tmp_path / "layer.csv"
    traj.to_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[1]) == 0.0            # x1 column: the run lives on x1 = 0
    assert float(row[5]) == 0.5            # lambda column carries lam
