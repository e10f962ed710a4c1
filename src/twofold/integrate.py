"""Time integration engines.

One adaptive stepper on R^3 (scalar right-hand sides rhs(x1, x2, x3) ->
(f1, f2, f3), cubic-Hermite dense output) drives all four integrators.
Its steps are Dormand-Prince 5(4), except where a smoothed run sits on the
attracting stiff layer: there they are RODAS4 (an order-4 L-stable
Rosenbrock method) steps on the exact Jacobian, so the step count there no
longer grows like 1/eps.  Every run and segment (smooth, smoothed and
blow-up runs, Filippov flows and slides) steps in `_dp54_run`, one loop
with the DP54 attempt, the switch to RODAS4 and the step control inline;
it hands back only the steps its pre-test flags (a flow step whose x1 may
reach the surface, a blow-up step whose lam leaves (-1, 1), and each step
of a slide, through `_Stepper.step`).  The four integrators:

  * integrate_smooth   -- a single smooth field;
  * integrate_filippov -- event-driven switching: half-space flows; surface
    crossings found exactly on each step's dense output (a step whose x1
    cubic keeps its four Bernstein control points on its own side cannot
    reach the surface, `_dp54_run`'s pre-test; otherwise the interior
    extrema of the cubic come in closed form, so no step size cap near
    x1 = 0 is needed); contacts decided by the sliding layer's rule, the
    region of `sliding.contact`; sliding (x1 held at +0.0) with the layer
    value of lam tracked in closed form; fold/two-fold exit events;
  * integrate_smoothed -- sigmoid regularization lam = phi(x1/eps), the one
    integrator with RODAS4 steps;
  * integrate_blowup   -- the layer system itself, (lam' , x2., x3.) with
    lam' = eps dlam/dt, lam clamped to [-1, +1] by a boundary-exit event.

Every event is located by one bisection, `_bisect_event`, on a value of t
and the bracket values its caller already holds: x1 at a crossing and
lam's distance to a blow-up bound, both read from the first component of
the step's one Hermite cubic (`_hermite`) and narrowed first by Illinois
steps where that cubic is monotone, with the same result bit for bit; and
a slide monitor of the dense state, bracketed by the monitor's values at
the step's ends.

Sliding uses the fact that the surface component f1 is quadratic in lam for
every in-scope system (the hidden field does not depend on lam), so the slide
can hold one root branch of that quadratic in closed form (`sliding.slide_root`,
from one `f1_sides` call per state, with the branch-fold monitor's discriminant):
sigma = -1 labels the attracting branch (df1/dlam = sigma sqrt(disc) there),
sigma = +1 the repelling one.  Branch loss (discriminant -> 0) is the fold of
the sliding manifold and ejects the orbit into the half space where f1 keeps
its sign.

A run takes at most `MAX_STEPS` accepted steps, counted in meta['steps']
over all its segments; meta['rosenbrock_steps'] counts those that were
RODAS4 steps and meta['attempts'] its DP54 and RODAS4 attempts, rejected
ones included.  A run that stops early sets meta['aborted'] to STEP_FLOOR
(with a step-floor event) or BUDGET.  Every run integrates forward in time.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import repeat

from .fields import (PiecewiseSmoothSystem, SmoothField, compile_df1_dx1, compile_jacobian,
                     compile_layer, is_number, quadratic_roots)
from .sliding import (ATTRACTING_SLIDING, CLASSIFY_TOL, REPELLING_SLIDING, TANGENCY, contact,
                      slide_root)

__all__ = [
    "IntegratorOptions", "Trajectory", "Event", "NonconvergentEventError",
    "STAY_SLIDING", "EJECT_PLUS", "EJECT_MINUS", "POLICIES",
    "FLOW_PLUS", "FLOW_MINUS", "SLIDING", "LAYER",
    "CROSSING", "SLIDE_ENTRY", "SLIDE_EXIT", "TWO_FOLD_HIT",
    "DETERMINACY_BREAK", "STEP_FLOOR", "BOUNDARY_EXIT", "BUDGET", "SIGMOIDS",
    "integrate_smooth", "integrate_filippov", "integrate_smoothed",
    "integrate_blowup",
]

NAN = float("nan")

# sample modes
FLOW_PLUS = "flow+"
FLOW_MINUS = "flow-"
SLIDING = "sliding"
LAYER = "layer"

# event kinds
CROSSING = "crossing"
SLIDE_ENTRY = "slide-entry"
SLIDE_EXIT = "slide-exit"
TWO_FOLD_HIT = "two-fold-hit"
DETERMINACY_BREAK = "determinacy-break"
STEP_FLOOR = "step-floor"
BOUNDARY_EXIT = "boundary-exit"

BUDGET = "budget"            # meta['aborted'] of a run that used up MAX_STEPS
MAX_STEPS = 20_000_000       # accepted steps a run may take

TWO_FOLD_TOL = 1e-8          # (|x2|, |x3|) below this is a two-fold hit
EVENT_TOL = 1e-12            # |x1| within this of the surface counts as on it
BISECT_MAX_ITER = 200        # halvings of an event bracket before giving up
ILLINOIS_MAX_ITER = 30       # Illinois steps that narrow a bracket before halving
# every first component `_hermite` computes lies within _HERMITE_ROUNDING
# (32 units in the last place) of the sum of |x1| and |h x1'| at the step's
# two ends, plus _ROUNDING_FLOOR (for values too small to round
# relatively), of the exact cubic's value at the same s
_HERMITE_ROUNDING = 2.0 ** -48
_ROUNDING_FLOOR = 1e-300

# repelling-sliding policies: keep sliding on the repelling branch (the
# deterministic default), or leave at once to the plus or the minus side
STAY_SLIDING = "stay"
EJECT_PLUS = "eject-plus"
EJECT_MINUS = "eject-minus"
POLICIES = (STAY_SLIDING, EJECT_PLUS, EJECT_MINUS)


class NonconvergentEventError(RuntimeError):
    """Event bisection failed to converge within the iteration budget."""


class IntegratorOptions(namedtuple("IntegratorOptions",
                                   "rel_tol abs_tol min_step repelling_policy")):
    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-8, abs_tol: float = 1e-10, min_step: float = 1e-12,
                repelling_policy: str = STAY_SLIDING):
        if not all(is_number(v) and 0 < v < math.inf for v in (rel_tol, abs_tol, min_step)):
            raise ValueError("rel_tol, abs_tol and min_step must be finite and positive")
        if repelling_policy not in POLICIES:
            raise ValueError(f"unknown repelling policy {repelling_policy!r}")
        return super().__new__(cls, rel_tol, abs_tol, min_step, repelling_policy)


class Event(namedtuple("Event", "t kind state")):
    """One located event: its time, kind and state (a 3-tuple)."""

    __slots__ = ()


class Trajectory:
    """Sampled run with cubic-Hermite dense output and an event log.

    Each sample stores its outgoing derivative; an event sample, where the
    derivative jumps, also keeps its incoming one in `_f_in`, so dense output
    stays exact across mode switches.  A blow-up run (meta['kind'] 'blowup')
    samples (lam, x2, x3) and records its events at those states, and both
    CSVs write its x1 as 0.0; every other run samples (x1, x2, x3).
    """

    def __init__(self, meta: dict | None = None):
        self._t = array("d")
        self._y = (array("d"), array("d"), array("d"))
        self._f = (array("d"), array("d"), array("d"))    # outgoing derivative
        self._f_in: dict[int, tuple] = {}   # incoming derivative, where it differs
        self._lam = array("d")
        self._modes: list[str] = []
        self.events: list[Event] = []
        self.meta = meta if meta is not None else {}

    # -- construction ------------------------------------------------------

    def append(self, t, y, f_out, mode, lam=NAN, f_in=None):
        ts = self._t
        if ts and not t > ts[-1]:
            raise ValueError(f"sample times must be strictly increasing, got {t}")
        if f_in is not None:
            self._f_in[len(ts)] = f_in
        ts.append(t)
        y1, y2, y3 = self._y
        y1.append(y[0])
        y2.append(y[1])
        y3.append(y[2])
        f1, f2, f3 = self._f
        f1.append(f_out[0])
        f2.append(f_out[1])
        f3.append(f_out[2])
        self._lam.append(lam)
        self._modes.append(mode)

    def add_event(self, t, kind, state):
        self.events.append(Event(t, kind, tuple(state)))

    # -- access ------------------------------------------------------------

    def __len__(self):
        return len(self._t)

    @property
    def times(self):
        return self._t

    @property
    def columns(self):
        """The sampled x1, x2 and x3 columns (arrays; read them only)."""
        return self._y

    @property
    def lams(self):
        """The sampled lambda column (NaN where a sample has none)."""
        return self._lam

    def state(self, i: int) -> tuple[float, float, float]:
        return (self._y[0][i], self._y[1][i], self._y[2][i])

    def mode(self, i: int) -> str:
        return self._modes[i]

    @property
    def t_end(self):
        return self._t[-1]

    @property
    def final_state(self):
        return self.state(len(self._t) - 1)

    def eval(self, t: float) -> tuple[float, float, float]:
        """Dense output at a time t of the run's span [t0, t_end] (cubic
        Hermite on the covering segment); any other t, NaN too, is an error."""
        ts = self._t
        if not ts:
            raise ValueError("empty trajectory")
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t = {t!r} lies outside the run's span [{ts[0]!r}, {ts[-1]!r}]")
        if len(ts) == 1:
            return self.state(0)
        i = min(bisect_right(ts, t) - 1, len(ts) - 2)
        t0, t1 = ts[i], ts[i + 1]
        if t == t0:
            return self.state(i)
        if t == t1:
            return self.state(i + 1)
        fo = tuple(col[i] for col in self._f)
        fi = self._f_in.get(i + 1) or tuple(col[i + 1] for col in self._f)
        return _hermite((t0, self.state(i), fo, t1, self.state(i + 1), fi), t)

    def sign_changes(self) -> int:
        """Sign flips of the sampled x1 column (zeros are skipped)."""
        count = 0
        last = 0.0
        for v in self._y[0]:
            if v == 0.0:
                continue
            s = 1.0 if v > 0 else -1.0
            if last != 0.0 and s != last:
                count += 1
            last = s
        return count

    def sup_norm(self) -> float:
        return max(max(map(abs, col)) for col in self._y)

    # -- persistence ---------------------------------------------------------

    def to_csv(self, path) -> None:
        x1s, x2s, x3s = self._y
        if self.meta.get("kind") == "blowup":
            x1s = repeat(0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x1,x2,x3,mode,lambda\n")
            fh.writelines(
                f"{t!r},{x1!r},{x2!r},{x3!r},{mode},{'' if lam != lam else repr(lam)}\n"
                for t, x1, x2, x3, mode, lam
                in zip(self._t, x1s, x2s, x3s, self._modes, self._lam))

    def events_to_csv(self, path) -> None:
        blowup = self.meta.get("kind") == "blowup"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,kind,x1,x2,x3\n")
            for e in self.events:
                x1 = 0.0 if blowup else e.state[0]
                fh.write(f"{e.t!r},{e.kind},{x1!r},{e.state[1]!r},{e.state[2]!r}\n")


# ---------------------------------------------------------------- RK core

# Dormand-Prince 5(4) tableau
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


# DP54's stability region reaches about -3.3 on the negative real axis: a
# step with h * (-df1/dx1) beyond it is stiff for DP54 along x1
_DP54_STABILITY = 3.3


class _Stepper:
    """One smooth piece in R^3: (t, y, f) of the last accepted point and the
    size h of the next attempt, which `_dp54_run` steps.

    `rhs(x1, x2, x3) -> (f1, f2, f3)` takes and returns scalars; every
    evaluation goes through `self.rhs`.  `h` sizes the first attempt; the
    tolerances and min_step are read from `opts` once, here.

    A smoothed run also gives `make_jac` and `df1_dx1` (from
    `fields.compile_jacobian` and `fields.compile_df1_dx1`): then a step on
    which the layer is attracting and stiff at its size, h * (-df1/dx1) >
    _DP54_STABILITY at its start and at its end, is a RODAS4 step
    (`_attempt`).  `make_jac()` returns the Jacobian; it is called at the
    first RODAS4 attempt, so a run that never takes one never compiles it.
    """

    __slots__ = ("rhs", "abs_tol", "rel_tol", "min_step", "t", "y", "f", "h", "make_jac",
                 "jac", "df1_dx1", "rosenbrock")

    def __init__(self, rhs, t0, y0, opts, make_jac=None, df1_dx1=None, h=1e-3):
        self.rhs = rhs
        self.abs_tol, self.rel_tol, self.min_step = opts.abs_tol, opts.rel_tol, opts.min_step
        self.t = t0
        self.y = (float(y0[0]), float(y0[1]), float(y0[2]))
        self.f = rhs(*self.y)
        self.h = h
        self.make_jac = make_jac
        self.jac = None
        self.df1_dx1 = df1_dx1

    def _attempt(self, h, y, f):
        """One RODAS4 attempt of size h from (y, f = rhs(*y)): (y_new, f_new,
        err), err <= 1 passing the tolerances."""
        if self.jac is None:
            # imported here, so runs that take no stiff step never compile
            # the RODAS4 module or the Jacobian
            from .rodas4 import attempt
            self.rosenbrock = attempt
            self.jac = self.make_jac()
        return self.rosenbrock(self.rhs, self.jac, y, f, h, self.abs_tol, self.rel_tol)

    def step(self, traj, t_limit):
        """One accepted step toward t_limit, the segment (t0, y0, f0, t1, y1,
        f1), not sampled; None at t_limit, a step floor or the budget."""
        return _dp54_run(traj, self, t_limit, every=True)


def _hermite(seg, t):
    """The cubic Hermite state at t on the segment (t0, y0, f0, t1, y1, f1)."""
    t0, y0, f0, t1, y1, f1 = seg
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    a, b = (1.0 + 2.0 * s) * (1.0 - s) ** 2, s * (1.0 - s) ** 2 * h
    c, d = s2 * (3.0 - 2.0 * s), s2 * (s - 1.0) * h
    return (a * y0[0] + b * f0[0] + c * y1[0] + d * f1[0],
            a * y0[1] + b * f0[1] + c * y1[1] + d * f1[1],
            a * y0[2] + b * f0[2] + c * y1[2] + d * f1[2])


def _monotone_noise(seg):
    """The rounding bound of x1's cubic on a segment on which it is strictly
    monotone, else None.

    The cubic's derivative is a quadratic in Bernstein form with
    coefficients h f1(t0), 3 (x1(t1) - x1(t0)) - h f1(t0) - h f1(t1) and
    h f1(t1); when they share one sign beyond their own rounding, so does
    the exact derivative on the whole step.  The bound is twice what
    rounding can move a first component `_hermite` computes
    (_HERMITE_ROUNDING), so a value beyond it has the sign of the exact
    cubic at that point.
    """
    h = seg[3] - seg[0]
    p0, p1 = seg[1][0], seg[4][0]
    d0, d1 = h * seg[2][0], h * seg[5][0]
    scale = abs(p0) + abs(p1) + abs(d0) + abs(d1)
    mid = 3.0 * (p1 - p0) - d0 - d1
    if d0 * d1 > 0.0 and d0 * mid > 0.0 and abs(mid) > 4.0 * _HERMITE_ROUNDING * scale:
        return 2.0 * (_HERMITE_ROUNDING * scale + _ROUNDING_FLOOR)
    return None


def _illinois(value, a, b, v_a, v_b, noise):
    """Narrow the bracket (a, b) of a monotone `value` by Illinois steps
    (regula falsi that halves the weight of an end kept twice in a row;
    Shampine & Thompson, Comput. Math. Appl. 2000) to a few ulps of t.

    Each probe lies at least two ulps inside the bracket, and only a probe
    whose value lies beyond `noise` (so its sign is the exact one) becomes
    an end.  A probe within `noise` of zero sits in the rounding band about
    the root: the bracket then closes on probes either side of it, four
    times the band's width away by the secant slope, where their values
    clear it, and the narrowing stops.
    """
    lo_positive = v_a > 0.0
    gap = 2.0 * math.ulp(max(abs(a), abs(b)))
    w_a, w_b = v_a, v_b                 # the ends' Illinois weights
    kept = 0                            # +1 (-1) after a step that kept b (a)
    for _ in range(ILLINOIS_MAX_ITER):
        if b - a <= 2.0 * gap:
            break
        t = b - w_b * (b - a) / (w_b - w_a)
        if not t >= a + gap:            # also a NaN step
            t = a + gap
        elif t > b - gap:
            t = b - gap
        v = value(t)
        if not abs(v) < math.inf:
            break
        if abs(v) <= noise:
            step = max(gap, 4.0 * noise * (b - a) / abs(v_b - v_a))
            for t_side in (t - step, t + step):
                if a < t_side < b:
                    v = value(t_side)
                    if noise < abs(v) < math.inf:
                        if (v > 0.0) == lo_positive:
                            a = t_side
                        else:
                            b = t_side
            break
        if (v > 0.0) == lo_positive:
            a, v_a, w_a = t, v, v
            if kept > 0:
                w_b *= 0.5
            kept = 1
        else:
            b, v_b, w_b = t, v, v
            if kept < 0:
                w_a *= 0.5
            kept = -1
    return a, b


def _bisect_event(seg, value, t_lo, v_lo, t_hi, v_hi, noise):
    """Root (t, state) of value(t) between the times t_lo and t_hi of the
    segment, at which the caller's value reads v_lo and v_hi with a sign
    change.  A zero at a bracket end returns that end, with the segment's
    own state if it is one of its ends; every other state is the segment's
    dense output.

    The result is that of halving the bracket until its ends are adjacent
    floats (or a midpoint's value is exactly 0.0), at most BISECT_MAX_ITER
    times.  `noise` is None, or, for a value monotone in the first
    component (x1 at a crossing, lam's distance to a blow-up bound), the
    rounding bound of its cubic from `_monotone_noise`.  When both end values lie
    beyond it, Illinois steps first narrow a copy of the bracket to a few
    ulps of t (`_illinois`).  The halving loop then runs over the whole
    bracket but evaluates only the midpoints inside that copy: one outside
    it has the sign of the copy's end on its side, since the monotone cubic
    lies farther from its root there than at that end, whose sign rounding
    cannot flip.  So the loop meets the same midpoints, returns the same
    (t, state) and gives up after the same count as plain halving, with
    about ten evaluations per root in place of about forty.  The slide
    monitors keep plain halving: their computed signs flip back and forth
    over hundreds of ulps about the root, and no bound here says where.
    """
    if v_lo == 0.0 or v_hi == 0.0:
        t = t_lo if v_lo == 0.0 else t_hi
        return t, seg[1] if t == seg[0] else seg[4] if t == seg[3] else _hermite(seg, t)
    if (v_lo > 0.0) == (v_hi > 0.0):
        raise NonconvergentEventError("no sign change in event bracket")
    lo_positive = v_lo > 0.0
    # the halving evaluates only midpoints inside (a, b)
    a, b = t_lo, t_hi
    if noise is not None and noise < abs(v_lo) < math.inf and noise < abs(v_hi) < math.inf:
        a, b = _illinois(value, t_lo, t_hi, v_lo, v_hi, noise)
    for _ in range(BISECT_MAX_ITER):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:      # interval below float resolution
            return t_mid, _hermite(seg, t_mid)
        if t_mid <= a:
            t_lo = t_mid
        elif t_mid >= b:
            t_hi = t_mid
        else:
            v_mid = value(t_mid)
            if v_mid == 0.0:
                return t_mid, _hermite(seg, t_mid)
            if (v_mid > 0.0) == lo_positive:
                t_lo = t_mid
            else:
                t_hi = t_mid
    raise NonconvergentEventError(
        f"event bisection did not converge ({BISECT_MAX_ITER} iterations)")


def _surface_crossing(seg, side):
    """First point (t, y) of a flow segment on `side` of x1 = 0 where x1
    reaches the surface, or None.

    Exact however long the step.  A flow calls it only on the steps that
    `_dp54_run`'s hull test flags.  x1 is monotone between its interior
    extrema, the roots of the derivative's quadratic, so testing those in
    time order and then the end finds the first crossing even when a
    grazing orbit crosses twice within the step.  A point counts when x1
    lies at least EVENT_TOL beyond the surface, or exactly on it.
    """
    t0, y0, f0, t1, y1, f1 = seg
    h = t1 - t0
    x1_old, x1_end = y0[0], y1[0]
    d0, d1 = h * f0[0], h * f1[0]
    a = 6.0 * x1_old + 3.0 * d0 - 6.0 * x1_end + 3.0 * d1
    b = -6.0 * x1_old - 4.0 * d0 + 6.0 * x1_end - 2.0 * d1
    extrema = sorted(t for t in (t0 + s * h for s, _ in quadratic_roots(a, b, d0, 0.0))
                     if t0 < t < t1)
    # the bracket starts at the last point strictly on this side: a segment
    # may start on the surface, or a hair beyond it after an earlier
    # crossing cut, and that start is no new crossing
    lo = (t0, x1_old) if side * x1_old > 0.0 else None
    for t_c in extrema + [t1]:
        x1_new = x1_end if t_c == t1 else _hermite(seg, t_c)[0]
        if side * x1_new > 0.0:
            lo = (t_c, x1_new)
        elif lo is not None and (side * x1_new <= -EVENT_TOL or x1_new == 0.0):
            return _bisect_event(seg, lambda t: _hermite(seg, t)[0], *lo, t_c, x1_new,
                                 _monotone_noise(seg))
    return None


# ---------------------------------------------------------------- the stepping loop

def _step_floor(traj, t, y):
    traj.add_event(t, STEP_FLOOR, y)
    traj.meta["aborted"] = STEP_FLOOR


def _dp54_run(traj, stepper, t1, side=0, blowup=False, every=False):
    """Advance `stepper` toward t1 by accepted steps, with the DP54 attempt
    and the step control inline, on `stepper`'s rhs, state, h and
    tolerances (state and h are written back); each sample goes straight
    into the trajectory's arrays, the first only into an empty trajectory,
    tagged flow+ or flow- by the sign of its first coordinate, with no lam.

    A stepper with `df1_dx1` (a smoothed run's) picks the method per step:
    where h * rate > _DP54_STABILITY, rate = -df1/dx1 at the step's start,
    it tries one RODAS4 attempt (`_Stepper._attempt`) and keeps it only if
    the test still holds at its end; otherwise it redoes the same h by DP54.
    The next h scales by err**-0.25 after a RODAS4 attempt, by err**-0.2
    after a DP54 one.

    Returns the first accepted segment (t0, y0, f0, t1, y1, f1) its
    pre-test flags, counted but not sampled: with `every` (a slide's
    `_Stepper.step`), each step; on a Filippov flow on `side` (+1 or -1),
    a step with a Bernstein control point of its x1 cubic beyond the
    surface or within a rounding margin of it (`_surface_crossing` finds
    nothing on any other); on a blow-up (`blowup`), a step whose lam leaves
    (-1, 1).  With none of them, a smooth or smoothed run, it flags nothing.
    Otherwise returns None: at t1, at a step floor (`_step_floor`) or when
    the run's accepted steps, counted in meta['steps'], reach MAX_STEPS
    (meta['aborted'] = BUDGET).  The RODAS4 steps among them are added to
    meta['rosenbrock_steps'] and the attempts to meta['attempts'].
    """
    t, h_next, rhs, df1_dx1 = stepper.t, stepper.h, stepper.rhs, stepper.df1_dx1
    (y1, y2, y3), (k11, k12, k13) = stepper.y, stepper.f
    if not traj:
        traj.append(t, stepper.y, stepper.f, FLOW_PLUS if y1 >= 0 else FLOW_MINUS)
    at, rt, min_step = stepper.abs_tol, stepper.rel_tol, stepper.min_step
    hull = 8.0 * _HERMITE_ROUNDING
    add_t, add_lam, add_mode = traj._t.append, traj._lam.append, traj._modes.append
    ys, fs = traj._y, traj._f
    add_y1, add_y2, add_y3 = ys[0].append, ys[1].append, ys[2].append
    add_f1, add_f2, add_f3 = fs[0].append, fs[1].append, fs[2].append
    meta = traj.meta
    steps, attempts = meta.get("steps", 0), meta.get("attempts", 0)
    rosenbrock_steps = meta.get("rosenbrock_steps", 0)
    rate = 0.0 if df1_dx1 is None else -df1_dx1(y1, y2, y3)
    flagged = None
    while t < t1:
        if steps >= MAX_STEPS:
            meta["aborted"] = BUDGET
            break
        # min and max are written out here: a builtin call per attempt
        # costs about 1% of a flow run
        rest = t1 - t
        h = rest if rest < h_next else h_next           # min(h_next, rest)
        # floor a step the controller, not t1, shrank below min_step, and
        # one below the resolution of t, which would not advance it
        if h < min_step and h < rest or t + h == t:
            _step_floor(traj, t, (y1, y2, y3))
            break
        stiff = h * rate > _DP54_STABILITY
        if stiff:
            attempts += 1
            (n1, n2, n3), k7, err = stepper._attempt(h, (y1, y2, y3), (k11, k12, k13))
            if not (err <= 1.0 and n1 == n1 and n2 == n2 and n3 == n3):
                h_next = h * (max(0.2, 0.9 * err ** -0.25) if err > 1.0 else 0.2)
                continue
            # a step that ends off the attracting stiff layer, past a fold
            # or on the repelling sheet, where an L-stable step would damp
            # the growth and pin the orbit to that sheet, is redone by DP54
            stiff = h * -df1_dx1(n1, n2, n3) > _DP54_STABILITY
        if stiff:
            rosenbrock_steps += 1
            k71, k72, k73 = k7
            fac = 5.0 if err == 0.0 else 0.9 * err ** -0.25
        else:
            # written out over the three components, k<stage><component>;
            # the order of every sum is part of the result, which the tests
            # hold bit for bit to the loop form y_i + h * (A k)_i
            attempts += 1
            k21, k22, k23 = rhs(y1 + h * (_A21 * k11), y2 + h * (_A21 * k12),
                                y3 + h * (_A21 * k13))
            k31, k32, k33 = rhs(y1 + h * (_A31 * k11 + _A32 * k21),
                                y2 + h * (_A31 * k12 + _A32 * k22),
                                y3 + h * (_A31 * k13 + _A32 * k23))
            k41, k42, k43 = rhs(y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
                                y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32),
                                y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33))
            k51, k52, k53 = rhs(y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
                                y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
                                y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43))
            k61, k62, k63 = rhs(y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41
                                          + _A65 * k51),
                                y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42
                                          + _A65 * k52),
                                y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43
                                          + _A65 * k53))
            n1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
            n2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
            n3 = y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
            k7 = rhs(n1, n2, n3)
            k71, k72, k73 = k7
            q1 = abs(h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61
                          + _E7 * k71)) / (at + rt * max(abs(y1), abs(n1)))
            q2 = abs(h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62
                          + _E7 * k72)) / (at + rt * max(abs(y2), abs(n2)))
            q3 = abs(h * (_E1 * k13 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63
                          + _E7 * k73)) / (at + rt * max(abs(y3), abs(n3)))
            # max(0.0, q1, q2, q3), which skips a NaN q
            err = q1 if q1 > 0.0 else 0.0
            if q2 > err:
                err = q2
            if q3 > err:
                err = q3
            if not (err <= 1.0 and n1 == n1 and n2 == n2 and n3 == n3):
                h_next = h * (max(0.2, 0.9 * err ** -0.2) if err > 1.0 else 0.2)
                continue
            fac = 5.0 if err == 0.0 else 0.9 * err ** -0.2
        # min(5.0, max(0.2, fac)); fac >= 0.9 as err <= 1
        h_next = h * (fac if fac < 5.0 else 5.0)
        t_new = t + h
        steps += 1
        if side:
            # x1's Hermite cubic stays in the convex hull of its Bernstein
            # control points x1(t0), x1(t0) + h f1(t0)/3, x1(t1) - h f1(t1)/3
            # and x1(t1) (with `_surface_crossing`'s h, d0 and d1): when all
            # four lie on `side` beyond a rounding margin, no point of its
            # scan can reach the surface, not even through rounding.  4x
            # their sum bounds |x1| and |h x1'| at the ends; 8x leaves a
            # factor 2 for the rounding of the points themselves
            d0, d1 = (t_new - t) * k11, (t_new - t) * k71
            p0, p1 = side * y1, side * (y1 + d0 / 3.0)
            p2, p3 = side * (n1 - d1 / 3.0), side * n1
            margin = hull * (p0 + p1 + p2 + p3) + _ROUNDING_FLOOR
            if not (p0 > margin and p1 > margin and p2 > margin and p3 > margin):
                flagged = (t, (y1, y2, y3), (k11, k12, k13), t_new, (n1, n2, n3), k7)
        elif every or blowup and not -1.0 < n1 < 1.0:
            flagged = (t, (y1, y2, y3), (k11, k12, k13), t_new, (n1, n2, n3), k7)
        t, y1, y2, y3, k11, k12, k13 = t_new, n1, n2, n3, k71, k72, k73
        if flagged is not None:
            break
        add_t(t)
        add_y1(n1)
        add_y2(n2)
        add_y3(n3)
        add_f1(k71)
        add_f2(k72)
        add_f3(k73)
        add_lam(NAN)
        add_mode(FLOW_PLUS if n1 >= 0 else FLOW_MINUS)
        if df1_dx1 is not None:
            rate = -df1_dx1(n1, n2, n3)
    stepper.t, stepper.y, stepper.f, stepper.h = t, (y1, y2, y3), (k11, k12, k13), h_next
    meta["steps"], meta["attempts"] = steps, attempts
    meta["rosenbrock_steps"] = rosenbrock_steps
    return flagged


# ---------------------------------------------------------------- smooth runs


def _forward(t_span, runs: str):
    """(t0, t1) of a forward span; ValueError naming the `runs` otherwise."""
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError(f"{runs} runs integrate forward")
    return t0, t1


def integrate_smooth(fld: SmoothField, x0, t_span, opts: IntegratorOptions | None = None) -> Trajectory:
    """Adaptive integration of one smooth field."""
    t0, t1 = _forward(t_span, "smooth")
    traj = Trajectory(meta={"kind": "smooth"})
    _dp54_run(traj, _Stepper(fld.fn, t0, x0, opts or IntegratorOptions()), t1)
    return traj


# the smoothing widths whose sigmoid sources and slopes stay finite: the tanh
# source holds 1/eps, the sqrt source eps**2, and the sqrt slope at x1 = 0
# divides by eps**3; a blow-up run's lam' holds 1/eps too
EPS_MIN, EPS_MAX = 1e-100, 1e100


def _check_eps(eps):
    if not EPS_MIN <= eps <= EPS_MAX:
        raise ValueError(f"eps must lie in [{EPS_MIN!r}, {EPS_MAX!r}]")


# the sigmoids by name: (lam source, slope source, phi).  The sources take
# eps and give Python expressions, lam = phi(x1/eps) in x1 and its slope
# dlam/dx1 in x1 and lam
SIGMOIDS = {
    "tanh": (lambda eps: f"tanh(x1*{1.0 / eps!r})",
             lambda eps: f"(1.0-lam*lam)*{1.0 / eps!r}",
             math.tanh),
    "sqrt": (lambda eps: f"x1/sqrt({eps * eps!r}+x1*x1)",
             lambda eps: "{0}/(({0}+x1*x1)*sqrt({0}+x1*x1))".format(repr(eps * eps)),
             lambda u: u / math.sqrt(1.0 + u * u)),
}


def integrate_smoothed(sys: PiecewiseSmoothSystem, sigmoid: str, eps: float,
                       x0, t_span, opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the sigmoid-regularized field lam = phi(x1/eps).

    Samples with |x1| < 10 eps are tagged as layer samples and carry the
    sigmoid value in the lambda column.  Steps on which the layer is
    attracting and stiff are RODAS4 steps (see `_dp54_run`), counted in
    meta['rosenbrock_steps'] as in every run; elsewhere the run takes DP54
    steps, and a step-floor event ends it early rather than stalling.
    """
    _check_eps(eps)
    t0, t1 = _forward(t_span, "smoothed")
    if sigmoid not in SIGMOIDS:
        raise ValueError(f"unknown sigmoid {sigmoid!r} (use {' or '.join(map(repr, SIGMOIDS))})")
    lam_of, slope_of, phi = SIGMOIDS[sigmoid]
    lam_source, dlam_source = lam_of(eps), slope_of(eps)
    rhs = compile_layer(sys, lam_source)
    df1_dx1 = compile_df1_dx1(sys, lam_source, dlam_source)
    meta = {"kind": "smoothed", "sigmoid": sigmoid, "eps": eps}
    traj = Trajectory(meta)
    stepper = _Stepper(rhs, t0, x0, opts or IntegratorOptions(),
                       lambda: compile_jacobian(sys, lam_source, dlam_source), df1_dx1)
    _dp54_run(traj, stepper, t1)
    # the loop tagged every sample by the sign of its x1: those within the
    # layer become layer samples, with the sigmoid value
    band, modes, lams = 10.0 * eps, traj._modes, traj._lam
    for i, x1 in enumerate(traj.columns[0]):
        if abs(x1) < band:
            modes[i] = LAYER
            lams[i] = phi(x1 / eps)
    return traj


# ---------------------------------------------------------------- blow-up runs

def integrate_blowup(sys: PiecewiseSmoothSystem, eps: float, y0, t_span,
                     opts: IntegratorOptions | None = None) -> Trajectory:
    """Layer dynamics on the switching surface in (lam, x2, x3).

    dlam/dt = f1(0, x2, x3; lam)/eps with (x2., x3.) = (f2, f3); hitting a
    lam boundary with outward flow stops the run with a boundary-exit event
    (the hand-off into the half space is the caller's business).
    """
    _check_eps(eps)
    if not -1.0 <= y0[0] <= 1.0:
        raise ValueError("lam0 must lie in [-1, 1]")
    t0, t1 = _forward(t_span, "blow-up")
    inv = 1.0 / eps
    layer = sys.layer

    def rhs(lam, x2, x3):
        f1, f2, f3 = layer(0.0, x2, x3, lam)
        return (f1 * inv, f2, f3)

    traj = Trajectory(meta={"kind": "blowup", "eps": eps})
    seg = _dp54_run(traj, _Stepper(rhs, t0, y0, opts or IntegratorOptions()), t1, blowup=True)
    # the loop tagged every sample by the sign of its lam: all are layer
    # samples, with lam in the lambda column
    traj._modes = [LAYER] * len(traj)
    traj._lam = array("d", traj.columns[0])
    if seg is not None:
        # lam left (-1, 1) on this step: locate the distance 1 - bound * lam
        # to the bound it crossed, positive inside
        lam = seg[4][0]
        bound = 1.0 if lam >= 1.0 else -1.0
        t_star, y_star = _bisect_event(seg, lambda t: 1.0 - bound * _hermite(seg, t)[0],
                                       seg[0], 1.0 - bound * seg[1][0],
                                       seg[3], 1.0 - bound * lam, _monotone_noise(seg))
        if t_star > traj.times[-1]:
            traj.append(t_star, y_star, rhs(*y_star), LAYER, y_star[0])
        traj.add_event(t_star, BOUNDARY_EXIT, y_star)
        traj.meta["boundary_exit"] = 1 if y_star[0] > 0 else -1
    return traj


# ---------------------------------------------------------------- Filippov runs

def _slide_monitors(sys, sigma, w):
    """(lam, scalars) of a slide on branch sigma at state w, from one
    `f1_sides` call: the branch root lam, and the event scalars, positive
    while sliding: the fold lines (1 - lam, lam + 1), the branch fold (the
    discriminant of `slide_root`) and, for normal forms, the two-fold window."""
    lam, _, disc = slide_root(*sys.f1_sides(w[1], w[2]), sigma)
    if sys.params is None:
        return lam, (1.0 - lam, lam + 1.0, disc)
    return lam, (1.0 - lam, lam + 1.0, disc, max(abs(w[1]), abs(w[2])) - TWO_FOLD_TOL)


def _lifts_off(sys, y, side):
    """Directional derivative of the side's surface component along its own
    flow: positive growth of x1 on the plus side (of -x1 on the minus side)
    means the grazing orbit curves away from the surface."""
    fld = sys.f_plus if side > 0 else sys.f_minus
    v = fld.fn(y[0], y[1], y[2])
    d = 1e-7
    up = fld.fn(y[0] + d * v[0], y[1] + d * v[1], y[2] + d * v[2])[0]
    dn = fld.fn(y[0] - d * v[0], y[1] - d * v[1], y[2] - d * v[2])[0]
    return (up - dn) / (2.0 * d) * (1 if side > 0 else -1) > 0.0


def _clamp_unit(lam):
    """lam clipped to [-1, 1]; NaN (no lam) passes through."""
    return min(1.0, max(-1.0, lam)) if lam == lam else lam


# Filippov segment actions: ("flow", side), ("slide", sigma), or None, which
# ends the run (at t_end, the budget, a step floor or the two-fold)


class _FilippovRun:
    def __init__(self, sys, opts, traj, t_end):
        self.sys = sys
        self.opts = opts
        self.traj = traj
        self.t_end = t_end
        # a flow segment starts at the h its predecessor last proposed; slides
        # start at 1e-3, since a carried h made their exit times less accurate
        self.flow_h = 1e-3

    # -- records -------------------------------------------------------------

    def _record(self, t, y, f_out, mode, lam=NAN, f_in=None):
        # events located at the left end of a segment would duplicate the
        # previous sample; the log keeps them, the sample store skips them
        if self.traj.times and t <= self.traj.times[-1]:
            return
        self.traj.append(t, y, f_out, mode, _clamp_unit(lam), f_in)

    def _flow_from(self, t, y, side, f_in, kind=None):
        """Hand the orbit to one side's flow at (t, y): the event `kind`, if
        any, the event sample and the flow action."""
        if kind is not None:
            self.traj.add_event(t, kind, y)
        fld = self.sys.f_plus if side > 0 else self.sys.f_minus
        self._record(t, y, fld.fn(y[0], y[1], y[2]),
                     FLOW_PLUS if side > 0 else FLOW_MINUS, NAN, f_in)
        return ("flow", side)

    def _two_fold(self, t, y, f_out, lam=NAN, f_in=None):
        """The determinacy-breaking stop at the two-fold, which ends the run."""
        st = (0.0, y[1], y[2])
        self.traj.add_event(t, TWO_FOLD_HIT, st)
        self.traj.add_event(t, DETERMINACY_BREAK, st)
        self._record(t, y, f_out, SLIDING, lam, f_in)

    # -- surface decision --------------------------------------------------

    def decide_surface(self, t, y, f_in=None):
        """Entry point whenever the state sits on x1 = 0: the action for the
        region `contact` gives the point."""
        sides = self.sys.f1_sides(y[1], y[2])
        fp, fm, region = contact(*sides)
        if region == TANGENCY:
            if abs(fp) <= CLASSIFY_TOL and abs(fm) <= CLASSIFY_TOL:
                # tangent from both sides: the two-fold itself
                return self._two_fold(t, y, f_in or (0.0, 0.0, 0.0), NAN, f_in)
            # grazing contact of the plus field, else of the minus field
            side = 1 if abs(fp) <= CLASSIFY_TOL else -1
            if _lifts_off(self.sys, y, side):
                return self._flow_from(t, y, side, f_in)
            return self.enter_sliding(t, y, sides,
                                      attracting=fm > 0 if side > 0 else fp < 0, f_in=f_in)
        if region == ATTRACTING_SLIDING:
            return self.enter_sliding(t, y, sides, attracting=True, f_in=f_in)
        if region == REPELLING_SLIDING:
            policy = self.opts.repelling_policy
            if policy != STAY_SLIDING:
                return self._flow_from(t, y, 1 if policy == EJECT_PLUS else -1, f_in)
            return self.enter_sliding(t, y, sides, attracting=False, f_in=f_in)
        # transversal crossing: both components share one sign
        return self._flow_from(t, y, 1 if fp > 0 else -1, f_in, CROSSING)

    def enter_sliding(self, t, y, sides, attracting, f_in=None):
        # `sides` is the f1_sides triple at y.  The attracting branch carries
        # df1/dlam = -sqrt(disc), which is the sigma = -1 root; this labelling
        # continues through a == 0, where the linear root inherits the branch
        # with the matching slope sign
        sigma = -1 if attracting else 1
        _, lam, f_slide = self._slide_field(sides, sigma, y)
        self.traj.add_event(t, SLIDE_ENTRY, (0.0, y[1], y[2]))
        self._record(t, (y[0], y[1], y[2]), f_slide, SLIDING, lam, f_in)
        return ("slide", sigma)

    def _slide_field(self, sides, sigma, y):
        """(a, lam, f) of a slide on branch sigma at (0, y[1], y[2]), whose
        `f1_sides` triple is `sides`: f1's lam^2 coefficient, the branch root
        and the slide field (0.0, f2, f3)."""
        lam, a, _ = slide_root(*sides, sigma)
        _, f2, f3 = self.sys.layer(0.0, y[1], y[2], lam)
        return a, lam, (0.0, f2, f3)

    # -- flow segments -------------------------------------------------------

    def run_flow(self, t, y, side):
        fld = self.sys.f_plus if side > 0 else self.sys.f_minus
        mode = FLOW_PLUS if side > 0 else FLOW_MINUS

        stepper = _Stepper(fld.fn, t, y, self.opts, h=self.flow_h)
        while True:
            seg = _dp54_run(self.traj, stepper, self.t_end, side)
            self.flow_h = stepper.h
            if seg is None:
                return None
            hit = _surface_crossing(seg, side)
            if hit is not None:
                t_star, y_star = hit
                return self.decide_surface(t_star, y_star, f_in=fld.fn(*y_star))
            # a flagged step that stays on this side (a grazing start, say)
            self.traj.append(seg[3], seg[4], seg[5], mode)

    # -- sliding segments ----------------------------------------------------

    def run_slide(self, t, y, sigma):
        sys = self.sys
        is_nf = sys.params is not None
        if is_nf and max(abs(y[1]), abs(y[2])) <= TWO_FOLD_TOL:
            return self._two_fold(t, y, (0.0, 0.0, 0.0))

        def rhs(x1, x2, x3):
            # positional calls, not f(*args): this runs at every stage
            fp1, fm1, g1 = sys.f1_sides(x2, x3)
            _, f2, f3 = sys.layer(0.0, x2, x3, slide_root(fp1, fm1, g1, sigma)[0])
            return (0.0, f2, f3)

        stepper = _Stepper(rhs, t, (0.0, y[1], y[2]), self.opts)
        m_prev = _slide_monitors(sys, sigma, stepper.y)[1]
        while True:
            if is_nf:
                # resolve the approach to the two-fold: halving steps keep the
                # endpoint monitor from jumping across the hit window
                dist = max(abs(stepper.y[1]), abs(stepper.y[2]))
                speed = math.hypot(stepper.f[1], stepper.f[2])
                if speed > 0.0 and dist > TWO_FOLD_TOL:
                    stepper.h = min(stepper.h, max(0.5 * dist / speed, 10.0 * self.opts.min_step))
            seg = stepper.step(self.traj, self.t_end)
            if seg is None:
                return None
            lam, m_new = _slide_monitors(sys, sigma, seg[4])
            for which, (v_lo, v_hi) in enumerate(zip(m_prev, m_new)):
                if v_lo > 0.0 >= v_hi:
                    t_star, w_star = _bisect_event(
                        seg, lambda t: _slide_monitors(sys, sigma, _hermite(seg, t))[1][which],
                        seg[0], v_lo, seg[3], v_hi, None)
                    return self._slide_event(which, t_star, w_star, sigma, stalled=t_star <= t)
            m_prev = m_new
            self.traj.append(seg[3], seg[4], seg[5], SLIDING, _clamp_unit(lam))

    def _slide_event(self, which, t_star, w_star, sigma, stalled):
        sys = self.sys
        st = (0.0, w_star[1], w_star[2])
        sides = sys.f1_sides(w_star[1], w_star[2])
        a, lam, f_slide = self._slide_field(sides, sigma, st)
        if which == 3:
            return self._two_fold(t_star, st, f_slide, lam, f_slide)
        if which == 2:
            # branch fold: past it f1 keeps the sign of its lam^2 coefficient
            return self._flow_from(t_star, st, 1 if a > 0 else -1, f_slide, SLIDE_EXIT)
        side = 1 if which == 0 else -1
        if not _lifts_off(sys, st, side):
            # the branch left [-1, 1] by this step's end: the orbit crosses
            # over if the other side's field points away from the surface
            side = -side
            if side * contact(*sides)[side < 0] <= CLASSIFY_TOL:
                if stalled:
                    # sliding on would restart at the same time forever
                    _step_floor(self.traj, t_star, st)
                    return None
                # the boundary root grazes lam = +-1 and returns: keep sliding
                self._record(t_star, st, f_slide, SLIDING, lam, f_slide)
                return ("slide", sigma)
        return self._flow_from(t_star, st, side, f_slide, SLIDE_EXIT)


def integrate_filippov(sys: PiecewiseSmoothSystem, x0, t_span,
                       opts: IntegratorOptions | None = None) -> Trajectory:
    """Event-driven integration of the switched system (forward time).

    Off the surface the active half-space field is integrated; surface hits
    are located on the dense output to EVENT_TOL.  Transversal contacts cross
    or enter sliding by the signs of f1 on the two sides; sliding tracks the
    layer root of f1 in closed form and exits at the fold lines lam = +-1
    (to the side that lifts off, else to the other side if its field points
    away), at a branch fold, or at the two-fold, which is a
    determinacy-breaking stop.  A slide that would restart at its own start
    time stops with a step-floor event.  Repelling sliding follows the
    configured policy; staying on the branch is the (deterministic) default.
    """
    opts = opts or IntegratorOptions()
    t, t1 = _forward(t_span, "Filippov")
    traj = Trajectory(meta={"kind": "filippov"})
    run = _FilippovRun(sys, opts, traj, t1)
    y = tuple(map(float, x0))
    if abs(y[0]) <= EVENT_TOL:
        action = run.decide_surface(t, (y[0], y[1], y[2]))
    else:
        # the first flow segment writes the start sample
        action = ("flow", 1 if y[0] > 0 else -1)
    while action and t < t1:
        if action[0] == "flow":
            action = run.run_flow(t, y, action[1])
        else:
            action = run.run_slide(t, y, action[1])
        t, y = traj.times[-1], traj.final_state
    return traj
