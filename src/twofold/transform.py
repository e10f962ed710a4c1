"""Coordinate-change pipeline from the blown-up layer system onto the local
folded-singularity model, with a numerical order-of-accuracy verification.

The chain, applied around one folded singularity (lam_s, x2s, x3s):

  1. translation      y  = (lam - lam_s, x2 - x2s, x3 - x3s)
  2. rectification    z  = (y1 - y1L(y3), y2 - y2L(y3), y3)      (straightens L)
  3. corrective shift z2~ = z2 - eps f3s / (alpha (1 + lam_s)^2)
  4. scaling          x~ = (sqrt|alpha| z1, -sign(alpha) d1 z2~, -sign(alpha) z3)

together with the time reversal t~ = -sign(alpha) t.  In these variables the
layer system agrees with

    (eps/sqrt|alpha|) dx1~/dt~ = x2~ + x1~^2 + r1
                      dx2~/dt~ = b~ x3~ + c~ x1~ + r2
                      dx3~/dt~ = a~ + r3

where r1, r2 are quadratically small in the sample radius once eps is tied to
it, while r3 is only linearly small (the third row of the model keeps just
its constant part).  The residual check therefore measures rows 1 and 2 and
couples eps = h to the sphere radius h; their maximum must shrink like h^2.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .fields import PiecewiseSmoothSystem, TwoFoldParams, is_number, normal_form_system
from .singularities import (ALPHA_FLOOR, BOUNDARY_TOL, FoldedSingularity,
                            folded_singularities)

__all__ = [
    "TransformContext", "TransformDomainError",
    "chart", "from_x_tilde", "folded_normal_field",
    "equivalence_residual", "transform_check",
]


class TransformDomainError(ValueError):
    """Point outside the rectification domain (1+lam_s)^2 - y3/alpha >= 0,
    a residual outside (0, inf), which has no logarithm for the order fit,
    or a smallest residual that does not clear rounding near lam_s = -1."""


class TransformContext(namedtuple("TransformContext", "params singularity epsilon system")):
    """Parameters, target singularity and the timescale ratio of one
    transform instance, with `normal_form_system(params)`, whose compiled
    layer contexts that share `params` may share.  Immutable; all maps below
    are pure functions.
    """

    __slots__ = ()

    def __new__(cls, params: TwoFoldParams, singularity: FoldedSingularity, epsilon: float,
                system: PiecewiseSmoothSystem):
        if abs(params.alpha) <= ALPHA_FLOOR:
            raise ValueError(f"transform requires |alpha| > {ALPHA_FLOOR}")
        if abs(1.0 + singularity.lambda_s) <= BOUNDARY_TOL:
            raise ValueError("transform requires lam_s away from -1")
        if not (is_number(epsilon) and 0.0 < epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        return super().__new__(cls, params, singularity, epsilon, system)


def _curve(ls, al, y3):
    """(y1L, y2L, y1L', y2L') parameterizing the non-hyperbolic curve by y3,
    around the singularity at lam_s = ls, for alpha = al.

    y1L(y3) = -1 - lam_s + sqrt((1+lam_s)^2 - y3/alpha) is the branch through
    the singularity (y1L(0) = 0); y2L = -y3 - 4 alpha y1L.
    """
    arg = (1.0 + ls) ** 2 - y3 / al
    scale = (1.0 + ls) ** 2 + abs(y3 / al)
    if arg < 0.0:
        if arg > -1e-12 * scale:     # rounding at the domain boundary
            arg = 0.0
        else:
            raise TransformDomainError(
                f"y3 = {y3} outside the rectification domain (argument {arg:.3e})")
    root = math.sqrt(arg)
    y1l = -1.0 - ls + root
    y2l = -y3 - 4.0 * al * y1l
    denom = 1.0 + ls + y1l            # equals the square root above
    if denom == 0.0:
        # chart boundary: the parameterization by y3 turns vertical
        y1lp = math.copysign(math.inf, -al)
        y2lp = math.copysign(math.inf, 1.0 - ls - y1l)
    else:
        y1lp = (-1.0 / (2.0 * al)) / denom
        y2lp = (1.0 - ls - y1l) / denom
    return (y1l, y2l, y1lp, y2lp)


def _shift(eps, f3s, al, ls) -> float:
    """The corrective shift of z2 at eps, f3s, alpha = al and lam_s = ls."""
    return eps * f3s / (al * (1.0 + ls) ** 2)


def chart(ctx: TransformContext, point):
    """(x~, w) at `point`, from one translation and one evaluation of the
    curve functions.

    x~ is the full chain (lam, x2, x3) -> (x1~, x2~, x3~).  w is the layer
    field (dlam/dt, dx2/dt, dx3/dt) = (F1/eps, F2, F3) pushed to x~ as d/dt~
    rates: the rows J . V with the time reversal t~ = -sign(alpha) t applied.
    Each record field is read once: this runs at every sample point.
    """
    params, s, eps, system = ctx
    al, ls = params.alpha, s.lambda_s
    lam, x2, x3 = point
    y1, y2, y3 = lam - ls, x2 - s.x2s, x3 - s.x3s
    y1l, y2l, y1lp, y2lp = _curve(ls, al, y3)
    sq = math.sqrt(abs(al))
    sgn = 1.0 if al > 0 else -1.0
    d1 = s.d1
    xt = (sq * (y1 - y1l), -sgn * d1 * (y2 - y2l - _shift(eps, s.f3s, al, ls)), -sgn * y3)
    F1, F2, F3 = system.layer(0.0, x2, x3, lam)
    dx1 = sq * (F1 / eps - y1lp * F3)
    dx2 = -sgn * d1 * (F2 - y2lp * F3)
    dx3 = -sgn * F3
    return xt, (-sgn * dx1, -sgn * dx2, -sgn * dx3)


def from_x_tilde(ctx: TransformContext, xt):
    """Inverse chain on the rectification domain."""
    params, s, eps, _ = ctx
    al, ls = params.alpha, s.lambda_s
    sgn = 1.0 if al > 0 else -1.0
    d1 = s.d1
    z1 = xt[0] / math.sqrt(abs(al))
    z2t = xt[1] / (-sgn * d1)
    y3 = -sgn * xt[2]
    y1l, y2l, _, _ = _curve(ls, al, y3)
    return (z1 + y1l + ls, z2t + _shift(eps, s.f3s, al, ls) + y2l + s.x2s, y3 + s.x3s)


def folded_normal_field(a_tilde: float, b_tilde: float, c_tilde: float, xt):
    """Truncated local model at x~: the first row in primed form
    x1~' = eps dx1~/dt~, the other two as d/dt~ rates."""
    x1t, x2t, x3t = xt
    return (x2t + x1t * x1t, b_tilde * x3t + c_tilde * x1t, a_tilde)


# sample directions on each sphere of the residual check
N_DIRS = 40


def _sphere_directions():
    """N_DIRS deterministic unit directions (Fibonacci lattice on the sphere)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    for k in range(N_DIRS):
        z = 1.0 - (2.0 * k + 1.0) / N_DIRS
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = 2.0 * math.pi * k / golden
        yield r * math.cos(phi), r * math.sin(phi), z


_DIRECTIONS = tuple(_sphere_directions())


def equivalence_residual(ctx: TransformContext) -> float:
    """Max residual of rows 1 and 2 over N_DIRS points of a sphere of radius
    eps around the singularity: the sample radius is coupled to the
    timescale ratio, as the order study requires.

    Row 1 is compared in primed form: the pushed-forward dx1~/dt~ times
    eps/sqrt|alpha| against x2~ + x1~^2 (the sqrt|alpha| absorbs the constant
    the scaling stage leaves in front of the fast row).  Row 3 is excluded:
    the model keeps only its constant term, so its defect is first order by
    construction and carries no information about the match.
    """
    eps = ctx.epsilon
    s = ctx.singularity
    sq = math.sqrt(abs(ctx.params.alpha))
    worst = 0.0
    for u in _DIRECTIONS:
        point = (s.lambda_s + eps * u[0], s.x2s + eps * u[1], s.x3s + eps * u[2])
        xt, (w1, w2, _) = chart(ctx, point)   # raises TransformDomainError outside
        model = folded_normal_field(s.a_tilde, s.b_tilde, s.c_tilde, xt)
        r1 = (eps / sq) * w1 - model[0]
        r2 = w2 - model[1]
        worst = max(worst, abs(r1), abs(r2))
    return worst


# The sphere radii of one singularity are h = min(R, 1) * RUNGS, with
# R = |alpha| (1 + lam_s)^2 the size of its rectification domain
# (1 + lam_s)^2 - y3/alpha >= 0: the largest sphere is at most a hundredth
# of the domain, however small R is.
RUNGS = (1e-2, 1e-3, 1e-4, 1e-5)
SLOPE_TARGET = 2.0
SLOPE_TOL = 0.1
# The rounding limit near lam_s = -1.  Row 2's defect at the singularity is
# -Q(lam_s)/4, Q the existence quadratic; Q(-1) = -4 a2, so at a root with
# 1 + lam_s = d small, |Q'(lam_s)| is about 4/d, and the rounding error of
# lam_s, an ulp or two (up to EPS), moves row 2 by up to EPS/d on every
# sphere.  The residual itself does not scale with R: it reads C rung^2, C
# from 0.005 to 3.5 over the draws of the tests.  So the smallest rung's
# residual must clear the floor EPS/(1 + lam_s) ROUNDING_MARGIN times over,
# which keeps the floor's pull on the fitted slope below
# 0.3 log10(1 + 1/(ROUNDING_MARGIN - 1)) = 0.014.  At a1 = 1, a2 = -1,
# b1 = -b2 (C = 0.24) the bound reads 1 + lam_s >= 9e-5.
ROUNDING_MARGIN = 10.0
EPS = sys.float_info.epsilon


def transform_check(p: TwoFoldParams) -> dict:
    """Order study of the residual of every folded singularity of `p`, with
    eps coupled to the sample radius.

    Each singularity is sampled on its own ladder h = min(R, 1) * RUNGS,
    R = |alpha| (1 + lam_s)^2.  Returns a report dict per singularity: R,
    h_values, residuals, the log-log slope, and pass = |slope - 2| <= 0.1.
    Raises TransformDomainError when a residual is not positive and finite,
    or when the smallest one does not clear the rounding floor near
    lam_s = -1, where no slope could be read.
    """
    sings = folded_singularities(p)
    # one system, compiled once, serves every rung of every ladder
    system = normal_form_system(p) if sings else None
    reports = []
    for s in sings:
        d = 1.0 + s.lambda_s
        R = abs(p.alpha) * d * d
        h_values = [min(R, 1.0) * rung for rung in RUNGS]
        residuals = [equivalence_residual(TransformContext(p, s, h, system)) for h in h_values]
        if not all(0.0 < r < math.inf for r in residuals):
            raise TransformDomainError(f"residuals {residuals} at lam_s = {s.lambda_s!r} "
                                       "are not all positive and finite")
        floor = EPS / d
        if residuals[-1] < ROUNDING_MARGIN * floor:
            raise TransformDomainError(
                f"1 + lam_s = {d:.3e} is past the rounding limit: the smallest residual "
                f"{residuals[-1]:.3e} is below {ROUNDING_MARGIN:g} times the rounding floor "
                f"EPS/(1 + lam_s) = {floor:.3e}")
        lx = [math.log10(h) for h in h_values]
        ly = [math.log10(r) for r in residuals]
        mx = sum(lx) / len(lx)
        my = sum(ly) / len(ly)
        slope = (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
                 / sum((a - mx) ** 2 for a in lx))
        reports.append({
            "params": p._asdict(),
            "lambda_s": s.lambda_s,
            "R": R,
            "h_values": h_values,
            "residuals": residuals,
            "slope": slope,
            "pass": abs(slope - SLOPE_TARGET) <= SLOPE_TOL,
        })
    return {"checks": reports, "pass": all(r["pass"] for r in reports)}
