"""Dynamics inside the switching surface x1 = 0.

Blowing the jump up into a layer variable lam in [-1, +1] turns the surface
dynamics into the fast subsystem lam' = f1(0, x2, x3; lam).  Its equilibria
form the sliding manifold; where an equilibrium exists the surface carries
sliding motion (x2', x3') = (f2, f3) at the pinned lam.  The branches of the
manifold lose normal hyperbolicity on the curve where both f1 = 0 and
df1/dlam = 0; for the normal form that curve has the closed form
x2 = alpha (lam-1)^2, x3 = -alpha (lam+1)^2.

The hidden field g does not depend on lam, so f1 is exactly quadratic in lam
for every system and its sliding roots come from one closed-form quadratic
solve, with no sampling.  That quadratic lives here alone: every surface
quantity is derived from the triple (fp1, fm1, g1) that `f1_sides` gives.
The region test and the root filter are source text, compiled into the
per-point calls and inlined in one slide-map row kernel per `surface_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import (QUADRATIC_SOURCE, PiecewiseSmoothSystem, TwoFoldParams, compile_function,
                     indented)

__all__ = [
    "SlidingSolution", "CurveL", "surface_quadratic",
    "roots_of_sides", "sliding_lambda", "curve_L",
    "side_values", "region_of_sides", "region_classify", "surface_grid",
    "RESIDUAL_TOL", "CLASSIFY_TOL",
]

# tolerances: solver residuals, sign classification
RESIDUAL_TOL = 1e-12
CLASSIFY_TOL = 1e-12

CURVE_SAMPLES = 201          # points of the sampled non-hyperbolic curve

ATTRACTING = "attracting"
REPELLING = "repelling"


@dataclass(frozen=True)
class SlidingSolution:
    """One root lam of f1(0, x2, x3; lam) = 0 with the slide it generates."""

    lam: float
    slide_vector: tuple[float, float]
    stability: str                # 'attracting' iff df1/dlam < 0
    double_root: bool = False     # discriminant within tolerance of zero


@dataclass(frozen=True)
class CurveL:
    """Sampled non-hyperbolic curve: points (lam, x2, x3) with tangents."""

    points: tuple[tuple[float, float, float], ...]
    tangents: tuple[tuple[float, float, float], ...]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lambda,x2,x3,tx_lambda,tx_x2,tx_x3\n")
            for (l, x2, x3), (t1, t2, t3) in zip(self.points, self.tangents):
                fh.write(f"{l!r},{x2!r},{x3!r},{t1!r},{t2!r},{t3!r}\n")


def surface_quadratic(fp1: float, fm1: float, g1: float) -> tuple[float, float, float]:
    """(a, b, c) with f1(0, x2, x3; lam) = a lam^2 + b lam + c, from the
    first components fp1, fm1, g1 of f_plus, f_minus and g there; exact
    because g does not depend on lam.  df1/dlam = 2 a lam + b."""
    return (-g1, 0.5 * (fp1 - fm1), 0.5 * (fp1 + fm1) + g1)


def sliding_lambda(sys: PiecewiseSmoothSystem, x2: float, x3: float) -> list[SlidingSolution]:
    """The roots of `roots_of_sides` at (0, x2, x3) of `sys`, each with its
    slide vector and the stability of its layer equilibrium."""
    sides = sys.f1_sides(x2, x3)
    a, b, _ = surface_quadratic(*sides)
    sols = []
    for lam, dbl in roots_of_sides(*sides):
        stab = ATTRACTING if 2.0 * a * lam + b < 0.0 else REPELLING
        f = sys.layer(0.0, x2, x3, lam)
        sols.append(SlidingSolution(lam, (f[1], f[2]), stab, dbl))
    return sols


CROSSING = "crossing"
ATTRACTING_SLIDING = "attracting-sliding"
REPELLING_SLIDING = "repelling-sliding"
TANGENCY = "tangency"


# One surface cell as source text, reading f1's terms fp1, fm1 and g1 (the
# first components of f_plus, f_minus and g there): `side_values`,
# `region_of_sides` and `roots_of_sides` are compiled from it, and
# `surface_grid` inlines it in one row kernel.  _SIDES sets fp and fm, f1 at
# lam = +1 and -1 with the layer kernel's weights, so a non-finite term
# spoils both, as in `layer`; _REGION classifies the point by their signs.
_SIDES = "fp = 1.0 * fp1 + 0.0 * fm1 + 0.0 * g1; fm = 0.0 * fp1 + 1.0 * fm1 + 0.0 * g1\n"
_REGION = f"""\
if abs(fp) <= {CLASSIFY_TOL!r} or abs(fm) <= {CLASSIFY_TOL!r}:
    region = {TANGENCY!r}
elif fp < 0.0 < fm:
    region = {ATTRACTING_SLIDING!r}
elif fm < 0.0 < fp:
    region = {REPELLING_SLIDING!r}
else:
    region = {CROSSING!r}
"""
# _ROOTS sets roots, the sliding values of lam in ascending order, and dbl,
# their double-root flag.  It solves -f1 = g1 lam^2 + (fm1 - fp1)/2 lam
# - (fp1 + fm1)/2 - g1 (the negated `surface_quadratic`), where each root
# keeps the Citardauq formula it has always come from; f1's own swaps them
# where b = 0, in the last bit.  A root counts when it lies in [-1, 1] and f1
# vanishes there to RESIDUAL_TOL times max(1, |fp1| + |fm1| + |g1|).
_ROOTS = f"""\
a = g1; b = -(0.5 * (fp1 - fm1)); c = -(0.5 * (fp1 + fm1) + g1); tol = {RESIDUAL_TOL!r}
{QUADRATIC_SOURCE}roots = []
for lam in rs:
    if -1.0 - {RESIDUAL_TOL!r} <= lam <= 1.0 + {RESIDUAL_TOL!r}:
        # clamped; negating a zero b or c can leave a -0.0 root, + 0.0 folds it
        lam = ((lam if lam < 1.0 else 1.0) if lam > -1.0 else -1.0) + 0.0
        # f1 at lam with the layer kernel's weights, in its order
        wp = 0.5 * (1.0 + lam); wm = 0.5 * (1.0 - lam); wh = 1.0 - lam * lam
        t = abs(fp1) + abs(fm1) + abs(g1)
        if abs(wp * fp1 + wm * fm1 + wh * g1) <= {RESIDUAL_TOL!r} * (t if t > 1.0 else 1.0):
            roots.insert(0 if roots and lam < roots[0] else len(roots), lam)
"""
side_values = compile_function("side_values(fp1, fm1, g1)", _SIDES, "fp, fm",
                               "f1 at lam = +1 and at lam = -1 from fp1, fm1 and g1.")
region_of_sides = compile_function("region_of_sides(fp, fm)", _REGION, "region",
                                   "The region of a surface point from its `side_values`.")
roots_of_sides = compile_function("roots_of_sides(fp1, fm1, g1)", _ROOTS,
                                  "[(lam, dbl) for lam in roots]", "The (lam, double_root) "
                                  "pairs of `_ROOTS` at a point whose f1 terms are fp1, fm1, g1.")


def region_classify(sys: PiecewiseSmoothSystem, x2: float, x3: float) -> str:
    """`region_of_sides` at the surface point (0, x2, x3) of `sys`."""
    return region_of_sides(*side_values(*sys.f1_sides(x2, x3)))


def surface_grid(sys: PiecewiseSmoothSystem, axis):
    """Region and sliding lambdas of every cell of the surface grid with x2
    and x3 both running over `axis`, yielded as (regions, roots) one x2 row
    at a time: row i, entry j belongs to (x2, x3) = (axis[i], axis[j]).  One
    kernel, compiled per call, computes a row: each cell evaluates f1's
    terms at x1 = 0 once, as `f1_sides` does, and runs the cell text on them."""
    p1, m1, g1 = (f.components[0].source() for f in (sys.f_plus, sys.f_minus, sys.hidden))
    cell = (f"fp1 = {p1}; fm1 = {m1}; g1 = {g1}\n{_SIDES}{_REGION}regions.append(region)\n"
            f"{_ROOTS}lams.append(roots)\n")
    row = compile_function("surface_row(x2, axis)", "x1 = 0.0\nregions = []; lams = []\n"
                           "for x3 in axis:\n" + indented(cell, "    "), "regions, lams")
    for x2 in axis:
        yield row(x2, axis)


def curve_L(p: TwoFoldParams) -> CurveL:
    """Sample the non-hyperbolic curve of the normal form at CURVE_SAMPLES
    evenly spaced lam in [-1, 1].

    Each point satisfies f1 = 0 and df1/dlam = 0; the tangent is the exact
    derivative (1, 2 alpha (lam-1), -2 alpha (lam+1)) of the closed form.
    """
    pts = []
    tans = []
    a = p.alpha
    for k in range(CURVE_SAMPLES):
        lam = -1.0 + 2.0 * k / (CURVE_SAMPLES - 1)
        pts.append((lam, a * (lam - 1.0) ** 2, -a * (lam + 1.0) ** 2))
        tans.append((1.0, 2.0 * a * (lam - 1.0), -2.0 * a * (lam + 1.0)))
    return CurveL(tuple(pts), tuple(tans))
