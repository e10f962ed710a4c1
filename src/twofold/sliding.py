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
Its coefficients, the side values and region test, the root filter and a
slide's branch root are source text, compiled into the per-point calls
(`surface_quadratic`, `contact`, `roots_of_sides`, `slide_root`); one
slide-map row kernel per `surface_grid` inlines the cell's part of it.
"""

from __future__ import annotations

from collections import namedtuple

from .fields import (CITARDAUQ_SOURCE, DISC_SOURCE, QUADRATIC_SOURCE, WEIGHTS_SOURCE,
                     PiecewiseSmoothSystem, TwoFoldParams, compile_function, indented)

__all__ = [
    "SlidingSolution", "CurveL", "surface_quadratic",
    "roots_of_sides", "sliding_lambda", "curve_L",
    "contact", "slide_root", "region_classify", "surface_grid",
    "RESIDUAL_TOL", "CLASSIFY_TOL",
]

# tolerances: solver residuals, sign classification
RESIDUAL_TOL = 1e-12
CLASSIFY_TOL = 1e-12

CURVE_SAMPLES = 201          # points of the sampled non-hyperbolic curve

ATTRACTING = "attracting"
REPELLING = "repelling"


class SlidingSolution(namedtuple("SlidingSolution", "lam slide_vector stability double_root",
                                 defaults=(False,))):
    """One root lam of f1(0, x2, x3; lam) = 0 with the slide it generates:
    slide_vector (x2', x3'), stability 'attracting' iff df1/dlam < 0, and
    double_root when the discriminant is within tolerance of zero."""

    __slots__ = ()


class CurveL(namedtuple("CurveL", "points tangents")):
    """Sampled non-hyperbolic curve: points (lam, x2, x3) with tangents."""

    __slots__ = ()

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lambda,x2,x3,tx_lambda,tx_x2,tx_x3\n")
            for (l, x2, x3), (t1, t2, t3) in zip(self.points, self.tangents):
                fh.write(f"{l!r},{x2!r},{x3!r},{t1!r},{t2!r},{t3!r}\n")


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
# first components of f_plus, f_minus and g there): `contact` and
# `roots_of_sides` are compiled from it, and `surface_grid` inlines it in one
# row kernel.  _SIDES sets fp and fm, f1 at lam = +1 and -1 with the layer
# kernel's weights, so a non-finite term spoils both, as in `layer`; _REGION
# classifies the point by their signs.
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
# - (fp1 + fm1)/2 - g1 (the negated `_COEFFICIENTS`), where each root keeps
# the Citardauq formula it has always come from; f1's own swaps them where
# b = 0, in the last bit.  A root counts when it lies in [-1, 1] and f1
# vanishes there to RESIDUAL_TOL times max(1, |fp1| + |fm1| + |g1|).
_ROOTS = f"""\
a = g1; b = -(0.5 * (fp1 - fm1)); c = -(0.5 * (fp1 + fm1) + g1); tol = {RESIDUAL_TOL!r}
{QUADRATIC_SOURCE}roots = []
for lam in rs:
    if -1.0 - {RESIDUAL_TOL!r} <= lam <= 1.0 + {RESIDUAL_TOL!r}:
        # clamped; negating a zero b or c can leave a -0.0 root, + 0.0 folds it
        lam = ((lam if lam < 1.0 else 1.0) if lam > -1.0 else -1.0) + 0.0
        # f1 at lam with the layer kernel's weights, in its order
""" + indented(WEIGHTS_SOURCE, " " * 8) + f"""\
        t = abs(fp1) + abs(fm1) + abs(g1)
        if abs(wp * fp1 + wm * fm1 + wh * g1) <= {RESIDUAL_TOL!r} * (t if t > 1.0 else 1.0):
            roots.insert(0 if roots and lam < roots[0] else len(roots), lam)
"""
# _COEFFICIENTS sets f1's a, b, c, exact because g does not depend on lam;
# _BRANCH sets lam, the root on branch sigma, and disc, DISC_SOURCE's value
# before the root's clamp at zero (1.0 on the linear root, a = 0).
_COEFFICIENTS = "a = -g1; b = 0.5 * (fp1 - fm1); c = 0.5 * (fp1 + fm1) + g1\n"
_BRANCH = DISC_SOURCE + """\
if a == 0.0:
    lam = 0.0 if b == 0.0 else -c / b; disc = 1.0
else:
    s = sqrt(0.0 if disc < 0.0 else disc)
""" + indented(CITARDAUQ_SOURCE, "    ") + """\
    lam = r2 if sigma > 0 else r1
"""
surface_quadratic = compile_function(
    "surface_quadratic(fp1, fm1, g1)", _COEFFICIENTS, "a, b, c",
    "(a, b, c) with f1(0, x2, x3; lam) = a lam^2 + b lam + c at a point whose "
    "f1 terms are fp1, fm1, g1; df1/dlam = 2 a lam + b.")
contact = compile_function("contact(fp1, fm1, g1)", _SIDES + _REGION, "fp, fm, region",
                           "f1 at lam = +1 and -1 and the region of a surface point "
                           "whose f1 terms are fp1, fm1, g1.")
slide_root = compile_function("slide_root(fp1, fm1, g1, sigma)", _COEFFICIENTS + _BRANCH,
                              "lam, -g1, disc", """\
(lam, a, disc) of a slide on branch sigma (-1 attracting, +1 repelling) at
a point whose f1 terms are fp1, fm1, g1: the branch root (the linear root
where a = 0), f1's lam^2 coefficient and the branch-fold monitor `_BRANCH`
sets; the root's clamp keeps stages just past the branch fold finite.""")
roots_of_sides = compile_function("roots_of_sides(fp1, fm1, g1)", _ROOTS,
                                  "[(lam, dbl) for lam in roots]", "The (lam, double_root) "
                                  "pairs of `_ROOTS` at a point whose f1 terms are fp1, fm1, g1.")


def region_classify(sys: PiecewiseSmoothSystem, x2: float, x3: float) -> str:
    """The `contact` region of the surface point (0, x2, x3) of `sys`."""
    return contact(*sys.f1_sides(x2, x3))[2]


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
