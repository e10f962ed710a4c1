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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import PiecewiseSmoothSystem, TwoFoldParams, citardauq, quadratic_roots

__all__ = [
    "SlidingSolution", "CurveL", "DegeneracyReport",
    "surface_quadratic", "branch_root",
    "roots_of_sides", "sliding_roots", "sliding_lambda",
    "side_values", "region_of_sides", "region_classify", "surface_grid",
    "curve_L", "degeneracy_report",
    "RESIDUAL_TOL", "CLASSIFY_TOL",
]

# tolerances: solver residuals, sign classification
RESIDUAL_TOL = 1e-12
CLASSIFY_TOL = 1e-12

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


@dataclass(frozen=True)
class DegeneracyReport:
    is_degenerate: bool
    d2f1_dlambda2: float          # constant along the curve: -2 alpha
    alpha: float


def surface_quadratic(fp1: float, fm1: float, g1: float) -> tuple[float, float, float]:
    """(a, b, c) with f1(0, x2, x3; lam) = a lam^2 + b lam + c, from the
    first components fp1, fm1, g1 of f_plus, f_minus and g there; exact
    because g does not depend on lam.  df1/dlam = 2 a lam + b."""
    return (-g1, 0.5 * (fp1 - fm1), 0.5 * (fp1 + fm1) + g1)


def branch_root(a: float, b: float, c: float, sigma: int) -> float:
    """The root of a lam^2 + b lam + c on branch sigma (-1 attracting, +1
    repelling), or the linear root when a = 0 (0.0 when b = 0 too).  The
    discriminant is clamped at zero, so stages just past the branch fold
    stay finite; a slide's disc monitor locates the fold itself."""
    if a == 0.0:
        if b == 0.0:
            return 0.0
        return -c / b
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        disc = 0.0
    r_minus, r_plus = citardauq(a, b, c, math.sqrt(disc))
    return r_plus if sigma > 0 else r_minus


def roots_of_sides(fp1: float, fm1: float, g1: float,
                   x2: float, x3: float) -> list[tuple[float, bool]]:
    """All sliding values of lam at (0, x2, x3) as (lam, double_root) pairs,
    sorted ascending, from the first components fp1, fm1, g1 of f_plus,
    f_minus and g there.

    f1 is solved in the orientation of -f1 (the negated `surface_quadratic`):
    -f1 = g1 lam^2 + (fm1 - fp1)/2 lam - (fp1 + fm1)/2 - g1; for the normal
    form the coefficients are alpha, (x2+x3)/2 and (x2-x3)/2 - alpha.  A root
    counts when it lies in [-1, 1] and f1 vanishes there to RESIDUAL_TOL.
    Crossing regions give an empty list.
    """
    roots = []
    # in -f1's orientation each root keeps the Citardauq formula it has
    # always come from; f1's own swaps them where b = 0, in the last bit
    for lam, dbl in quadratic_roots(g1, -(0.5 * (fp1 - fm1)),
                                    -(0.5 * (fp1 + fm1) + g1), RESIDUAL_TOL):
        if -1.0 - RESIDUAL_TOL <= lam <= 1.0 + RESIDUAL_TOL:
            # negating a zero b or c can leave a -0.0 root; + 0.0 folds it
            lam = min(1.0, max(-1.0, lam)) + 0.0
            # f1 at lam with the layer kernel's weights, in its order
            wp = 0.5 * (1.0 + lam); wm = 0.5 * (1.0 - lam); wh = 1.0 - lam * lam
            if abs(wp * fp1 + wm * fm1 + wh * g1) <= max(RESIDUAL_TOL,
                                                         RESIDUAL_TOL * (abs(x2) + abs(x3))):
                roots.append((lam, dbl))
    if len(roots) == 2 and roots[1][0] < roots[0][0]:
        roots.reverse()
    return roots


def sliding_roots(sys: PiecewiseSmoothSystem, x2: float, x3: float) -> list[tuple[float, bool]]:
    """`roots_of_sides` at the surface point (0, x2, x3) of `sys`."""
    return roots_of_sides(*sys.f1_sides(x2, x3), x2, x3)


def sliding_lambda(sys: PiecewiseSmoothSystem, x2: float, x3: float) -> list[SlidingSolution]:
    """The roots of `sliding_roots`, each with its slide vector and the
    stability of its layer equilibrium."""
    sides = sys.f1_sides(x2, x3)
    a, b, _ = surface_quadratic(*sides)
    sols = []
    for lam, dbl in roots_of_sides(*sides, x2, x3):
        stab = ATTRACTING if 2.0 * a * lam + b < 0.0 else REPELLING
        f = sys.layer(0.0, x2, x3, lam)
        sols.append(SlidingSolution(lam, (f[1], f[2]), stab, dbl))
    return sols


CROSSING = "crossing"
ATTRACTING_SLIDING = "attracting-sliding"
REPELLING_SLIDING = "repelling-sliding"
TANGENCY = "tangency"


def side_values(fp1: float, fm1: float, g1: float) -> tuple[float, float]:
    """f1 at lam = +1 and at lam = -1 from fp1, fm1 and g1."""
    # the layer kernel's weights at lam = +1 and -1, so a non-finite
    # component spoils f1 on both sides, as it does in `layer`
    return 1.0 * fp1 + 0.0 * fm1 + 0.0 * g1, 0.0 * fp1 + 1.0 * fm1 + 0.0 * g1


def region_of_sides(fp: float, fm: float) -> str:
    """Classify a surface point by the signs of f1 on the two sides, from
    its values fp at lam = +1 and fm at lam = -1 (`side_values`)."""
    if abs(fp) <= CLASSIFY_TOL or abs(fm) <= CLASSIFY_TOL:
        return TANGENCY
    if fp < 0.0 < fm:
        return ATTRACTING_SLIDING
    if fm < 0.0 < fp:
        return REPELLING_SLIDING
    return CROSSING


def region_classify(sys: PiecewiseSmoothSystem, x2: float, x3: float) -> str:
    """`region_of_sides` at the surface point (0, x2, x3) of `sys`."""
    return region_of_sides(*side_values(*sys.f1_sides(x2, x3)))


def surface_grid(sys: PiecewiseSmoothSystem, axis) -> tuple[list, list]:
    """Region and sliding lambdas of every cell of the surface grid with x2
    and x3 both running over `axis`: regions[i][j] and roots[i][j] belong to
    (x2, x3) = (axis[i], axis[j]).  Each cell evaluates the three first
    components once and gives them to `roots_of_sides`, and their side
    values to `region_of_sides`."""
    sides = sys.f1_sides
    regions, roots = [], []
    for x2 in axis:
        region_row, roots_row = [], []
        for x3 in axis:
            fp1, fm1, g1 = sides(x2, x3)
            region_row.append(region_of_sides(*side_values(fp1, fm1, g1)))
            roots_row.append([lam for lam, _ in roots_of_sides(fp1, fm1, g1, x2, x3)])
        regions.append(region_row)
        roots.append(roots_row)
    return regions, roots


def curve_L(p: TwoFoldParams, n: int) -> CurveL:
    """Sample the non-hyperbolic curve of the normal form over lam in [-1, 1].

    Each point satisfies f1 = 0 and df1/dlam = 0; the tangent is the exact
    derivative (1, 2 alpha (lam-1), -2 alpha (lam+1)) of the closed form.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    pts = []
    tans = []
    a = p.alpha
    for k in range(n):
        lam = -1.0 + 2.0 * k / (n - 1)
        pts.append((lam, a * (lam - 1.0) ** 2, -a * (lam + 1.0) ** 2))
        tans.append((1.0, 2.0 * a * (lam - 1.0), -2.0 * a * (lam + 1.0)))
    return CurveL(tuple(pts), tuple(tans))


def degeneracy_report(p: TwoFoldParams) -> DegeneracyReport:
    """Second lam-derivative of f1 along the non-hyperbolic curve.

    It equals -2 alpha everywhere, so the layer problem is degenerate exactly
    when alpha = 0: then f1 vanishes identically in lam at the two-fold and
    every higher lam-derivative is zero as well.
    """
    return DegeneracyReport(is_degenerate=(p.alpha == 0.0),
                            d2f1_dlambda2=-2.0 * p.alpha,
                            alpha=p.alpha)
