"""Two-fold flavours, folded singularities and their classification.

The layer problem of the normal form pins folded singularities at parameter
values lam_s solving

    (a1 - a2 + b1 - b2) l^2 + 2 (a1 + a2) l + (a1 - a2) - (b1 - b2) = 0

restricted to [-1, +1]; working with the cleared-denominator quadratic keeps
the operation total at b1 = b2 (where the leading coefficient vanishes and
the equation degrades to a linear one).  Each root carries the derived
constants of the local slow-fast model

    eps x1~' = x2~ + x1~^2,   x2~' = b~ x3~ + c~ x1~,   x3~' = a~

whose projection onto the critical manifold x2~ = -x1~^2 is, after dropping
the singular prefactor 1/(-2 x1~), the linear map [[c~, b~], [-2 a~, 0]]:
trace c~, determinant 2 a~ b~, eigenvalues (c~ +- sqrt(c~^2 - 8 a~ b~))/2.
`_model_constants` derives each root's constants and `_slow_flow_kind` is
the one classifier; `folded_singularities` builds the full record of each
root from them, and `folded_types` keeps only the type.

Each quantity has one private core in plain floats (a1, a2, b1, b2, alpha):
`_flavor`, `_lambdas`, `_model_constants` and `_types`.  The per-point API
takes a validated `TwoFoldParams` and calls them; `sweep_grid` validates its
fixed a1, a2 and alpha once and calls them for every (b1, b2) cell.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fields import TwoFoldParams, quadratic_roots

__all__ = [
    "TwoFoldFlavor", "FoldedSingularity", "AlphaZeroError",
    "BoundarySingularityError", "classify_two_fold", "folded_singularities",
    "folded_types", "singularity_lambdas", "sweep_grid",
]

ALPHA_FLOOR = 1e-9
BOUNDARY_TOL = 1e-9

VISIBLE = "visible"
INVISIBLE = "invisible"
MIXED = "mixed"

FOLDED_SADDLE = "folded-saddle"
FOLDED_NODE = "folded-node"
FOLDED_FOCUS = "folded-focus"
DEGENERATE = "degenerate"

CANARD = "canard"
FAUX_CANARD = "faux-canard"
NEUTRAL = "neutral"


class AlphaZeroError(ValueError):
    """Folded-singularity constants need a nonzero hidden coefficient."""


class BoundarySingularityError(ValueError):
    """lam_s too close to -1; the derived constants divide by 1 + lam_s."""


@dataclass(frozen=True)
class TwoFoldFlavor:
    tag: str                      # visible / invisible / mixed
    determinacy_breaking: bool


# the six flavours, (not determinacy breaking, determinacy breaking) by tag
_FLAVORS = {tag: (TwoFoldFlavor(tag, False), TwoFoldFlavor(tag, True))
            for tag in (VISIBLE, INVISIBLE, MIXED)}


def _flavor(a1: int, a2: int, b1: float, b2: float) -> TwoFoldFlavor:
    """`classify_two_fold` in plain numbers; one of the six `_FLAVORS`."""
    if a1 == a2 == -1:
        return _FLAVORS[VISIBLE][(b1 < 0.0) or (b2 < 0.0) or (b1 * b2 < 1.0)]
    if a1 == a2 == 1:
        return _FLAVORS[INVISIBLE][(b1 < 0.0) and (b2 < 0.0) and (b1 * b2 > 1.0)]
    c1, c2 = (b1, b2) if a1 == -1 else (b2, b1)
    return _FLAVORS[MIXED][((c1 < 0.0 < c2) and (c1 * c2 < -1.0))
                           or ((c1 + c2 < 0.0) and (c1 - c2 < -2.0))]


def classify_two_fold(p: TwoFoldParams) -> TwoFoldFlavor:
    """Flavour by the fold curvatures, determinacy breaking by the drift.

    The mixed-case condition is stated for the orientation a1 = -1, a2 = +1;
    the opposite orientation is its mirror under the relabelling
    (x1, x2, x3) -> (-x1, x3, x2), which swaps (a1, b1) with (a2, b2).
    """
    return _flavor(p.a1, p.a2, p.b1, p.b2)


def _lambdas(a1: int, a2: int, b1: float, b2: float) -> list[float]:
    """`singularity_lambdas` in plain numbers."""
    roots = [l + 0.0 for l, _ in quadratic_roots((a1 - a2) + (b1 - b2), 2.0 * (a1 + a2),
                                                 (a1 - a2) - (b1 - b2), 0.0)
             if -1.0 <= l <= 1.0]   # + 0.0 folds -0.0
    if len(roots) == 2 and roots[1] < roots[0]:
        roots.reverse()
    return roots


def singularity_lambdas(p: TwoFoldParams) -> list[float]:
    """Roots lam_s in [-1, +1] of the existence quadratic, ascending.

    For a1 = a2 there is exactly one; for mixed curvatures there are two when
    the oriented drift difference exceeds 2 in magnitude and none otherwise
    (at the exact threshold the pair merges into a double root, returned once).
    """
    return _lambdas(p.a1, p.a2, p.b1, p.b2)


def _slow_flow_kind(a_tilde: float, b_tilde: float, c_tilde: float):
    """(type, a~ b~, c~^2 - 8 a~ b~) of the projected slow flow: saddle if
    a~ b~ < 0, node if 0 < 8 a~ b~ < c~^2, focus if c~^2 < 8 a~ b~, and
    'degenerate' on an exact boundary between them."""
    prod = a_tilde * b_tilde
    disc = c_tilde * c_tilde - 8.0 * prod
    if prod == 0.0 or disc == 0.0:
        kind = DEGENERATE
    elif prod < 0.0:
        kind = FOLDED_SADDLE
    elif disc > 0.0:
        kind = FOLDED_NODE
    else:
        kind = FOLDED_FOCUS
    return kind, prod, disc


def _slow_flow_type(a_tilde: float, b_tilde: float, c_tilde: float):
    """(type, canard_flag, eigenvalues, trace, det) of the projected slow
    flow, its type from `_slow_flow_kind`."""
    kind, prod, disc = _slow_flow_kind(a_tilde, b_tilde, c_tilde)
    root = cmath.sqrt(complex(disc, 0.0))
    eigenvalues = (0.5 * (c_tilde + root), 0.5 * (c_tilde - root))
    if c_tilde > 0.0:
        canard = CANARD
    elif c_tilde < 0.0:
        canard = FAUX_CANARD
    else:
        canard = NEUTRAL
    return kind, canard, eigenvalues, c_tilde, 2.0 * prod


@dataclass(frozen=True)
class FoldedSingularity:
    """Location, derived constants and type of one folded singularity."""

    lambda_s: float
    x2s: float
    x3s: float
    f2s: float
    f3s: float
    c: float
    b: float
    d1: float
    a_tilde: float
    b_tilde: float
    c_tilde: float
    folded_type: str              # folded-saddle / folded-node / folded-focus / degenerate
    canard: str                   # canard / faux-canard / neutral (slow-fast model time)
    canard_original_time: str     # same flag mapped back through t~ = -sign(alpha) t
    eigenvalues: tuple[complex, complex]
    trace: float
    det: float

    def to_json_dict(self) -> dict:
        return {
            "lambda_s": self.lambda_s, "x2s": self.x2s, "x3s": self.x3s,
            "f2s": self.f2s, "f3s": self.f3s, "c": self.c, "b": self.b,
            "d1": self.d1, "a_tilde": self.a_tilde, "b_tilde": self.b_tilde,
            "c_tilde": self.c_tilde, "type": self.folded_type,
            "canard": self.canard,
            "canard_original_time": self.canard_original_time,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "trace": self.trace, "det": self.det,
        }


_FLIP = {CANARD: FAUX_CANARD, FAUX_CANARD: CANARD, NEUTRAL: NEUTRAL}


def _model_constants(a1: int, a2: int, b1: float, b2: float, alpha: float, ls: float):
    """(f2s, f3s, c, c~, b~) of the singularity at lam_s = ls.

    f2s, f3s are the slow components at the singularity; with f2l, f3l
    their lam-derivatives

        c  = f2l - (1-ls)/(1+ls) f3l
        c~ = -((ls+1) f2l + (ls-1) f3l) / (2 sqrt|alpha|)
        b~ = -(f2s + f3s - 2 c~ sqrt|alpha|) / (4 |alpha| (1 + ls))
    """
    if abs(1.0 + ls) <= BOUNDARY_TOL:
        raise BoundarySingularityError(f"lam_s = {ls} within {BOUNDARY_TOL} of -1")
    f2s = 0.5 * (a1 + b2) + 0.5 * (a1 - b2) * ls
    f3s = 0.5 * (b1 + a2) + 0.5 * (b1 - a2) * ls
    f2l = 0.5 * (a1 - b2)
    f3l = 0.5 * (b1 - a2)
    sq = math.sqrt(abs(alpha))
    c = f2l - (1.0 - ls) / (1.0 + ls) * f3l
    c_t = -((ls + 1.0) * f2l + (ls - 1.0) * f3l) / (2.0 * sq)
    b_t = -(f2s + f3s - 2.0 * c_t * sq) / (4.0 * abs(alpha) * (1.0 + ls))
    return f2s, f3s, c, c_t, b_t


def _build_singularity(p: TwoFoldParams, ls: float) -> FoldedSingularity:
    """Location, derived constants and type of the singularity at lam_s = ls:
    `_model_constants` plus

        b = 2 |alpha| b~ / (1 + ls),   a~ = f3s,   d1 = -(1 + ls)/2
    """
    f2s, f3s, c, c_t, b_t = _model_constants(p.a1, p.a2, p.b1, p.b2, p.alpha, ls)
    b = 2.0 * abs(p.alpha) * b_t / (1.0 + ls)
    kind, canard, eig, trace, det = _slow_flow_type(f3s, b_t, c_t)
    # the model lives in reversed time when alpha > 0
    canard_orig = _FLIP[canard] if p.alpha > 0 else canard
    return FoldedSingularity(
        lambda_s=ls,
        x2s=p.alpha * (ls - 1.0) ** 2,
        x3s=-p.alpha * (ls + 1.0) ** 2,
        f2s=f2s, f3s=f3s, c=c, b=b, d1=-0.5 * (1.0 + ls),
        a_tilde=f3s, b_tilde=b_t, c_tilde=c_t,
        folded_type=kind, canard=canard, canard_original_time=canard_orig,
        eigenvalues=eig, trace=trace, det=det)


def _check_alpha(alpha: float) -> None:
    """Raise AlphaZeroError unless alpha is past the floor."""
    if abs(alpha) <= ALPHA_FLOOR:
        raise AlphaZeroError(f"|alpha| = {abs(alpha)} below {ALPHA_FLOOR}")


def folded_singularities(p: TwoFoldParams) -> list[FoldedSingularity]:
    """All folded singularities of the normal form with hidden coefficient
    alpha, ascending in lam_s.  Empty when the existence quadratic has no
    admissible root (the focal-type sliding portraits)."""
    _check_alpha(p.alpha)
    return [_build_singularity(p, ls) for ls in _lambdas(p.a1, p.a2, p.b1, p.b2)]


def _types(a1: int, a2: int, b1: float, b2: float, alpha: float) -> list[str]:
    """`folded_types` in plain numbers, for an alpha past the floor."""
    types = []
    for ls in _lambdas(a1, a2, b1, b2):
        _, f3s, _, c_t, b_t = _model_constants(a1, a2, b1, b2, alpha, ls)
        types.append(_slow_flow_kind(f3s, b_t, c_t)[0])
    return types


def folded_types(p: TwoFoldParams) -> list[str]:
    """The `folded_type` of each of `folded_singularities(p)`, without the
    rest of the record; raises where `folded_singularities` does."""
    _check_alpha(p.alpha)
    return _types(p.a1, p.a2, p.b1, p.b2, p.alpha)


def sweep_grid(a1: int, a2: int, alpha: float, axis) -> list[list]:
    """(flavour, folded types) of every cell of the (b1, b2) grid with both
    drifts running over `axis`: grid[i][j] belongs to (b1, b2) = (axis[i],
    axis[j]) and equals (classify_two_fold(p), folded_types(p)) for its
    params p, with no types where |alpha| is at the floor (folded_types
    raises there).  a1, a2, alpha and the axis are checked once, as
    TwoFoldParams checks them; a BoundarySingularityError propagates."""
    if not all(map(math.isfinite, axis)):
        raise ValueError("the sweep axis must be finite")
    TwoFoldParams(a1, a2, 0.0, 0.0, alpha)
    try:
        _check_alpha(alpha)
    except AlphaZeroError:
        return [[(_flavor(a1, a2, b1, b2), []) for b2 in axis] for b1 in axis]
    return [[(_flavor(a1, a2, b1, b2), _types(a1, a2, b1, b2, alpha)) for b2 in axis]
            for b1 in axis]
