"""Smooth and piecewise-smooth vector fields on R^3 with a switching surface
at x1 = 0.

A piecewise-smooth system holds two smooth fields f_plus (active for x1 > 0)
and f_minus (x1 < 0) together with a hidden field g that only acts inside the
switching layer.  Off the surface the combined field

    f(x; lam) = (1+lam)/2 f_plus(x) + (1-lam)/2 f_minus(x) + (1-lam^2) g(x)

with lam = sign(x1) reproduces the two half-space fields exactly: the convex
weights are exactly 0/1 at lam = +-1 and the (1-lam^2) factor kills g there.

Every evaluator is compiled when a call first evaluates it, never when a
field or system is built, so a command compiles only what it runs.  Each
system compiles two kernels, on first use: the combination
(`compile_layer`) and the one surface kernel, the three first components at
x1 = 0 (`f1_sides`), from which `sliding` forms f1's lam-quadratic.  Every
consumer calls them: the sliding roots and regions, the Filippov contacts
and slides, the blow-up right-hand side and the transform check.  A
`SmoothField` compiles its own evaluator, `fn`, at its first read: only
Filippov flows and the grazing test read the half-space fields' `fn`, and
nothing reads the hidden field's.  A smoothed run compiles its own field,
df1/dx1 (`compile_df1_dx1`, a stiffness test per step) and its exact
Jacobian (`compile_jacobian`, at its first stiff step).  The quadratic has
one stable solver, `citardauq`, behind `quadratic_roots`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .expr import ZERO, Expr, Var, Neg, num, parse_expr

__all__ = [
    "SmoothField", "PiecewiseSmoothSystem", "TwoFoldParams",
    "parse_field", "normal_form_system",
    "compile_layer", "compile_jacobian", "compile_df1_dx1", "citardauq",
    "quadratic_roots",
]


class SmoothField:
    """Three expression trees plus a compiled evaluator.

    The evaluator is compiled at its first use, the first read of `fn` or
    the first call, and kept on the field; a field that is never evaluated
    is never compiled.  Immutable after construction otherwise; evaluation
    is pure and reentrant.
    """

    __slots__ = ("components", "_fn")

    def __init__(self, components: tuple[Expr, Expr, Expr]):
        self.components = tuple(components)

    def __getattr__(self, name):
        # reached only for an unset slot, that is `_fn` before its first use;
        # `_fn` itself is the lazy attribute, so code that reads it to wrap
        # it (perfbench's tracer does) gets the compiled evaluator too
        if name != "_fn":
            raise AttributeError(name)
        fn = self._fn = _compile("def fn(x1, x2, x3):\n    return ({}, {}, {})\n".format(
            *(c.source() for c in self.components)), "fn")
        return fn

    def __call__(self, x) -> tuple[float, float, float]:
        return self._fn(x[0], x[1], x[2])

    @property
    def fn(self):
        """Compiled (x1, x2, x3) -> (f1, f2, f3); the fast path for integrators.
        Compiled on the first read (or call) and the same object after it."""
        return self._fn

    def expressions(self) -> tuple[str, str, str]:
        """Canonical printed form; reparsing gives an identical tree."""
        return tuple(str(c) for c in self.components)

    def __repr__(self):
        return "SmoothField({!r}, {!r}, {!r})".format(*self.expressions())

    def __eq__(self, other):
        return isinstance(other, SmoothField) and self.components == other.components

    def __hash__(self):
        return hash(self.components)


def parse_field(expr1: str, expr2: str, expr3: str) -> SmoothField:
    """Build a field from three expression strings in x1, x2, x3."""
    return SmoothField(tuple(parse_expr(e) for e in (expr1, expr2, expr3)))


ZERO_FIELD_EXPRS = ("0", "0", "0")


@dataclass(frozen=True)
class TwoFoldParams:
    """Constants of the local normal form: a1, a2 in {-1, +1} set the fold
    curvatures, b1, b2 the transversal drift, alpha the hidden-term size."""

    a1: int
    a2: int
    b1: float
    b2: float
    alpha: float

    def __post_init__(self):
        if self.a1 not in (-1, 1) or self.a2 not in (-1, 1):
            raise ValueError(f"a1 and a2 must be +-1, got ({self.a1}, {self.a2})")
        if not all(map(math.isfinite, (self.b1, self.b2, self.alpha))):
            raise ValueError(f"b1, b2 and alpha must be finite, got "
                             f"({self.b1}, {self.b2}, {self.alpha})")


class PiecewiseSmoothSystem:
    """Pair (f_plus, f_minus) with hidden field g; switching coordinate is x1.

    Two kernels are compiled from the component sources once per system,
    on first use (classify and the smoothed runs never need them):

    * `layer(x1, x2, x3, lam) -> (f1, f2, f3)` is the combination with no
      range check, for callers whose lam may overshoot [-1, 1] by rounding;
    * `f1_sides(x2, x3) -> (fp1, fm1, g1)`, the one surface kernel, gives
      the first components of f_plus, f_minus and g at (0, x2, x3), which
      `sliding.surface_quadratic` turns into f1's lam-quadratic.

    `params` is set when the system is a normal-form instance.  It serves
    only two-fold detection in Filippov slides and the commands that need
    the normal-form constants; the fields themselves are always evaluated
    from the compiled components, with or without params.
    """

    def __init__(self, f_plus: SmoothField, f_minus: SmoothField,
                 hidden: SmoothField | None = None,
                 params: TwoFoldParams | None = None):
        self.f_plus = f_plus
        self.f_minus = f_minus
        self.hidden = hidden if hidden is not None else parse_field(*ZERO_FIELD_EXPRS)
        self.params = params

    @cached_property
    def layer(self):
        return compile_layer(self)

    @cached_property
    def f1_sides(self):
        p1, m1, g1 = (f.components[0].source()
                      for f in (self.f_plus, self.f_minus, self.hidden))
        return _compile("def f1_sides(x2, x3):\n"
                        "    x1 = 0.0\n"
                        f"    return ({p1}, {m1}, {g1})\n", "f1_sides")

    def combination(self, x, lam: float) -> tuple[float, float, float]:
        """Combined field at x for lam in [-1, +1]."""
        if not -1.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [-1, 1], got {lam}")
        # the sides themselves, not 1*f + 0*f': that sum turns -0.0 into 0.0
        if lam == 1.0:
            return self.f_plus(x)
        if lam == -1.0:
            return self.f_minus(x)
        return self.layer(x[0], x[1], x[2], lam)

    def f1_surface(self, x2: float, x3: float, lam: float) -> float:
        """First component of the combination at (0, x2, x3)."""
        return self.layer(0.0, x2, x3, lam)[0]

    def __repr__(self):
        return (f"PiecewiseSmoothSystem(f_plus={self.f_plus!r}, "
                f"f_minus={self.f_minus!r}, hidden={self.hidden!r})")


def _compile(src: str, name: str):
    """The function `name` defined by `src`."""
    # source generated from our own expression trees
    ns = {"__builtins__": {}, "tanh": math.tanh, "sqrt": math.sqrt}
    exec(src, ns)
    return ns[name]


def compile_layer(sys: PiecewiseSmoothSystem, lam_source: str | None = None):
    """The combination of `sys` as one flat compiled function.

    Without `lam_source` it is layer(x1, x2, x3, lam).  With `lam_source`,
    a Python expression in x1 that may call tanh and sqrt, lam is computed
    inside and the function is (x1, x2, x3) -> f: the smoothed field in one
    call, since stiff runs make about six of these calls per step.
    """
    p, m, g = ([c.source() for c in f.components]
               for f in (sys.f_plus, sys.f_minus, sys.hidden))
    head = (f"def layer(x1, x2, x3):\n    lam = {lam_source}\n" if lam_source is not None
            else "def layer(x1, x2, x3, lam):\n")
    rows = ",\n            ".join(f"wp*{p[i]}+wm*{m[i]}+wh*{g[i]}" for i in range(3))
    return _compile(head
                    + "    wp = 0.5*(1.0+lam); wm = 0.5*(1.0-lam); wh = 1.0-lam*lam\n"
                    + f"    return ({rows})\n", "layer")


def _derivative_source(sys: PiecewiseSmoothSystem, lam_source: str, dlam_source: str,
                       cells) -> str:
    """Source of the entries df_i/dx_j, (i, j) in `cells`, of the smoothed
    field compile_layer(sys, lam_source), each from the same head.

    `dlam_source` is dlam/dx1 as a Python expression in x1 and lam.  Column
    1 carries the chain-rule term through lam: d(wp, wm, wh)/dx1 = (1/2,
    -1/2, -2 lam) dlam/dx1.
    """
    fields = (sys.f_plus, sys.f_minus, sys.hidden)

    def entry(i, j):
        comps = [f.components[i] for f in fields]
        terms = [(w, c.diff(j + 1)) for w, c in zip(("wp", "wm", "wh"), comps)]
        if j == 0:
            terms += zip(("dwp", "dwm", "dwh"), comps)
        return "+".join(f"{w}*{e.source()}" for w, e in terms if e is not ZERO) or "0.0"

    return (f"    lam = {lam_source}\n    dlam = {dlam_source}\n"
            "    wp = 0.5*(1.0+lam); wm = 0.5*(1.0-lam); wh = 1.0-lam*lam\n"
            "    dwp = 0.5*dlam; dwm = -dwp; dwh = -2.0*lam*dlam\n"
            "    return (" + ",\n            ".join(entry(i, j) for i, j in cells) + ")\n")


def compile_jacobian(sys: PiecewiseSmoothSystem, lam_source: str, dlam_source: str):
    """Exact Jacobian of the smoothed field compile_layer(sys, lam_source):
    a function of (x1, x2, x3) giving the nine entries df_i/dx_j row by row.
    `dlam_source` is dlam/dx1 as a Python expression in x1 and lam."""
    cells = [(i, j) for i in range(3) for j in range(3)]
    return _compile("def jacobian(x1, x2, x3):\n"
                    + _derivative_source(sys, lam_source, dlam_source, cells), "jacobian")


def compile_df1_dx1(sys: PiecewiseSmoothSystem, lam_source: str, dlam_source: str):
    """Entry (1, 1) of `compile_jacobian` alone, a cheap stiffness test."""
    return _compile("def df1_dx1(x1, x2, x3):\n"
                    + _derivative_source(sys, lam_source, dlam_source, [(0, 0)]), "df1_dx1")


def citardauq(a: float, b: float, c: float, s: float) -> tuple[float, float]:
    """Roots (-b - s)/(2a) and (-b + s)/(2a) of a l^2 + b l + c, s = sqrt(disc).

    The root whose numerator would cancel comes from 2c over the other
    numerator instead (Citardauq).  When that numerator is zero (b = s = 0)
    the double root -b/(2a) stands in.
    """
    if b >= 0.0:
        q = -(b + s)
        return q / (2.0 * a), (2.0 * c / q if q != 0.0 else -b / (2.0 * a))
    q = s - b
    return 2.0 * c / q, q / (2.0 * a)


def quadratic_roots(a: float, b: float, c: float, tol: float):
    """Real roots of  a l^2 + b l + c = 0  as (root, double_root) pairs.

    A discriminant within tol * max(1, b^2) of zero gives one double root;
    tol = 0 accepts only an exact zero.  a = 0 degrades to the linear root,
    and a = b = 0 has no isolated root (c = 0 there means the quadratic
    vanishes identically).
    """
    if a == 0.0:
        if b == 0.0:
            return []
        return [(-c / b, False)]
    disc = b * b - 4.0 * a * c
    if disc < -tol * max(1.0, b * b):
        return []
    if disc <= tol * max(1.0, b * b):
        return [(-b / (2.0 * a), True)]
    r_minus, r_plus = citardauq(a, b, c, math.sqrt(disc))
    return [(r_minus, False), (r_plus, False)]


def normal_form_system(p: TwoFoldParams) -> PiecewiseSmoothSystem:
    """Local normal form: f_plus = (-x2, a1, b1), f_minus = (x3, b2, a2),
    hidden g = (alpha, 0, 0)."""
    f_plus = SmoothField((Neg(Var(2)), num(p.a1), num(p.b1)))
    f_minus = SmoothField((Var(3), num(p.b2), num(p.a2)))
    hidden = SmoothField((num(p.alpha), num(0), num(0)))
    return PiecewiseSmoothSystem(f_plus, f_minus, hidden, params=p)
