"""Smooth and piecewise-smooth vector fields on R^3 with a switching surface
at x1 = 0.

A piecewise-smooth system holds two smooth fields f_plus (active for x1 > 0)
and f_minus (x1 < 0) together with a hidden field g that only acts inside the
switching layer.  Off the surface the combined field

    f(x; lam) = (1+lam)/2 f_plus(x) + (1-lam)/2 f_minus(x) + (1-lam^2) g(x)

with lam = sign(x1) reproduces the two half-space fields exactly: the convex
weights are exactly 0/1 at lam = +-1 and the (1-lam^2) factor kills g there.

Every field's evaluator is compiled when a call first evaluates it, never
when the field or system is built, so a command compiles only what it runs.
Each system has three kernels: the combination (`compile_layer`) and the
surface kernel, the three first components at x1 = 0 (`f1_sides`), compiled
on first use, and a slide-map row kernel that `sliding.surface_grid`
compiles per call.  `f1_sides` gives f1's lam-quadratic to the per-point
sliding roots and regions and to the Filippov contacts and slides; `layer`
serves them and the blow-up right-hand side and the transform check.  A
`SmoothField` compiles its own evaluator, `fn`, at its first read: only
Filippov flows and the grazing test read the half-space fields' `fn`, and
nothing reads the hidden field's.  A smoothed run compiles its own field,
df1/dx1 (`compile_df1_dx1`, a stiffness test per step) and its exact
Jacobian (`compile_jacobian`, at its first stiff step).  Every kernel is
declared through one template, `compile_function`, and every kernel of the
combination reads its weights from `WEIGHTS_SOURCE`.  The quadratic has
one stable solver, the source text `DISC_SOURCE` and `CITARDAUQ_SOURCE`:
`quadratic_roots` is compiled from it at import, and `sliding` builds its
surface calls and kernels from it.  `TwoFoldParams` is a validated
namedtuple, and `is_number` is the one rule by which it, the other records
and the config loader take a number: an int or float that is not a bool.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .expr import ZERO, Expr, Var, Neg, diff, num, parse_expr, source

__all__ = [
    "SmoothField", "PiecewiseSmoothSystem", "TwoFoldParams",
    "parse_field", "normal_form_system",
    "compile_layer", "compile_jacobian", "compile_df1_dx1", "compile_function", "indented",
    "quadratic_roots", "WEIGHTS_SOURCE", "DISC_SOURCE", "CITARDAUQ_SOURCE", "QUADRATIC_SOURCE",
]


class SmoothField:
    """Three expression trees plus a compiled evaluator.

    The evaluator is compiled at its first use, the first read of `fn`, and
    kept on the field; a field that is never evaluated is never compiled.
    Immutable after construction otherwise; evaluation is pure and reentrant.
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
        fn = self._fn = compile_function("fn(x1, x2, x3)", "", "({}, {}, {})".format(
            *(source(c) for c in self.components)))
        return fn

    @property
    def fn(self):
        """Compiled (x1, x2, x3) -> (f1, f2, f3), the field's one evaluator.
        Compiled on the first read and the same object after it."""
        return self._fn


def parse_field(expr1: str, expr2: str, expr3: str) -> SmoothField:
    """Build a field from three expression strings in x1, x2, x3."""
    return SmoothField(tuple(parse_expr(e) for e in (expr1, expr2, expr3)))


ZERO_FIELD_EXPRS = ("0", "0", "0")


def is_number(v) -> bool:
    """True for an int or float that is not a bool: the one rule by which
    configs and records take a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class TwoFoldParams(namedtuple("TwoFoldParams", "a1 a2 b1 b2 alpha")):
    """Constants of the local normal form: a1, a2 in {-1, +1} set the fold
    curvatures, b1, b2 the transversal drift, alpha the hidden-term size."""

    __slots__ = ()

    def __new__(cls, a1: int, a2: int, b1: float, b2: float, alpha: float):
        if not all(map(is_number, (a1, a2, b1, b2, alpha))):
            raise ValueError(f"a1, a2, b1, b2 and alpha must be numbers, got "
                             f"({a1!r}, {a2!r}, {b1!r}, {b2!r}, {alpha!r})")
        if a1 not in (-1, 1) or a2 not in (-1, 1):
            raise ValueError(f"a1 and a2 must be +-1, got ({a1}, {a2})")
        if not all(map(math.isfinite, (b1, b2, alpha))):
            raise ValueError(f"b1, b2 and alpha must be finite, got ({b1}, {b2}, {alpha})")
        return super().__new__(cls, a1, a2, b1, b2, alpha)


class PiecewiseSmoothSystem:
    """Pair (f_plus, f_minus) with hidden field g; switching coordinate is x1.

    Two kernels are compiled from the component sources once per system,
    on first use (classify and the smoothed runs never need them):

    * `layer(x1, x2, x3, lam) -> (f1, f2, f3)` is the combination with no
      range check, for callers whose lam may overshoot [-1, 1] by rounding;
    * `f1_sides(x2, x3) -> (fp1, fm1, g1)`, the per-point surface kernel,
      gives the first components of f_plus, f_minus and g at (0, x2, x3),
      from which `sliding` builds f1's lam-quadratic.

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
        p1, m1, g1 = (source(f.components[0])
                      for f in (self.f_plus, self.f_minus, self.hidden))
        return compile_function("f1_sides(x2, x3)", "x1 = 0.0\n", f"({p1}, {m1}, {g1})")

    def combination(self, x, lam: float) -> tuple[float, float, float]:
        """Combined field at x for lam in [-1, +1]."""
        if not -1.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [-1, 1], got {lam}")
        # the sides themselves, not 1*f + 0*f': that sum turns -0.0 into 0.0
        if lam == 1.0:
            return self.f_plus.fn(x[0], x[1], x[2])
        if lam == -1.0:
            return self.f_minus.fn(x[0], x[1], x[2])
        return self.layer(x[0], x[1], x[2], lam)

    def f1_surface(self, x2: float, x3: float, lam: float) -> float:
        """First component of the combination at (0, x2, x3)."""
        return self.layer(0.0, x2, x3, lam)[0]


def _compile(src: str, name: str):
    """The function `name` defined by `src`."""
    # source generated from our own expression trees
    ns = {"__builtins__": {}, "tanh": math.tanh, "sqrt": math.sqrt, "abs": abs, "len": len,
          "max": max, "isfinite": math.isfinite, "frexp": math.frexp, "ldexp": math.ldexp}
    exec(src, ns)
    return ns[name]


def compile_function(signature: str, body: str, result: str, doc: str | None = None):
    """The function `def signature:` that runs `body` and returns `result`."""
    fn = _compile(f"def {signature}:\n{indented(body, '    ')}    return {result}\n",
                  signature[:signature.index("(")])
    fn.__doc__ = doc
    return fn


def indented(text: str, pad: str) -> str:
    """Source `text` with `pad` before each of its lines."""
    return "".join(pad + line for line in text.splitlines(True))


# The layer weights at lam, read by every kernel of the combination: wp, wm, wh weigh f+, f-, g.
WEIGHTS_SOURCE = "wp = 0.5*(1.0+lam); wm = 0.5*(1.0-lam); wh = 1.0-lam*lam\n"


def compile_layer(sys: PiecewiseSmoothSystem, lam_source: str | None = None):
    """The combination of `sys` as one flat compiled function.

    Without `lam_source` it is layer(x1, x2, x3, lam).  With `lam_source`,
    a Python expression in x1 that may call tanh and sqrt, lam is computed
    inside and the function is (x1, x2, x3) -> f: the smoothed field in one
    call, since stiff runs make about six of these calls per step.
    """
    p, m, g = ([source(c) for c in f.components]
               for f in (sys.f_plus, sys.f_minus, sys.hidden))
    signature, head = (("layer(x1, x2, x3)", f"lam = {lam_source}\n") if lam_source is not None
                       else ("layer(x1, x2, x3, lam)", ""))
    rows = ",\n            ".join(f"wp*{p[i]}+wm*{m[i]}+wh*{g[i]}" for i in range(3))
    return compile_function(signature, head + WEIGHTS_SOURCE, f"({rows})")


def _derivative_source(sys: PiecewiseSmoothSystem, lam_source: str, dlam_source: str,
                       cells) -> tuple[str, str]:
    """(body, result) source of the entries df_i/dx_j, (i, j) in `cells`, of
    the smoothed field compile_layer(sys, lam_source), each from one body.

    `dlam_source` is dlam/dx1 as a Python expression in x1 and lam.  Column
    1 carries the chain-rule term through lam: d(wp, wm, wh)/dx1 = (1/2,
    -1/2, -2 lam) dlam/dx1.
    """
    fields = (sys.f_plus, sys.f_minus, sys.hidden)

    def entry(i, j):
        comps = [f.components[i] for f in fields]
        terms = [(w, diff(c, j + 1)) for w, c in zip(("wp", "wm", "wh"), comps)]
        if j == 0:
            terms += zip(("dwp", "dwm", "dwh"), comps)
        return "+".join(f"{w}*{source(e)}" for w, e in terms if e is not ZERO) or "0.0"

    return (f"lam = {lam_source}\ndlam = {dlam_source}\n{WEIGHTS_SOURCE}"
            "dwp = 0.5*dlam; dwm = -dwp; dwh = -2.0*lam*dlam\n",
            "(" + ",\n            ".join(entry(i, j) for i, j in cells) + ")")


def compile_jacobian(sys: PiecewiseSmoothSystem, lam_source: str, dlam_source: str):
    """Exact Jacobian of the smoothed field compile_layer(sys, lam_source):
    a function of (x1, x2, x3) giving the nine entries df_i/dx_j row by row.
    `dlam_source` is dlam/dx1 as a Python expression in x1 and lam."""
    cells = [(i, j) for i in range(3) for j in range(3)]
    return compile_function("jacobian(x1, x2, x3)",
                            *_derivative_source(sys, lam_source, dlam_source, cells))


def compile_df1_dx1(sys: PiecewiseSmoothSystem, lam_source: str, dlam_source: str):
    """Entry (1, 1) of `compile_jacobian` alone, a cheap stiffness test."""
    return compile_function("df1_dx1(x1, x2, x3)",
                            *_derivative_source(sys, lam_source, dlam_source, [(0, 0)]))


# The quadratic solve as source text, which `quadratic_roots` is compiled
# from and `sliding`'s surface calls and kernels are built from.
# DISC_SOURCE sets disc = b^2 - 4ac; where that is inf or NaN (disc - disc
# != 0), finite a != 0, b, c are first scaled by the power of two that
# brings the largest into [2^509, 2^510).  That keeps the roots, or if a
# underflows to zero, the one within the float range.
DISC_SOURCE = """\
disc = b * b - 4.0 * a * c
if disc - disc != 0.0 and a != 0.0 and isfinite(a) and isfinite(b) and isfinite(c):
    e = 510 - frexp(max(abs(a), abs(b), abs(c)))[1]
    a = ldexp(a, e); b = ldexp(b, e); c = ldexp(c, e); disc = b * b - 4.0 * a * c
"""
# CITARDAUQ_SOURCE reads a != 0, b, c and s = sqrt(disc) and sets r1 =
# (-b - s)/(2a) and r2 = (-b + s)/(2a), the one whose numerator would cancel
# as 2c over the other numerator (Citardauq), and -b/(2a) where that is zero
# (b = s = 0).
CITARDAUQ_SOURCE = """\
if b >= 0.0:
    q = -(b + s)
    r1 = q / (2.0 * a); r2 = 2.0 * c / q if q != 0.0 else -b / (2.0 * a)
else:
    q = s - b
    r1 = 2.0 * c / q; r2 = q / (2.0 * a)
"""
# QUADRATIC_SOURCE reads a, b, c and tol and sets rs, the real roots, and
# dbl, their double-root flag, as `quadratic_roots` returns them.  The
# double-root band is tol times the larger term of disc, b^2 or |4ac|, or
# b^2 where 4ac is inf or NaN (a term is not finite): tol = 0 stays exact.
QUADRATIC_SOURCE = DISC_SOURCE + """\
if a == 0.0:
    rs = (-c / b,) if b != 0.0 else (); dbl = False
else:
    ac = abs(4.0 * a * c)
    band = tol * (b * b if b * b > ac or ac - ac != 0.0 else ac)
    if disc < -band:
        rs = ()
    elif disc <= band:
        rs = (-b / (2.0 * a),); dbl = True
    else:
        s = sqrt(disc)
""" + indented(CITARDAUQ_SOURCE, " " * 8) + """\
        rs = (r1, r2); dbl = False
"""


quadratic_roots = compile_function("quadratic_roots(a, b, c, tol)", QUADRATIC_SOURCE,
                                   "[(r, dbl) for r in rs]", """\
Real roots of  a l^2 + b l + c = 0  as (root, double_root) pairs.

A discriminant within tol * max(b^2, |4ac|) of zero, a band relative to
its own terms, gives one double root; tol = 0 accepts only an exact zero.
a = 0 degrades to the linear root, and a = b = 0 has no isolated root
(c = 0 there means the quadratic vanishes identically).  The rule is
`QUADRATIC_SOURCE`.""")


def normal_form_system(p: TwoFoldParams) -> PiecewiseSmoothSystem:
    """Local normal form: f_plus = (-x2, a1, b1), f_minus = (x3, b2, a2),
    hidden g = (alpha, 0, 0)."""
    f_plus = SmoothField((Neg(Var(2)), num(p.a1), num(p.b1)))
    f_minus = SmoothField((Var(3), num(p.b2), num(p.a2)))
    hidden = SmoothField((num(p.alpha), num(0), num(0)))
    return PiecewiseSmoothSystem(f_plus, f_minus, hidden, params=p)
