import math
import random

import numpy as np
import pytest

from twofold import fields
from twofold.expr import MAX_DEPTH, ExpressionError, parse_expr
from twofold.fields import (PiecewiseSmoothSystem, TwoFoldParams, compile_df1_dx1,
                            compile_jacobian, compile_layer, normal_form_system,
                            parse_field, quadratic_roots)
from twofold.integrate import SIGMOIDS
from twofold.scenarios import builtin, builtin_names
from twofold.sliding import surface_quadratic


def test_parse_field_example_system():
    f = parse_field("-x2", "1+x1", "-7/5")
    assert f.fn(0.0, 1.0, 0.0) == (-1.0, 1.0, -1.4)


def test_parse_field_zero():
    z = parse_field("0", "0", "0")
    assert z.fn(3.0, -2.0, 7.0) == (0.0, 0.0, 0.0)


def test_parse_field_direct_substitution():
    f = parse_field("x1*x2", "-x3", "2")
    assert f.fn(1.0, 2.0, 3.0) == (2.0, -3.0, 2.0)


def _random_system(rng):
    coeffs = lambda: "+".join(
        f"{rng.randint(-4, 4)}/{rng.randint(1, 5)}*{v}" for v in ("x1", "x2", "x3"))
    return PiecewiseSmoothSystem(
        parse_field(coeffs(), coeffs(), coeffs()),
        parse_field(coeffs(), coeffs(), coeffs()),
        parse_field(coeffs(), coeffs(), coeffs()))


def test_combination_endpoints_recover_sides_exactly():
    rng = random.Random(7)
    for _ in range(50):
        sys = _random_system(rng)
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        assert sys.combination(x, 1.0) == sys.f_plus(x)
        assert sys.combination(x, -1.0) == sys.f_minus(x)


def test_combination_midpoint_includes_hidden():
    rng = random.Random(8)
    for _ in range(20):
        sys = _random_system(rng)
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        p, m, g = sys.f_plus(x), sys.f_minus(x), sys.hidden(x)
        got = sys.combination(x, 0.0)
        for i in range(3):
            assert got[i] == pytest.approx((p[i] + m[i]) / 2 + g[i], abs=1e-15)


def test_layer_kernel_matches_combination_exactly():
    # reference: the combination written out over the three compiled fields
    rng = random.Random(13)
    for _ in range(50):
        sys = _random_system(rng)
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        lam = rng.uniform(-1, 1)
        p, m, g = sys.f_plus(x), sys.f_minus(x), sys.hidden(x)
        wp, wm, wh = 0.5 * (1.0 + lam), 0.5 * (1.0 - lam), 1.0 - lam * lam
        expect = tuple(wp * p[i] + wm * m[i] + wh * g[i] for i in range(3))
        assert sys.layer(*x, lam) == expect
        assert sys.combination(x, lam) == expect
        assert sys.f1_surface(x[1], x[2], lam) == sys.layer(0.0, x[1], x[2], lam)[0]
        fp1, fm1, g1 = sys.f1_sides(x[1], x[2])
        assert (fp1, fm1, g1) == tuple(f.fn(0.0, x[1], x[2])[0]
                                       for f in (sys.f_plus, sys.f_minus, sys.hidden))
        a, b, c = surface_quadratic(fp1, fm1, g1)
        assert repr((a, b, c)) == repr((-g1, 0.5 * (fp1 - fm1), 0.5 * (fp1 + fm1) + g1))
        assert a * lam * lam + b * lam + c == pytest.approx(
            sys.f1_surface(x[1], x[2], lam), abs=1e-12)
        eps = rng.choice((1e-2, 1e-3))
        smoothed = compile_layer(sys, f"tanh(x1*{1.0 / eps!r})")
        assert smoothed(*x) == sys.layer(*x, math.tanh(x[0] * (1.0 / eps)))


@pytest.mark.parametrize("name", builtin_names())
@pytest.mark.parametrize("sigmoid", ["tanh", "sqrt"])
def test_jacobian_kernel_matches_central_differences(name, sigmoid):
    # numpy central differences of the compiled smoothed field, inside the
    # layer (where the chain-rule term through lam dominates column 1) and
    # off it; each column's difference step scales with its variable
    sys = builtin(name).system
    eps = 1e-2
    rhs = compile_layer(sys, SIGMOIDS[sigmoid][0](eps))
    lam, dlam = SIGMOIDS[sigmoid][0](eps), SIGMOIDS[sigmoid][1](eps)
    jac = compile_jacobian(sys, lam, dlam)
    df1_dx1 = compile_df1_dx1(sys, lam, dlam)
    rng = np.random.default_rng(31)
    steps = np.array([1e-5 * eps, 1e-6, 1e-6])
    for _ in range(40):
        width = rng.choice([10 * eps, 1.0])
        x = np.array([rng.uniform(-width, width), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = steps[j]
            fd[:, j] = (np.array(rhs(*(x + e))) - np.array(rhs(*(x - e)))) / (2.0 * steps[j])
        got = np.array(jac(*x)).reshape(3, 3)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())
        assert df1_dx1(*x) == got[0, 0]


def test_the_deepest_accepted_expressions_compile_every_kernel():
    # a product's derivative nests about twice as deep as the product; one
    # level more than each of these is rejected
    depth = MAX_DEPTH
    lam, dlam = SIGMOIDS["tanh"][0](1e-3), SIGMOIDS["tanh"][1](1e-3)
    for text in ("x1^3" + "*x1" * (depth - 1),
                 "x1*(" * (depth - 1) + "x1*x2" + ")" * (depth - 1),
                 "-" * depth + "x1", "+".join(["x2"] * (depth + 1)),
                 "(" * depth + "x3" + ")" * depth):
        with pytest.raises(ExpressionError, match="nests deeper"):
            parse_expr(f"x1*({text})")
        f = parse_field(text, text, text)
        sys = PiecewiseSmoothSystem(f, f, f)
        values = [*f.fn(0.5, 0.5, 0.5), *sys.layer(0.5, 0.5, 0.5, 0.25),
                  *sys.f1_sides(0.5, 0.5), *compile_jacobian(sys, lam, dlam)(0.5, 0.5, 0.5)]
        assert all(map(math.isfinite, values))


def test_a_field_compiles_at_its_first_use_only(monkeypatch):
    compiled = []
    compile_ = fields._compile
    monkeypatch.setattr(fields, "_compile",
                        lambda src, name: compiled.append(name) or compile_(src, name))
    f, g = parse_field("x2", "x3", "x1"), parse_field("x3", "x1", "x2")
    assert compiled == []
    fn = f.fn
    assert f.fn is fn and f((1.0, 2.0, 3.0)) == (2.0, 3.0, 1.0) and compiled == ["fn"]
    assert g((1.0, 2.0, 3.0)) == (3.0, 1.0, 2.0) and g.fn is g.fn and len(compiled) == 2


def _numpy_real_roots(a, b, c):
    return sorted(r.real for r in np.roots([a, b, c]) if abs(r.imag) <= 1e-12)


def test_quadratic_roots_against_numpy():
    rng = random.Random(14)
    for _ in range(500):
        a, b, c = (rng.uniform(-3, 3) for _ in range(3))
        got = sorted(r for r, _ in quadratic_roots(a, b, c, 0.0))
        want = _numpy_real_roots(a, b, c)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("coeffs, want", [
    ((0.0, 2.0, -1.0), [(0.5, False)]),            # a = 0: the linear root
    ((0.0, 0.0, 1.0), []),                         # a = b = 0: no root
    ((0.0, 0.0, 0.0), []),                         # identically zero: no isolated root
    ((1.0, -2.0, 1.0), [(1.0, True)]),             # disc = 0 exactly
    ((4.0, 4.0, 1.0), [(-0.5, True)]),
    ((2.0, -3.0, 0.0), [(0.0, False), (1.5, False)]),   # c = 0
    ((1.0, 0.0, 1.0), []),                         # disc < 0
], ids=["a0", "a0-b0", "zero", "double", "double-b-positive", "c0", "complex"])
def test_quadratic_roots_degenerate_cases(coeffs, want):
    got = sorted(quadratic_roots(*coeffs, 0.0))
    assert got == want
    # numpy lists a double root twice
    assert [r for r, _ in got] == sorted(set(_numpy_real_roots(*coeffs)))


def test_quadratic_roots_tolerance_merges_near_double_root():
    # disc = 1e-14 lies inside tol * max(1, b^2) for tol = 1e-12
    assert quadratic_roots(1.0, 2.0, 1.0 - 2.5e-15, 1e-12) == [(-1.0, True)]
    assert len(quadratic_roots(1.0, 2.0, 1.0 - 2.5e-15, 0.0)) == 2


def test_combination_rejects_lambda_outside_range():
    sys = _random_system(random.Random(9))
    with pytest.raises(ValueError):
        sys.combination((0.0, 0.0, 0.0), 1.5)


def test_piecewise_ignores_hidden_term():
    # the (1 - lam^2) factor removes g off the surface, where lam = sign(x1)
    rng = random.Random(11)
    for _ in range(30):
        sys = _random_system(rng)
        bare = PiecewiseSmoothSystem(sys.f_plus, sys.f_minus)
        x = (rng.choice([-1, 1]) * rng.uniform(1e-9, 2), rng.uniform(-2, 2),
             rng.uniform(-2, 2))
        lam = math.copysign(1.0, x[0])
        assert sys.layer(*x, lam) == bare.layer(*x, lam)


def test_normal_form_fields():
    p = TwoFoldParams(1, 1, -2.0, -2.0, 0.2)
    sys = normal_form_system(p)
    # hand-substituted midpoint: first component -1/2*1 + 1/2*1 + 0.2
    got = sys.combination((0.0, 1.0, 1.0), 0.0)
    assert got[0] == pytest.approx(0.2, abs=1e-15)

    sys2 = normal_form_system(TwoFoldParams(-1, -1, 0.0, 0.0, 0.0))
    assert sys2.combination((0.0, 3.0, 5.0), 1.0) == (-3.0, -1.0, 0.0)

    sys3 = normal_form_system(TwoFoldParams(1, -1, 1.0, 1.0, 0.0))
    assert sys3.combination((0.0, 0.0, 1.0), -1.0) == (1.0, 1.0, -1.0)


def test_normal_form_piecewise_example():
    sys = normal_form_system(TwoFoldParams(1, 1, 0.0, 0.0, 0.0))
    assert sys.combination((-1.0, 2.0, 3.0), -1.0) == (3.0, 0.0, 1.0)


def test_normal_form_reproduces_combination_componentwise():
    rng = random.Random(12)
    for _ in range(50):
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-1, 1))
        sys = normal_form_system(p)
        lam = rng.uniform(-1, 1)
        x = (0.0, rng.uniform(-2, 2), rng.uniform(-2, 2))
        wp, wm, wh = (1 + lam) / 2, (1 - lam) / 2, 1 - lam * lam
        expect = (wp * -x[1] + wm * x[2] + wh * p.alpha,
                  wp * p.a1 + wm * p.b2,
                  wp * p.b1 + wm * p.a2)
        got = sys.combination(x, lam)
        for a, b in zip(got, expect):
            assert a == pytest.approx(b, abs=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        TwoFoldParams(2, 1, 0.0, 0.0, 0.1)


@pytest.mark.parametrize("index", [2, 3, 4], ids=["b1", "b2", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_constants(index, value):
    args = [1, 1, 0.5, -0.5, 0.2]
    args[index] = value
    with pytest.raises(ValueError):
        TwoFoldParams(*args)


def test_field_expression_strings_round_trip():
    f = parse_field("-x2+1/10*x1", "x1-6/5", "x1-2")
    again = parse_field(*f.expressions())
    assert again == f
