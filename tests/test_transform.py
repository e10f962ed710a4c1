import math
import random

import pytest

from twofold.fields import TwoFoldParams, normal_form_system
from twofold.singularities import folded_singularities
from twofold.sliding import curve_L
from twofold.transform import (RUNGS, TransformContext, TransformDomainError, _curve,
                               chart, equivalence_residual, folded_normal_field,
                               from_x_tilde, transform_check)


def make_ctx(a1=1, a2=1, b1=1.0, b2=-1.0, alpha=0.2, eps=1e-3, which=0):
    p = TwoFoldParams(a1, a2, b1, b2, alpha)
    s = folded_singularities(p)[which]
    return TransformContext(p, s, eps, normal_form_system(p))


def curve(ctx, y3):
    """The curve functions (y1L, y2L, y1L', y2L') of ctx's singularity at y3."""
    return _curve(ctx.singularity.lambda_s, ctx.params.alpha, y3)


def corrective_shift(ctx):
    s = ctx.singularity
    return ctx.epsilon * s.f3s / (ctx.params.alpha * (1 + s.lambda_s) ** 2)


# ------------------------------------------------------------ translation

def test_translation_moves_singularity_to_origin():
    # y = 0 at the singularity, so z = 0 and only the corrective shift is
    # left: x~ = (0, sign(alpha) d1 shift, 0)
    for kw in ({}, {"alpha": -0.3, "b1": -2.0, "b2": -2.0}):
        ctx = make_ctx(**kw)
        s = ctx.singularity
        sgn = math.copysign(1.0, ctx.params.alpha)
        assert chart(ctx, (s.lambda_s, s.x2s, s.x3s))[0] == (
            0.0, sgn * s.d1 * corrective_shift(ctx), 0.0)


def test_translation_shift_values():
    # lam_s = 0 case: the singularity sits at (0, alpha, -alpha), so the
    # point (0.1, 0.2, -0.2) has y = (0.1, 0, 0) and z1 = 0.1
    ctx = make_ctx(b1=-2.0, b2=-2.0)
    s = ctx.singularity
    assert s.lambda_s == 0.0
    xt = chart(ctx, (0.1, 0.2, -0.2))[0]
    assert xt == pytest.approx((math.sqrt(0.2) * 0.1, s.d1 * corrective_shift(ctx), 0.0),
                               abs=1e-15)


# ------------------------------------------------------------ fold curve

def test_curve_functions_vanish_at_singularity():
    ctx = make_ctx()
    y1l, y2l, _, _ = curve(ctx, 0.0)
    assert y1l == pytest.approx(0.0, abs=1e-15)
    assert y2l == pytest.approx(0.0, abs=1e-15)


def test_curve_function_derivatives_at_zero():
    ctx = make_ctx()
    ls = ctx.singularity.lambda_s
    al = ctx.params.alpha
    _, _, y1lp, y2lp = curve(ctx, 0.0)
    assert y1lp == pytest.approx(-1.0 / (2 * al * (1 + ls)), rel=1e-13)
    assert y2lp == pytest.approx((1 - ls) / (1 + ls), rel=1e-13)


def test_curve_function_derivatives_match_finite_differences():
    ctx = make_ctx()
    h = 1e-6
    for y3 in (-0.05, 0.0, 0.02):
        y1l_p, y2l_p, d1, d2 = curve(ctx, y3)
        up = curve(ctx, y3 + h)
        dn = curve(ctx, y3 - h)
        assert d1 == pytest.approx((up[0] - dn[0]) / (2 * h), abs=1e-6)
        assert d2 == pytest.approx((up[1] - dn[1]) / (2 * h), abs=1e-6)


def test_domain_error_outside_rectification_domain():
    # past the domain the curve functions, the chart and its inverse all raise
    ctx = make_ctx()
    s = ctx.singularity
    bad_y3 = ctx.params.alpha * (1 + s.lambda_s) ** 2 * 1.5
    with pytest.raises(TransformDomainError):
        curve(ctx, bad_y3)
    with pytest.raises(TransformDomainError):
        chart(ctx, (s.lambda_s, s.x2s, s.x3s + bad_y3))
    with pytest.raises(TransformDomainError):
        from_x_tilde(ctx, (0.0, 0.0, -bad_y3))


def test_curve_functions_clamp_rounding_just_past_the_domain_boundary():
    # the first y3 past alpha (1 + lam_s)^2 whose argument rounds below 0 is
    # taken as the boundary itself, where the chart turns vertical
    ctx = make_ctx()
    ls, al = ctx.singularity.lambda_s, ctx.params.alpha
    y3 = al * (1.0 + ls) ** 2
    while (1.0 + ls) ** 2 - y3 / al >= 0.0:
        y3 = math.nextafter(y3, math.inf)
    assert _curve(ls, al, y3) == (-1.0 - ls, -y3 + 4.0 * al * (1.0 + ls),
                                  -math.inf, math.inf)


# ------------------------------------------------------------ full chain

def test_singularity_maps_near_origin():
    # with eps -> 0 the corrective shift vanishes and the image is the origin
    ctx = make_ctx(eps=1e-12)
    s = ctx.singularity
    xt = chart(ctx, (s.lambda_s, s.x2s, s.x3s))[0]
    assert xt == pytest.approx((0.0, 0.0, 0.0), abs=1e-11)


def test_fold_curve_rectifies_to_zero_first_component():
    ctx = make_ctx()
    s = ctx.singularity
    for lam, x2, x3 in curve_L(ctx.params).points:
        if (1 + s.lambda_s) ** 2 - (x3 - s.x3s) / ctx.params.alpha < 0:
            continue
        xt = chart(ctx, (lam, x2, x3))[0]
        assert abs(xt[0]) <= 1e-10


def test_critical_manifold_image_is_quadratically_thin():
    # points of the sliding manifold near the singularity map close to the
    # model's critical manifold x2~ = -x1~^2: the defect shrinks like the
    # square of the sample radius
    p = TwoFoldParams(1, 1, 1.0, -1.0, 0.2)
    s = folded_singularities(p)[0]
    al, ls = p.alpha, s.lambda_s

    def manifold_point(dl, dx3):
        lam = ls + dl
        x3 = s.x3s + dx3
        x2 = ((1 - lam) * x3 + 2 * al * (1 - lam * lam)) / (1 + lam)
        return (lam, x2, x3)

    # fixed, negligible eps: otherwise the O(eps) corrective shift dominates
    ctx = TransformContext(p, s, 1e-12, normal_form_system(p))
    defects = []
    for h in (1e-1, 1e-2, 1e-3):
        worst = 0.0
        for dl, dx3 in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h),
                        (h * 0.7, h * 0.7), (-h * 0.7, h * 0.7)):
            xt = chart(ctx, manifold_point(dl, dx3))[0]
            worst = max(worst, abs(xt[1] + xt[0] ** 2))
        defects.append(worst)
    # at least quadratic decay per decade of h
    assert defects[0] / defects[1] >= 50.0, defects
    assert defects[1] / defects[2] >= 50.0, defects


def test_sign_of_alpha_flips_slow_coordinates():
    # the scaling stage is x~ = (sqrt|a| z1, -s d1 z2~, -s z3): flipping
    # sign(alpha) with identical rectified content flips the two slow
    # components of x~.  Recover z through the inverse chain and compare.
    ctx_p = make_ctx(alpha=0.2)
    ctx_m = make_ctx(alpha=-0.2)
    assert ctx_m.singularity.lambda_s == pytest.approx(ctx_p.singularity.lambda_s, abs=1e-14)

    def z_content(ctx, xt):
        s = ctx.singularity
        lam, x2, x3 = from_x_tilde(ctx, xt)
        y1, y2, y3 = lam - s.lambda_s, x2 - s.x2s, x3 - s.x3s
        y1l, y2l, _, _ = curve(ctx, y3)
        return (y1 - y1l, y2 - y2l - corrective_shift(ctx), y3)

    xt = (0.05, 0.02, -0.03)
    zp = z_content(ctx_p, xt)
    zm = z_content(ctx_m, (xt[0], -xt[1], -xt[2]))
    assert zm == pytest.approx(zp, abs=1e-12)


def test_round_trip_identity():
    rng = random.Random(2024)
    for which in (0,):
        ctx = make_ctx(eps=1e-4)
        s = ctx.singularity
        count = 0
        while count < 1000:
            pt = (s.lambda_s + rng.uniform(-0.2, 0.2),
                  s.x2s + rng.uniform(-0.2, 0.2),
                  s.x3s + rng.uniform(-0.2, 0.2))
            try:
                xt = chart(ctx, pt)[0]
            except TransformDomainError:
                continue
            back = from_x_tilde(ctx, xt)
            assert back == pytest.approx(pt, abs=1e-12)
            count += 1


def _difference_rate(ctx, point, v, h):
    """d x~/dt~ along the (lam, x2, x3) rate v by a central difference of
    the chain x~ over a step of length h, with t~ = -sign(alpha) t."""
    step = h / math.sqrt(sum(c * c for c in v))
    up = chart(ctx, tuple(p + step * c for p, c in zip(point, v)))[0]
    dn = chart(ctx, tuple(p - step * c for p, c in zip(point, v)))[0]
    sgn = math.copysign(1.0, ctx.params.alpha)
    return tuple(-sgn * (u - d) / (2 * step) for u, d in zip(up, dn))


def _points_near_singularity(ctx, seed, n):
    """n seeded points within 0.1 of the singularity, in the chart's domain."""
    rng = random.Random(seed)
    s = ctx.singularity
    points = []
    while len(points) < n:
        pt = (s.lambda_s + rng.uniform(-0.1, 0.1), s.x2s + rng.uniform(-0.1, 0.1),
              s.x3s + rng.uniform(-0.1, 0.1))
        try:
            chart(ctx, pt)
        except TransformDomainError:
            continue
        points.append(pt)
    return points


class _ConstantLayer:
    """A system whose layer field is the constant vector v."""

    def __init__(self, v):
        self.v = v

    def layer(self, x1, x2, x3, lam):
        return self.v


def test_pushforward_columns_match_finite_differences():
    # a layer field of (eps, 0, 0), (0, 1, 0) or (0, 0, 1) is the unit rate
    # along lam, x2 or x3, so the chart's pushforward gives -sign(alpha)
    # times one column of the Jacobian of its chain x~
    base = make_ctx()
    for k in range(3):
        unit = tuple(float(i == k) for i in range(3))
        field = (base.epsilon * unit[0], unit[1], unit[2])
        ctx = TransformContext(base.params, base.singularity, base.epsilon,
                               _ConstantLayer(field))
        for pt in _points_near_singularity(ctx, 77, 100):
            assert chart(ctx, pt)[1] == pytest.approx(
                _difference_rate(ctx, pt, unit, 1e-6), abs=1e-6)


def test_pushforward_matches_finite_differences_along_the_layer_field():
    # the layer field is (F1/eps, F2, F3) in (lam, x2, x3); its rate in x~
    # under t~ = -sign(alpha) t is the difference of the chain x~ along it
    for kw in ({}, {"alpha": -0.3, "b1": -2.0, "b2": -2.0}):
        ctx = make_ctx(**kw)
        for pt in _points_near_singularity(ctx, 78, 100):
            F1, F2, F3 = ctx.system.layer(0.0, pt[1], pt[2], pt[0])
            v = (F1 / ctx.epsilon, F2, F3)
            scale = math.sqrt(sum(c * c for c in v))
            assert chart(ctx, pt)[1] == pytest.approx(
                _difference_rate(ctx, pt, v, 1e-6), abs=1e-6 * scale)


# ------------------------------------------------------------ model field

def test_model_field_examples():
    assert folded_normal_field(2.0, 1.0, 1.0, (0.0, 0.0, 0.0)) == (0.0, 0.0, 2.0)
    got = folded_normal_field(2.0, 1.0, 3.0, (1.0, -1.0, 0.0))
    assert got == (0.0, 3.0, 2.0)           # on the critical manifold x2~ = -x1~^2
    assert folded_normal_field(1.0, 1.0, 1.0, (0.0, 1.0, 1.0)) == (1.0, 1.0, 1.0)


# ------------------------------------------------------------ residual order

def test_residual_first_component_vanishes_at_singularity():
    # the corrective shift exists precisely to cancel the fast-row defect at
    # the singularity itself
    ctx = make_ctx(eps=1e-3)
    s = ctx.singularity
    pt = (s.lambda_s, s.x2s, s.x3s)
    xt, w = chart(ctx, pt)
    model = folded_normal_field(s.a_tilde, s.b_tilde, s.c_tilde, xt)
    r1 = (ctx.epsilon / math.sqrt(abs(ctx.params.alpha))) * w[0] - model[0]
    assert abs(r1) <= 1e-12
    # third row equals a~ exactly at the singularity
    assert w[2] == pytest.approx(s.a_tilde, abs=1e-13)


def test_residual_scales_quadratically():
    report = transform_check(TwoFoldParams(1, 1, 1.0, -1.0, 0.2))
    chk = report["checks"][0]
    assert chk["pass"]
    assert chk["slope"] == pytest.approx(2.0, abs=0.1)
    # the residuals themselves drop by ~100x per decade
    r = chk["residuals"]
    assert r[0] / r[1] == pytest.approx(100.0, rel=0.35)


def test_residual_both_mixed_singularities():
    # each root is sampled on a ladder scaled to its own rectification
    # domain, R = |alpha| (1 + lam_s)^2: 0.061 near lam_s = -0.45, 0.42 at the other
    p = TwoFoldParams(-1, 1, -4.0, -1.0, 0.2)
    report = transform_check(p)
    sings = folded_singularities(p)
    assert len(report["checks"]) == len(sings) == 2
    for check, s in zip(report["checks"], sings):
        R = check["R"]
        assert check["lambda_s"] == s.lambda_s
        assert R == pytest.approx(abs(p.alpha) * (1 + s.lambda_s) ** 2, rel=1e-15)
        assert check["h_values"] == [R * rung for rung in RUNGS]
        assert check["pass"]
    assert [round(c["R"], 4) for c in report["checks"]] == [0.0611, 0.4189]


def test_a_small_domain_gets_its_own_ladder():
    # alpha = 1e-4 leaves a domain of R = 2.5e-4, far below a sphere of
    # radius 0.1; the largest sphere of its ladder is R / 100
    p = TwoFoldParams(1, 1, 0.5, -3.0, 1e-4)
    (check,) = transform_check(p)["checks"]
    assert check["R"] == pytest.approx(2.5e-4, rel=0.01)
    assert check["h_values"][0] == check["R"] * 1e-2
    assert check["pass"]


def test_a_domain_larger_than_one_keeps_the_unit_ladder():
    # min(R, 1): the ladder never grows past the rungs themselves
    (check,) = transform_check(TwoFoldParams(1, 1, 3.0, -1.0, 5.0))["checks"]
    assert check["R"] > 1.0
    assert check["h_values"] == list(RUNGS)
    assert check["pass"]


# a1 = 1, a2 = -1, b1 = -b = -b2 puts a root at 1 + lam_s ~ 1/b, whose
# rounding floor EPS/(1 + lam_s) the smallest residual (2.4e-11) clears ten
# times over only while 1 + lam_s >= 9e-5

def test_a_root_2e_4_from_lam_minus_one_clears_rounding():
    p = TwoFoldParams(1, -1, 5e3, -5e3, 0.2)
    assert 1 + folded_singularities(p)[0].lambda_s == pytest.approx(2e-4, rel=1e-3)
    report = transform_check(p)
    assert report["pass"]
    assert report["checks"][0]["slope"] == pytest.approx(2.0, abs=0.01)


def test_a_root_2e_5_from_lam_minus_one_is_past_the_rounding_limit():
    p = TwoFoldParams(1, -1, 5e4, -5e4, 0.2)
    assert 1 + folded_singularities(p)[0].lambda_s == pytest.approx(2e-5, rel=1e-3)
    with pytest.raises(TransformDomainError, match="past the rounding limit"):
        transform_check(p)


def test_residual_random_draws():
    rng = random.Random(909)
    done = 0
    while done < 5:
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-5, 5), rng.uniform(-5, 5),
                          rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        rep = transform_check(p)
        assert rep["pass"], (p, rep["checks"])
        done += len(rep["checks"])


def test_every_singularity_of_400_draws_down_to_alpha_1e_8_passes():
    # |alpha| log-uniform in [1e-8, 10]: R = |alpha| (1 + lam_s)^2 runs far
    # below any fixed ladder, and every singularity passes on its own
    rng = random.Random(0)
    checked = 0
    for _ in range(400):
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-5, 5), rng.uniform(-5, 5),
                          rng.choice([-1, 1]) * 10.0 ** rng.uniform(-8, 1))
        for check in transform_check(p)["checks"]:
            assert check["pass"], (p, check)
            checked += 1
    assert checked == 343


def test_residual_rejects_h_outside_domain():
    ctx = make_ctx(alpha=0.05, eps=0.5)
    with pytest.raises(TransformDomainError):
        equivalence_residual(ctx)


@pytest.mark.parametrize("call, message", [
    (lambda ctx: TransformContext(ctx.params, ctx.singularity._replace(
        lambda_s=-1.0 + 1e-10), 1e-3, ctx.system),
     "transform requires lam_s away from -1"),
])
def test_boundary_singularity_and_radius_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_ctx())


def test_context_validation():
    p = TwoFoldParams(1, 1, 1.0, -1.0, 0.2)
    s = folded_singularities(p)[0]
    for eps in (0.0, -1e-3, True, "1e-3", None):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
            TransformContext(p, s, eps, normal_form_system(p))
    with pytest.raises(ValueError):
        p0 = TwoFoldParams(1, 1, 1.0, -1.0, 0.0)
        TransformContext(p0, s, 1e-3, normal_form_system(p0))
