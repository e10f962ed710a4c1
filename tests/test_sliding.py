import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofold.cli import main
from twofold.fields import (PiecewiseSmoothSystem, TwoFoldParams, normal_form_system,
                            parse_field, quadratic_roots)
from twofold.scenarios import builtin, builtin_names, load_config
from twofold.sliding import (CLASSIFY_TOL, RESIDUAL_TOL, curve_L,
                             region_classify, roots_of_sides, slide_root, sliding_lambda,
                             surface_grid, surface_quadratic)


def nf(a1=1, a2=1, b1=0.0, b2=0.0, alpha=0.0):
    return normal_form_system(TwoFoldParams(a1, a2, b1, b2, alpha))


# ---------------------------------------------------------------- examples

def test_symmetric_point_slides_at_zero():
    sols = sliding_lambda(nf(), 1.0, 1.0)
    assert len(sols) == 1
    assert sols[0].lam == pytest.approx(0.0, abs=1e-14)
    assert sols[0].stability == "attracting"


def test_asymmetric_point():
    sols = sliding_lambda(nf(), 1.0, 3.0)
    assert len(sols) == 1
    assert sols[0].lam == pytest.approx(0.5, abs=1e-13)
    # residual check of the defining equation
    sys = nf()
    assert abs(sys.f1_surface(1.0, 3.0, sols[0].lam)) <= 1e-12


def test_crossing_region_has_no_sliding():
    assert sliding_lambda(nf(), 1.0, -1.0) == []


def test_region_classification_normal_form():
    sys = nf()
    assert region_classify(sys, 1.0, 1.0) == "attracting-sliding"
    assert region_classify(sys, -1.0, -1.0) == "repelling-sliding"
    assert region_classify(sys, 1.0, -1.0) == "crossing"
    assert region_classify(sys, 0.0, 1.0) == "tangency"


def test_curve_samples_alpha_zero_segment():
    c = curve_L(TwoFoldParams(1, 1, 0.0, 0.0, 0.0))
    for lam, x2, x3 in c.points:
        assert x2 == 0.0 and x3 == 0.0
    assert c.points[0][0] == -1.0 and c.points[-1][0] == 1.0


def test_curve_closed_form_points():
    c = curve_L(TwoFoldParams(1, 1, 0.0, 0.0, 0.2))
    mid = c.points[100]
    assert mid == pytest.approx((0.0, 0.2, -0.2), abs=1e-15)
    assert c.points[200] == pytest.approx((1.0, 0.0, -0.8), abs=1e-15)


def test_curve_membership_and_tangent():
    # every sample satisfies f1 = 0 and df1/dlam = 0; tangents follow
    # (1, 2 alpha (lam-1), -2 alpha (lam+1))
    for alpha in (0.2, -0.3, 1.0):
        p = TwoFoldParams(1, -1, 0.7, -0.4, alpha)
        sys = normal_form_system(p)
        c = curve_L(p)
        for (lam, x2, x3), tan in zip(c.points, c.tangents):
            assert abs(sys.f1_surface(x2, x3, lam)) <= 1e-12
            a, b, _ = surface_quadratic(*sys.f1_sides(x2, x3))
            assert abs(2.0 * a * lam + b) <= 1e-12
            assert tan == pytest.approx((1.0, 2 * alpha * (lam - 1), -2 * alpha * (lam + 1)))


def test_curve_csv_export(tmp_path):
    c = curve_L(TwoFoldParams(1, 1, 0.0, 0.0, 0.2))
    path = tmp_path / "curve.csv"
    c.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,x2,x3,tx_lambda,tx_x2,tx_x3"
    assert len(lines) == 202
    row = [float(v) for v in lines[101].split(",")]
    assert row == pytest.approx([0.0, 0.2, -0.2, 1.0, -0.4, -0.4])


def classify_report(capsys, p: TwoFoldParams) -> dict:
    """The JSON report of `twofold classify` on the normal form `p`."""
    assert main(["classify", f"--a1={p.a1}", f"--a2={p.a2}", f"--b1={p.b1!r}",
                 f"--b2={p.b2!r}", f"--alpha={p.alpha!r}"]) == 0
    return json.loads(capsys.readouterr().out)


def test_degeneracy_report_values(capsys):
    r0 = classify_report(capsys, TwoFoldParams(1, 1, -2.0, -2.0, 0.0))
    assert r0["degenerate_layer"] and r0["d2f1_dlambda2"] == 0.0
    # alpha = 0: f1 vanishes identically in lam at the two-fold point
    sys0 = nf(1, 1, -2.0, -2.0, 0.0)
    for lam in np.linspace(-1, 1, 101):
        assert sys0.f1_surface(0.0, 0.0, lam) == 0.0

    r1 = classify_report(capsys, TwoFoldParams(1, 1, 0.0, 0.0, 0.2))
    assert not r1["degenerate_layer"]
    assert r1["d2f1_dlambda2"] == pytest.approx(-0.4, abs=1e-15)
    r2 = classify_report(capsys, TwoFoldParams(1, 1, 0.0, 0.0, -0.3))
    assert r2["d2f1_dlambda2"] == pytest.approx(0.6, abs=1e-15)


# ---------------------------------------------------------------- properties

def _brute_force_roots(sys, x2, x3, n=100_000):
    """Independent oracle: sign-change scan of f1 over a dense lam grid,
    refined by bisection."""
    lams = np.linspace(-1.0, 1.0, n)
    f = np.array([sys.f1_surface(x2, x3, l) for l in lams])
    roots = []
    for i in np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0):
        lo, hi = lams[i], lams[i + 1]
        flo = f[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = sys.f1_surface(x2, x3, mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    for i in np.flatnonzero(f == 0.0):
        roots.append(lams[i])
    return sorted(roots)


def _vector_brute_force_roots(p, x2, x3, n=100_000):
    """Same oracle, vectorized for the normal form so 1000 draws stay fast."""
    lams = np.linspace(-1.0, 1.0, n)
    f = (-(1 + lams) / 2 * x2 + (1 - lams) / 2 * x3 + p.alpha * (1 - lams ** 2))
    idx = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
    roots = []
    for i in idx:
        lo, hi = lams[i], lams[i + 1]
        flo = f[i]
        fi = lambda l: (-(1 + l) / 2 * x2 + (1 - l) / 2 * x3 + p.alpha * (1 - l * l))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = fi(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def test_root_completeness_against_scan():
    rng = random.Random(20240818)
    for _ in range(1000):
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-1, 1))
        sys = normal_form_system(p)
        x2 = rng.uniform(-2, 2)
        x3 = rng.uniform(-2, 2)
        got = [s.lam for s in sliding_lambda(sys, x2, x3)]
        want = _vector_brute_force_roots(p, x2, x3)
        assert len(got) >= len(want)
        # every bracketed root found
        for w in want:
            assert any(abs(g - w) <= 1e-10 for g in got), (p, x2, x3, got, want)
        # no spurious roots: everything returned has a tiny residual
        for g in got:
            assert abs(sys.f1_surface(x2, x3, g)) <= 1e-10


def test_generic_path_matches_normal_form_exactly():
    # a system built from expressions (no params attached) forms its
    # quadratic from the evaluated fields; for the normal form those
    # coefficients equal the closed-form ones bit for bit
    rng = random.Random(5)
    for _ in range(25):
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-0.8, 0.8))
        by_params = normal_form_system(p)
        generic = PiecewiseSmoothSystem(by_params.f_plus, by_params.f_minus,
                                        by_params.hidden)
        assert generic.params is None
        x2, x3 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a = [(s.lam, s.double_root) for s in sliding_lambda(by_params, x2, x3)]
        b = [(s.lam, s.double_root) for s in sliding_lambda(generic, x2, x3)]
        assert a == b


def test_generic_tangency_reports_double_root():
    # example (ii) at (0.2, -0.2): f1 = -0.2 lam^2, a double root at lam = 0
    # that no sign change brackets
    sys = builtin("example-ii").system
    for lam in (-1.0, -0.5, 0.5, 1.0):
        assert sys.f1_surface(0.2, -0.2, lam) == pytest.approx(-0.2 * lam * lam, abs=1e-15)
    sols = sliding_lambda(sys, 0.2, -0.2)
    assert len(sols) == 1
    assert sols[0].double_root
    assert sols[0].lam == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ["example-i", "example-ii", "example-iii"])
def test_generic_roots_match_brute_force(name):
    sys = builtin(name).system
    rng = random.Random(f"roots:{name}")
    for _ in range(30):
        x2, x3 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        got = [s.lam for s in sliding_lambda(sys, x2, x3)]
        want = _brute_force_roots(sys, x2, x3, n=2001)
        assert len(got) == len(want), (x2, x3, got, want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12, (x2, x3, got, want)


def test_attracting_region_has_single_attracting_root():
    rng = random.Random(99)
    checked = 0
    while checked < 300:
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-1, 1))
        sys = normal_form_system(p)
        x2 = rng.uniform(0.05, 2)
        x3 = rng.uniform(0.05, 2)
        if abs(p.alpha) >= 0.25 * min(abs(x2), abs(x3)):
            continue
        if region_classify(sys, x2, x3) != "attracting-sliding":
            continue
        sols = [s for s in sliding_lambda(sys, x2, x3) if s.stability == "attracting"]
        assert len(sols) == 1
        checked += 1


def test_degeneracy_dichotomy_along_curve(capsys):
    # max |d2 f1/d lam2| along the fold curve equals exactly 2 |alpha|
    for alpha in (0.0, 0.05, -0.2, 1.0):
        p = TwoFoldParams(1, 1, 0.3, -0.7, alpha)
        sys = normal_form_system(p)
        worst = 0.0
        for lam, x2, x3 in curve_L(p).points:
            h = 1e-4
            d2 = (sys.f1_surface(x2, x3, lam + h) - 2 * sys.f1_surface(x2, x3, lam)
                  + sys.f1_surface(x2, x3, lam - h)) / h ** 2
            worst = max(worst, abs(d2))
        assert worst == pytest.approx(2 * abs(alpha), abs=1e-6)
        assert classify_report(capsys, p)["d2f1_dlambda2"] == -2 * alpha


def test_double_root_on_fold_curve_reported_once_with_flag():
    # on the fold curve the sliding quadratic has a double root
    p = TwoFoldParams(1, 1, 0.3, -0.7, 0.2)
    sys = normal_form_system(p)
    lam, x2, x3 = curve_L(p).points[100]
    sols = sliding_lambda(sys, x2, x3)
    assert len(sols) == 1
    assert sols[0].double_root
    assert sols[0].lam == pytest.approx(lam, abs=1e-6)


def test_general_expression_system_sliding():
    # attractor example (ii): at the origin the fold structure matches the
    # invisible normal form with b1 = -7/5, b2 = -9/10
    sys = PiecewiseSmoothSystem(parse_field("-x2", "1+x1", "-7/5"),
                                parse_field("x3", "-9/10", "1-3/5*x1"),
                                parse_field("1/5", "0", "0"))
    sols = sliding_lambda(sys, 1.0, 1.0)
    assert len(sols) == 1
    ref = sliding_lambda(normal_form_system(TwoFoldParams(1, 1, -1.4, -0.9, 0.2)),
                         1.0, 1.0)
    assert sols[0].lam == pytest.approx(ref[0].lam, abs=1e-10)


# ---------------------------------------------------------------- surface grid

def _layer_region(sys, x2, x3):
    """Oracle: the region from f1 on each side through the full layer kernel."""
    fp = sys.f1_surface(x2, x3, 1.0)
    fm = sys.f1_surface(x2, x3, -1.0)
    if abs(fp) <= CLASSIFY_TOL or abs(fm) <= CLASSIFY_TOL:
        return "tangency"
    if fp < 0.0 < fm:
        return "attracting-sliding"
    if fm < 0.0 < fp:
        return "repelling-sliding"
    return "crossing"


def _layer_roots(sys, x2, x3):
    """Oracle: the sliding lambdas from `surface_quadratic`, each root's
    residual from the full layer kernel."""
    a, b, c = surface_quadratic(*sys.f1_sides(x2, x3))
    roots = []
    for lam, dbl in quadratic_roots(-a, -b, -c, RESIDUAL_TOL):
        if -1.0 - RESIDUAL_TOL <= lam <= 1.0 + RESIDUAL_TOL:
            lam = min(1.0, max(-1.0, lam)) + 0.0
            if abs(sys.f1_surface(x2, x3, lam)) <= RESIDUAL_TOL * max(
                    1.0, sum(map(abs, sys.f1_sides(x2, x3)))):
                roots.append((lam, dbl))
    roots.sort(key=lambda r: r[0])
    return roots


# products of x2 and x3 in f1 overflow to inf (and inf - inf to NaN) on the
# widest grids, where the examples' linear f1 stays finite
_PRODUCT_SYSTEMS = (
    PiecewiseSmoothSystem(parse_field("x2*x3", "1", "0"), parse_field("x3", "0", "1"),
                          parse_field("1/5", "0", "0")),
    PiecewiseSmoothSystem(parse_field("x2*x3-x2", "1", "0"),
                          parse_field("x3+x2*x3", "0", "1"),
                          parse_field("-1/5+x2*x3", "0", "0")),
)
_NORMAL_FORMS = st.builds(
    TwoFoldParams, st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.one_of(st.just(0.0), st.floats(-1.0, 1.0))).map(normal_form_system)
_SYSTEMS = st.one_of(
    st.sampled_from(("example-i", "example-ii", "example-iii")).map(lambda n: builtin(n).system),
    st.sampled_from(_PRODUCT_SYSTEMS), _NORMAL_FORMS)


@st.composite
def _axes(draw):
    """A slide-map axis: n points from lo to hi, spaced as the CLI spaces them."""
    scale = draw(st.sampled_from((1e-300, 1.0, 1e200, 1e308)))
    u, v = sorted(draw(st.lists(st.floats(-0.8, 0.8), min_size=2, max_size=2, unique=True)))
    lo, hi = scale * u, scale * v
    n = draw(st.integers(2, 7))
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(_SYSTEMS, _axes())
def test_surface_grid_matches_per_cell_layer_evaluation(sys, axis):
    rows = list(surface_grid(sys, axis))
    assert len(rows) == len(axis)
    for x2, (region_row, roots_row) in zip(axis, rows):
        for x3, region, lams in zip(axis, region_row, roots_row):
            assert region == _layer_region(sys, x2, x3) == region_classify(sys, x2, x3)
            want = _layer_roots(sys, x2, x3)
            assert repr(roots_of_sides(*sys.f1_sides(x2, x3))) == repr(want)
            assert repr(lams) == repr([lam for lam, _ in want])


def test_slide_map_roots_survive_f1_terms_near_the_float_limit():
    # over +-1e200 example-i's f1 terms reach 1e200, so the discriminant of
    # f1's quadratic overflows in every sliding cell; each must still hold
    # its one root, the Filippov slide's, with a residual within the bound
    # of `roots_of_sides`
    sys = builtin("example-i").system
    axis = [-1e200 + 2e200 * i / 40 for i in range(41)]
    sliding = 0
    for x2, (region_row, roots_row) in zip(axis, surface_grid(sys, axis)):
        for x3, region, lams in zip(axis, region_row, roots_row):
            sigma = {"attracting-sliding": -1, "repelling-sliding": 1}.get(region)
            if sigma is None:
                continue
            sliding += 1
            sides = sys.f1_sides(x2, x3)
            assert lams == [slide_root(*sides, sigma)[0]], (x2, x3)
            assert abs(sys.f1_surface(x2, x3, lams[0])) <= RESIDUAL_TOL * max(
                1.0, sum(map(abs, sides)))
    assert sliding == 800
    # the repelling root at (-1e200, -5e199) solves 1e200 (1+lam) - 5e199 (1-lam) = 0
    lams = next(surface_grid(sys, [-1e200, -5e199]))[1][1]
    assert lams == [pytest.approx(-1.0 / 3.0, rel=1e-15)]


def _scaled_f(k, g1):
    """F = {f_plus: (-x2, 1, 1), f_minus: (x3, 1, -1), hidden: (1/5, 0, 0)}
    with f1+, f1- and g1 times a factor: f1's terms are k*(-x2), k*x3, g1."""
    return load_config({"f_plus": [f"-{k}*x2", "1", "1"],
                        "f_minus": [f"{k}*x3", "1", "-1"],
                        "hidden": [g1, "0", "0"]}).system


@pytest.mark.parametrize("sys", [
    *(pytest.param(builtin(name).system, id=name) for name in builtin_names()),
    pytest.param(_scaled_f("1", "1/5"), id="F"),
    pytest.param(_scaled_f("1000000", "200000"), id="F-times-1e6"),
    pytest.param(_scaled_f("1/1000000", "1/5000000"), id="F-times-1e-6"),
])
def test_slide_map_roots_are_the_filippov_slide_roots(sys):
    # the Filippov integrator slides on slide_root(..., -1) in an attracting
    # cell and on slide_root(..., +1) in a repelling one; a slide map must
    # show that root and no other at every scale of f1's terms
    for lo, hi in ((-2, 2), (-3, 3), (-1.5, 2.5), (-2.5, 1.5)):
        axis = [lo + (hi - lo) * i / 40 for i in range(41)]
        for x2, (region_row, roots_row) in zip(axis, surface_grid(sys, axis)):
            for x3, region, lams in zip(axis, region_row, roots_row):
                sigma = {"attracting-sliding": -1, "repelling-sliding": 1}.get(region)
                if sigma is not None:
                    lam = slide_root(*sys.f1_sides(x2, x3), sigma)[0]
                    assert lams == [lam], (x2, x3, region)
