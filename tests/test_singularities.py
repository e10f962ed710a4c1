import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twofold.fields import TwoFoldParams, normal_form_system
from twofold.singularities import (AlphaZeroError, BoundarySingularityError,
                                   _slow_flow_type, classify_two_fold,
                                   folded_singularities, sweep_grid)
from twofold.sliding import surface_quadratic

SQ2 = math.sqrt(2.0)


def lambdas(p):
    """The lam_s of the folded singularities of `p`, ascending."""
    return [s.lambda_s for s in folded_singularities(p)]


# ------------------------------------------------------------ flavours

def test_flavour_tags():
    assert classify_two_fold(TwoFoldParams(-1, -1, 3.0, 3.0, 0.1)).tag == "visible"
    assert classify_two_fold(TwoFoldParams(1, 1, 3.0, 3.0, 0.1)).tag == "invisible"
    assert classify_two_fold(TwoFoldParams(1, -1, 3.0, 3.0, 0.1)).tag == "mixed"
    assert classify_two_fold(TwoFoldParams(-1, 1, 3.0, 3.0, 0.1)).tag == "mixed"


def test_determinacy_breaking_invisible():
    f = classify_two_fold(TwoFoldParams(1, 1, -2.0, -2.0, 0.1))
    assert f.tag == "invisible" and f.determinacy_breaking          # b1 b2 = 4 > 1
    f = classify_two_fold(TwoFoldParams(1, 1, -0.5, -0.5, 0.1))
    assert not f.determinacy_breaking                               # b1 b2 = 0.25 < 1
    assert not classify_two_fold(TwoFoldParams(1, 1, -2.0, 2.0, 0.1)).determinacy_breaking


def test_determinacy_breaking_visible():
    assert classify_two_fold(TwoFoldParams(-1, -1, -1.0, 0.5, 0.1)).determinacy_breaking
    assert classify_two_fold(TwoFoldParams(-1, -1, 0.5, 0.5, 0.1)).determinacy_breaking
    assert not classify_two_fold(TwoFoldParams(-1, -1, 2.0, 2.0, 0.1)).determinacy_breaking


def test_determinacy_breaking_mixed_both_orientations():
    # stated orientation a1 = -1, a2 = +1
    assert classify_two_fold(TwoFoldParams(-1, 1, -2.0, 2.0, 0.1)).determinacy_breaking
    assert classify_two_fold(TwoFoldParams(-1, 1, -4.0, -1.0, 0.1)).determinacy_breaking
    assert not classify_two_fold(TwoFoldParams(-1, 1, 0.5, 3.0, 0.1)).determinacy_breaking
    # mirrored orientation swaps the roles of b1 and b2
    assert classify_two_fold(TwoFoldParams(1, -1, 2.0, -2.0, 0.1)).determinacy_breaking
    assert classify_two_fold(TwoFoldParams(1, -1, -1.0, -4.0, 0.1)).determinacy_breaking
    assert not classify_two_fold(TwoFoldParams(1, -1, -2.0, 2.0, 0.1)).determinacy_breaking


def test_strict_inequalities_fail_on_ties():
    # b1 b2 = 1 exactly is not determinacy-breaking in the invisible case
    assert not classify_two_fold(TwoFoldParams(1, 1, -1.0, -1.0, 0.1)).determinacy_breaking


# ------------------------------------------------------------ locations

def test_unique_root_equal_curvatures():
    sings = folded_singularities(TwoFoldParams(1, 1, 1.0, -1.0, 0.2))
    assert len(sings) == 1
    s = sings[0]
    assert s.lambda_s == pytest.approx(SQ2 - 1, abs=1e-12)
    assert s.x2s == pytest.approx(0.2 * (s.lambda_s - 1) ** 2, abs=1e-15)
    assert s.x3s == pytest.approx(-0.2 * (s.lambda_s + 1) ** 2, abs=1e-15)


def test_mixed_pair_roots():
    sings = folded_singularities(TwoFoldParams(1, -1, 2.0, -2.0, 0.2))
    want = math.sqrt(2.0 / 6.0)
    assert [s.lambda_s for s in sings] == pytest.approx([-want, want], abs=1e-12)


def test_mixed_no_roots():
    assert folded_singularities(TwoFoldParams(1, -1, 1.0, 1.0, 0.2)) == []
    assert folded_singularities(TwoFoldParams(-1, 1, 3.0, 1.0, 0.2)) == []


def test_linear_degradation_at_equal_drifts():
    # b1 = b2 kills the quadratic's leading coefficient
    assert lambdas(TwoFoldParams(1, 1, -2.0, -2.0, 0.2)) == [0.0]


def test_alpha_zero_rejected():
    with pytest.raises(AlphaZeroError):
        folded_singularities(TwoFoldParams(1, 1, 1.0, -1.0, 0.0))


def test_boundary_lambda_rejected_in_constants():
    # a drift of 1e15 puts lam_s within 1e-9 of -1, where the constants
    # divide by 1 + lam_s
    with pytest.raises(BoundarySingularityError):
        folded_singularities(TwoFoldParams(1, 1, 3.0, 1e15, 2.0))


def test_existence_quadratic_never_vanishes_on_the_boundary():
    # at lam = +-1 the existence quadratic evaluates to 4 a1 resp. -4 a2, so
    # valid parameters can never produce a boundary singularity
    rng = random.Random(3)
    for _ in range(100):
        a1, a2 = rng.choice([-1, 1]), rng.choice([-1, 1])
        b1, b2 = rng.uniform(-9, 9), rng.uniform(-9, 9)
        A = (a1 - a2) + (b1 - b2)
        B = 2 * (a1 + a2)
        C = (a1 - a2) - (b1 - b2)
        assert A + B + C == pytest.approx(4 * a1, abs=1e-12)
        assert A - B + C == pytest.approx(-4 * a2, abs=1e-12)


def test_closed_form_display_agreement():
    # where b1 != b2 the roots match the explicit radical form
    rng = random.Random(4)
    for _ in range(300):
        a1, a2 = rng.choice([-1, 1]), rng.choice([-1, 1])
        b1, b2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
        if abs(b1 - b2) < 1e-3:
            continue
        d = b1 - b2
        arg = 1.0 + 4.0 * a1 * a2 / d ** 2
        if arg < 0:
            explicit = []
        else:
            root = math.sqrt(arg)
            den = 1.0 + (a1 - a2) / d
            explicit = []
            if den != 0.0:
                explicit = [(-(a1 + a2) / d + s * root) / den for s in (1, -1)]
            explicit = sorted(l for l in explicit if abs(l) <= 1.0)
        got = lambdas(TwoFoldParams(a1, a2, b1, b2, 0.2))
        assert len(got) == len(explicit)
        for g, e in zip(got, explicit):
            assert abs(g - e) <= 1e-12


def test_case_counts_on_grid():
    # existence counts per curvature case: one root when a1 = a2, two or
    # none in the mixed cases with the threshold at |b1 - b2| = 2
    for k in range(-60, 61):
        d = k / 10.0
        assert len(lambdas(TwoFoldParams(1, 1, d, 0.0, 0.2))) == 1
        assert len(lambdas(TwoFoldParams(-1, -1, d, 0.0, 0.2))) == 1
        n_pm = len(lambdas(TwoFoldParams(1, -1, d, 0.0, 0.2)))
        n_mp = len(lambdas(TwoFoldParams(-1, 1, d, 0.0, 0.2)))
        if abs(abs(d) - 2.0) < 1e-12:
            continue  # merged double root at the exact threshold
        assert n_pm == (2 if d > 2.0 else 0)
        assert n_mp == (2 if d < -2.0 else 0)


# ------------------------------------------------------------ constants

def test_worked_constants_at_lambda_zero():
    (k,) = folded_singularities(TwoFoldParams(1, 1, -2.0, -2.0, 0.2))
    assert k.lambda_s == 0.0
    assert k.f2s == pytest.approx(-0.5, abs=1e-15)
    assert k.f3s == pytest.approx(-0.5, abs=1e-15)
    assert k.c == pytest.approx(3.0, abs=1e-14)
    assert k.d1 == -0.5
    assert k.a_tilde == pytest.approx(-0.5, abs=1e-15)
    assert k.c_tilde == pytest.approx(-3.0 / (2 * math.sqrt(0.2)), abs=1e-13)
    assert k.b_tilde == pytest.approx(-2.5, abs=1e-13)


def test_symmetric_location_at_lambda_zero():
    s = folded_singularities(TwoFoldParams(1, 1, -2.0, -2.0, 0.2))[0]
    assert (s.x2s, s.x3s) == pytest.approx((0.2, -0.2), abs=1e-15)


def test_scaling_in_alpha():
    (k1,) = folded_singularities(TwoFoldParams(1, 1, -2.0, -2.0, 0.2))
    (k4,) = folded_singularities(TwoFoldParams(1, 1, -2.0, -2.0, 0.8))
    assert k1.lambda_s == k4.lambda_s == 0.0
    assert k4.c_tilde == pytest.approx(0.5 * k1.c_tilde, abs=1e-13)
    # b~ recomputation under alpha -> 4 alpha, from its defining expression
    expect = -(k4.f2s + k4.f3s - 2 * k4.c_tilde * math.sqrt(0.8)) / (4 * 0.8 * 1.0)
    assert k4.b_tilde == pytest.approx(expect, abs=1e-13)


def test_singularity_residuals_random_draws():
    # all three defining conditions hold at every returned singularity
    rng = random.Random(20240819)
    for _ in range(1000):
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-5, 5), rng.uniform(-5, 5),
                          rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        sys = normal_form_system(p)
        for s in folded_singularities(p):
            r1 = sys.f1_surface(s.x2s, s.x3s, s.lambda_s)
            a, b, _ = surface_quadratic(*sys.f1_sides(s.x2s, s.x3s))
            r2 = 2.0 * a * s.lambda_s + b
            r3 = (s.f2s * (-(1 + s.lambda_s) / 2) + s.f3s * (1 - s.lambda_s) / 2)
            assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10 and abs(r3) <= 1e-10


# ------------------------------------------------------------ types

def test_type_sign_tests():
    assert _slow_flow_type(1.0, -1.0, 0.0)[0] == "folded-saddle"
    kind, canard, eig, trace, det = _slow_flow_type(1.0, 1.0, 3.0)
    assert kind == "folded-node" and canard == "canard"
    assert trace == 3.0 and det == 2.0
    assert eig[0].imag == 0.0
    kind, canard, eig, _, _ = _slow_flow_type(1.0, 1.0, 1.0)
    assert kind == "folded-focus"
    assert eig[0].imag != 0.0 and eig[0] == eig[1].conjugate()


def test_type_boundaries_are_degenerate():
    assert _slow_flow_type(0.0, 1.0, 1.0)[0] == "degenerate"
    assert _slow_flow_type(1.0, 2.0, 4.0)[0] == "degenerate"   # c~^2 = 16 = 8 a~ b~


def test_degenerate_singularity_keeps_its_slow_flow_values():
    # c~ = -sqrt(5) with a~ = 0: on the saddle/node boundary, so the type is
    # not classified, yet flag, eigenvalues, trace and det are still reported
    (s,) = folded_singularities(TwoFoldParams(1, 1, -1.0, -1.0, 0.2))
    root5 = math.sqrt(5.0)
    assert s.folded_type == "degenerate" and s.canard == "faux-canard"
    assert s.eigenvalues == (0j, complex(-root5, 0.0))
    assert s.trace == -root5
    assert s.det == 0.0 and math.copysign(1.0, s.det) == -1.0


def test_eigenvalue_formula():
    _, _, eig, trace, det = _slow_flow_type(0.5, -2.0, 1.5)
    root = math.sqrt(1.5 ** 2 + 8.0)
    assert eig[0] == pytest.approx(0.5 * (1.5 + root))
    assert eig[1] == pytest.approx(0.5 * (1.5 - root))
    assert trace == pytest.approx(eig[0].real + eig[1].real)
    assert det == pytest.approx((eig[0] * eig[1]).real)


def test_canard_flag_follows_trace_sign():
    assert _slow_flow_type(1.0, -1.0, 2.0)[1] == "canard"
    assert _slow_flow_type(1.0, -1.0, -2.0)[1] == "faux-canard"
    assert _slow_flow_type(1.0, -1.0, 0.0)[1] == "neutral"


def test_canard_original_time_flips_with_alpha_sign():
    sp = folded_singularities(TwoFoldParams(1, 1, 1.0, -1.0, 0.2))[0]
    sm = folded_singularities(TwoFoldParams(1, 1, 1.0, -1.0, -0.2))[0]
    assert sp.canard != sp.canard_original_time or sp.canard == "neutral"
    assert sm.canard == sm.canard_original_time


# ------------------------------------------------------------ oracle

def desingularized_jacobian(p: TwoFoldParams, lambda_s: float, step=1e-5):
    """Independent oracle: linearize the desingularized slow flow of the
    layer system around the singularity by central differences.

    The slow flow lives on f1 = 0, charted by (lam, x3) with x2 solved from
    the constraint; rescaling time by -df1/dlam removes the fold singularity
    (and reverses time on the repelling branch, which leaves the equilibrium
    type unchanged).
    """
    a1, a2, b1, b2, al = p.a1, p.a2, p.b1, p.b2, p.alpha

    def x2_of(l, x3):
        return ((1 - l) * x3 + 2 * al * (1 - l * l)) / (1 + l)

    def desing(l, x3):
        x2 = x2_of(l, x3)
        df1_dl = -(x2 + x3) / 2 - 2 * al * l
        f2 = (1 + l) / 2 * a1 + (1 - l) / 2 * b2
        f3 = (1 + l) / 2 * b1 + (1 - l) / 2 * a2
        proj = f2 * (-(1 + l) / 2) + f3 * ((1 - l) / 2)
        return (proj, -f3 * df1_dl)

    x3s = -al * (lambda_s + 1) ** 2
    h = step
    j = np.empty((2, 2))
    j[0, 0] = (desing(lambda_s + h, x3s)[0] - desing(lambda_s - h, x3s)[0]) / (2 * h)
    j[0, 1] = (desing(lambda_s, x3s + h)[0] - desing(lambda_s, x3s - h)[0]) / (2 * h)
    j[1, 0] = (desing(lambda_s + h, x3s)[1] - desing(lambda_s - h, x3s)[1]) / (2 * h)
    j[1, 1] = (desing(lambda_s, x3s + h)[1] - desing(lambda_s, x3s - h)[1]) / (2 * h)
    return j


def classify_eigenvalues(eigs) -> str:
    if abs(eigs[0].imag) > 0:
        return "folded-focus"
    if eigs[0].real * eigs[1].real < 0:
        return "folded-saddle"
    return "folded-node"


def test_types_match_desingularized_flow_oracle():
    rng = random.Random(31337)
    checked = 0
    while checked < 100:
        p = TwoFoldParams(rng.choice([-1, 1]), rng.choice([-1, 1]),
                          rng.uniform(-5, 5), rng.uniform(-5, 5),
                          rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        for s in folded_singularities(p):
            if s.folded_type == "degenerate":
                continue
            if min(abs(s.a_tilde * s.b_tilde),
                   abs(s.c_tilde ** 2 - 8 * s.a_tilde * s.b_tilde)) < 1e-6:
                continue  # too close to a classification boundary
            eigs = np.linalg.eigvals(desingularized_jacobian(p, s.lambda_s))
            assert classify_eigenvalues(eigs) == s.folded_type, (p, s.lambda_s)
            checked += 1


def test_mixed_entries_are_independent():
    # entries of a mixed pair must classify independently: reclassify each
    # from its own constants and compare
    pair = folded_singularities(TwoFoldParams(-1, 1, -4.0, -1.0, 0.2))
    assert len(pair) == 2
    for s in pair:
        kind, canard, _, _, det = _slow_flow_type(s.a_tilde, s.b_tilde, s.c_tilde)
        assert kind == s.folded_type and canard == s.canard
        assert det == pytest.approx(s.det, rel=1e-12)
    assert pair[0].folded_type != pair[1].folded_type
    assert pair[0].det * pair[1].det < 0


def test_json_report_keys():
    s = folded_singularities(TwoFoldParams(1, 1, -2.0, -2.0, 0.2))[0]
    doc = s.to_json_dict()
    for key in ("lambda_s", "x2s", "x3s", "f2s", "f3s", "c", "b", "d1",
                "a_tilde", "b_tilde", "c_tilde", "type", "canard",
                "eigenvalues", "trace", "det"):
        assert key in doc
    assert doc["type"] == "folded-node"
    assert doc["eigenvalues"][0][1] == -doc["eigenvalues"][1][1]


# drifts up to the float range (a drift near 1e15 puts lam_s next to -1) and
# alphas about the 1e-9 floor
_DRIFTS = st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1e15, -1e15, 1e308)))
_ALPHAS = st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from((0.0, -0.0, 1e-10, 1e-9, -1e-9, 1.0000001e-9, 1e308)))


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_sweep_axis_must_be_finite(bad):
    with pytest.raises(ValueError, match="the sweep axis must be finite"):
        sweep_grid(1, 1, 0.2, [0.0, bad, 1.0])


def _outcome(fn, p):
    try:
        return fn(p)
    except (AlphaZeroError, BoundarySingularityError) as exc:
        return type(exc), exc.args


def _sweep_cell(a1, a2, b1, b2, alpha):
    p = TwoFoldParams(a1, a2, b1, b2, alpha)
    try:
        return classify_two_fold(p), [s.folded_type for s in folded_singularities(p)]
    except AlphaZeroError:
        return classify_two_fold(p), []


@settings(max_examples=500, deadline=None)
@given(st.sampled_from((-1, 1)), st.sampled_from((-1, 1)), _DRIFTS, _DRIFTS, _ALPHAS)
# lam_s within 1e-9 of -1 in some cells, and |alpha| at the floor
@example(1, 1, 3.0, 1e15, 2.0)
@example(-1, 1, -4.0, -1.0, -1e-9)
def test_folded_types_match_the_full_records(a1, a2, b1, b2, alpha):
    # every cell of a sweep over (b1, b2) is the per-point analysis, its
    # types those of the full records, and the sweep raises the first
    # cell's BoundarySingularityError
    axis = [b1, b2]
    try:
        cells = [[_sweep_cell(a1, a2, u, v, alpha) for v in axis] for u in axis]
    except BoundarySingularityError as exc:
        cells = (BoundarySingularityError, exc.args)
    assert _outcome(lambda axis: list(sweep_grid(a1, a2, alpha, axis)), axis) == cells
