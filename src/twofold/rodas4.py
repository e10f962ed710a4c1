"""One RODAS4 step on R^3: the order-4 L-stable Rosenbrock method of
Hairer's `rodas.f` (METH = 1; Hairer & Wanner, *Solving ODEs II*, section
IV.7), for an autonomous field.

Stage i solves (1/(gamma h) I - J) u_i = f(Y_i) + sum_j (C_ij/h) u_j for a
state increment u_i, with one Jacobian and one 3x3 inverse (adjugate over
determinant) per attempt and six right-hand-side evaluations: Y2..Y5, Y5 + u5
and the new point, whose derivative the next step reuses.  The new state is
Y5 + u5 + u6, and u6 estimates the error.

`integrate._Stepper._attempt` imports this module at a run's first RODAS4
attempt, which only a smoothed run on its stiff layer makes, so no other
run or command compiles it.
"""

from __future__ import annotations

_NAN = float("nan")

# the coefficients of rodas.f, METH = 1: the stage points _RAij, the
# increment couplings _RCij and gamma
_RA21 = 1.544
_RA31, _RA32 = 0.9466785280815826, 0.2557011698983284
_RA41, _RA42, _RA43 = 3.314825187068521, 2.896124015972201, 0.9986419139977817
_RA51, _RA52, _RA53, _RA54 = (1.221224509226641, 6.019134481288629, 12.53708332932087,
                              -0.6878860361058950)
_RC21 = -5.6688
_RC31, _RC32 = -2.430093356833875, -0.2063599157091915
_RC41, _RC42, _RC43 = -0.1073529058151375, -9.594562251023355, -20.47028614809616
_RC51, _RC52, _RC53, _RC54 = (7.496443313967647, -10.24680431464352, -33.99990352819905,
                              11.70890893206160)
_RC61, _RC62, _RC63, _RC64, _RC65 = (8.083246795921522, -7.981132988064893,
                                     -31.52159432874371, 16.31930543123136,
                                     -6.058818238834054)
_GAMMA = 0.25


def attempt(rhs, jac, y, f, h, at, rt):
    """One attempt of size h from (y, f = rhs(*y)): (y_new, f_new, err),
    err in the max-norm of the absolute and relative tolerances at and rt
    that `integrate._dp54_run` also applies to its DP54 attempts.  A
    singular or non-finite matrix gives a NaN state, which the loop rejects
    like any non-finite state."""
    y1, y2, y3 = y
    j11, j12, j13, j21, j22, j23, j31, j32, j33 = jac(y1, y2, y3)
    # 1/gamma/h, not 1/(gamma h), which divides by zero once gamma h underflows
    g = 1.0 / _GAMMA / h
    a11, a22, a33 = g - j11, g - j22, g - j33
    c11 = a22 * a33 - j23 * j32
    c12 = j23 * j31 + j21 * a33
    c13 = j21 * j32 + a22 * j31
    det = a11 * c11 - j12 * c12 - j13 * c13
    if det == 0.0 or det - det != 0.0:
        return (_NAN, _NAN, _NAN), f, 0.0
    r = 1.0 / det
    i11, i21, i31 = c11 * r, c12 * r, c13 * r
    i12 = (j13 * j32 + j12 * a33) * r
    i22 = (a11 * a33 - j13 * j31) * r
    i32 = (j12 * j31 + a11 * j32) * r
    i13 = (j12 * j23 + j13 * a22) * r
    i23 = (j13 * j21 + a11 * j23) * r
    i33 = (a11 * a22 - j12 * j21) * r

    def solve(b1, b2, b3):
        return (i11 * b1 + i12 * b2 + i13 * b3, i21 * b1 + i22 * b2 + i23 * b3,
                i31 * b1 + i32 * b2 + i33 * b3)

    # written out over the three components, u<stage><component>
    ih = 1.0 / h
    u11, u12, u13 = solve(*f)
    f1, f2, f3 = rhs(y1 + _RA21 * u11, y2 + _RA21 * u12, y3 + _RA21 * u13)
    u21, u22, u23 = solve(f1 + ih * (_RC21 * u11), f2 + ih * (_RC21 * u12),
                          f3 + ih * (_RC21 * u13))
    f1, f2, f3 = rhs(y1 + (_RA31 * u11 + _RA32 * u21), y2 + (_RA31 * u12 + _RA32 * u22),
                     y3 + (_RA31 * u13 + _RA32 * u23))
    u31, u32, u33 = solve(f1 + ih * (_RC31 * u11 + _RC32 * u21),
                          f2 + ih * (_RC31 * u12 + _RC32 * u22),
                          f3 + ih * (_RC31 * u13 + _RC32 * u23))
    f1, f2, f3 = rhs(y1 + (_RA41 * u11 + _RA42 * u21 + _RA43 * u31),
                     y2 + (_RA41 * u12 + _RA42 * u22 + _RA43 * u32),
                     y3 + (_RA41 * u13 + _RA42 * u23 + _RA43 * u33))
    u41, u42, u43 = solve(f1 + ih * (_RC41 * u11 + _RC42 * u21 + _RC43 * u31),
                          f2 + ih * (_RC41 * u12 + _RC42 * u22 + _RC43 * u32),
                          f3 + ih * (_RC41 * u13 + _RC42 * u23 + _RC43 * u33))
    v1 = y1 + (_RA51 * u11 + _RA52 * u21 + _RA53 * u31 + _RA54 * u41)
    v2 = y2 + (_RA51 * u12 + _RA52 * u22 + _RA53 * u32 + _RA54 * u42)
    v3 = y3 + (_RA51 * u13 + _RA52 * u23 + _RA53 * u33 + _RA54 * u43)
    f1, f2, f3 = rhs(v1, v2, v3)
    u51, u52, u53 = solve(f1 + ih * (_RC51 * u11 + _RC52 * u21 + _RC53 * u31 + _RC54 * u41),
                          f2 + ih * (_RC51 * u12 + _RC52 * u22 + _RC53 * u32 + _RC54 * u42),
                          f3 + ih * (_RC51 * u13 + _RC52 * u23 + _RC53 * u33 + _RC54 * u43))
    v1, v2, v3 = v1 + u51, v2 + u52, v3 + u53
    f1, f2, f3 = rhs(v1, v2, v3)
    u61, u62, u63 = solve(f1 + ih * (_RC61 * u11 + _RC62 * u21 + _RC63 * u31 + _RC64 * u41
                                     + _RC65 * u51),
                          f2 + ih * (_RC61 * u12 + _RC62 * u22 + _RC63 * u32 + _RC64 * u42
                                     + _RC65 * u52),
                          f3 + ih * (_RC61 * u13 + _RC62 * u23 + _RC63 * u33 + _RC64 * u43
                                     + _RC65 * u53))
    n1, n2, n3 = v1 + u61, v2 + u62, v3 + u63
    q1 = abs(u61) / (at + rt * max(abs(y1), abs(n1)))
    q2 = abs(u62) / (at + rt * max(abs(y2), abs(n2)))
    q3 = abs(u63) / (at + rt * max(abs(y3), abs(n3)))
    return (n1, n2, n3), rhs(n1, n2, n3), max(0.0, q1, q2, q3)
