import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persprox.roots import RootFindError, real_quartic_roots, solve_bracketed


def _solve(fn, slope, *, curvature=None, trace=None, **kw):
    """``solve_bracketed`` from ``fn(0)`` on ``slope`` and ``curvature``
    (NaN where not given: Newton steps only), with the tolerances in ``kw``
    (``1e-12`` and 200 evaluations where not given)."""
    kw.setdefault("xtol", 1e-12)
    kw.setdefault("ftol", 1e-12)
    kw.setdefault("max_iter", 200)
    if curvature is None:
        curvature = _undefined
    return solve_bracketed(fn, lambda t: (slope(t), curvature(t)), fn(0.0), trace=trace, **kw)


def _undefined(t):
    # a derivative the function does not define
    return math.nan


def test_solve_bracketed_linear():
    res = _solve(lambda t: t - 3.0, lambda t: 1.0)
    assert (res.root, res.residual, res.iterations) == (3.0, 0.0, 1)


def test_solve_bracketed_stiff_kink():
    fn = lambda t: 1e6 * (t - 0.1) if t > 0.1 else (t - 0.1)
    res = _solve(fn, _undefined, xtol=1e-13, ftol=1e-10)
    assert res.root == pytest.approx(0.1, abs=1e-12)


def test_solve_bracketed_requires_sign_change():
    with pytest.raises(RootFindError):
        solve_bracketed(lambda t: t + 1.0, lambda t: (1.0, 0.0), 1.0,
                        xtol=1e-12, ftol=1e-12, max_iter=50)


def test_solve_bracketed_iteration_budget():
    # Newton from 0 needs 8 evaluations here
    fn = lambda t: t ** 3 + t - 3.0
    with pytest.raises(RootFindError) as err:
        _solve(fn, lambda t: 3.0 * t * t + 1.0, xtol=1e-15, ftol=1e-15, max_iter=3)
    assert err.value.lo <= 1.2134116627622296 <= err.value.hi


def test_solve_bracketed_stops_at_float_resolution():
    # |fn| at the doubles next to the root is about 4e4, far above ftol
    fn = lambda t: t + 1e20 * (t * t - 2.0)
    res = _solve(fn, lambda t: 1.0 + 2e20 * t, xtol=0.0, ftol=1e-20)
    lo, hi = math.nextafter(res.root, 0.0), math.nextafter(res.root, 3.0)
    other = lo if fn(lo) * fn(res.root) < 0.0 else hi
    assert fn(other) * fn(res.root) < 0.0
    assert res.residual == fn(res.root)
    assert 1e-20 < abs(res.residual) <= abs(fn(other))


def test_trace_reports_shrinking_sign_change_bracket():
    rows = []
    res = _solve(lambda t: t ** 3 + t - 2.5, lambda t: 3.0 * t * t + 1.0,
                 trace=lambda *row: rows.append(row))
    assert len(rows) == res.iterations > 0
    assert [row[0] for row in rows] == list(range(1, len(rows) + 1))
    widths = [hi - lo for _, lo, hi, _, _ in rows]
    assert all(b <= a for a, b in zip(widths, widths[1:]))
    assert all(lo <= mid <= hi for _, lo, hi, mid, _ in rows)
    assert rows[-1][3:] == (res.root, res.residual)


def test_newton_steps_from_slopes():
    fn = lambda t: t ** 3 + t - 3.0
    rows = []
    res = _solve(fn, lambda t: 3.0 * t * t + 1.0, xtol=1e-15, ftol=1e-15,
                 trace=lambda *row: rows.append(row))
    assert res.root == pytest.approx(1.2134116627622296, rel=1e-15)
    assert res.iterations == len(rows) <= 8
    # bisection alone takes 42 evaluations to the same tolerances
    assert _solve(fn, _undefined, xtol=1e-15, ftol=1e-15).iterations >= 40


def test_each_evaluation_shrinks_the_bracket():
    # fn' >= 1, so the root lies in [0, -fn(0)] and within |fn(x)| of each x
    fn = lambda t: t + 0.5 * math.tanh(t - 1.0) - 1.5
    rows = []
    res = _solve(fn, lambda t: 1.0 + 0.5 / math.cosh(t - 1.0) ** 2, ftol=1e-10,
                 trace=lambda *row: rows.append(row))
    assert abs(fn(res.root)) <= 5e-13
    assert res.iterations == len(rows) <= 5
    for _, lo, hi, x, fx in rows:
        assert lo <= x <= hi
    # each evaluation bounds the next bracket by |fn(x)|
    for (_, _, _, x, fx), (_, lo, hi, _, _) in zip(rows, rows[1:]):
        slack = 4.0 * 2.0 ** -52 * abs(x)
        assert lo >= x - abs(fx) - slack and hi <= x + abs(fx) + slack


def test_bisects_where_the_slope_is_nan():
    # a NaN slope (one the curves do not define) rules out a Newton step:
    # every step bisects, in log space while the ends differ by more than
    # 16x, and the search still converges
    fn = lambda t: t + 0.5 * math.tanh(t - 1.0) - 1.5
    rows = []
    res = _solve(fn, _undefined, xtol=1e-12, ftol=1e-10, trace=lambda *row: rows.append(row))
    # stopped on the width: within xtol of the root, |fn| within ftol
    assert res.root == pytest.approx(1.3374158071711997, abs=1e-12)
    assert abs(res.residual) <= 1e-10
    assert res.iterations == len(rows) <= 30
    for _, lo, hi, x, _ in rows:
        low = max(lo, 1e-12)
        mid = math.sqrt(low) * math.sqrt(hi) if hi > 16.0 * low else lo + 0.5 * (hi - lo)
        assert x == pytest.approx(mid, rel=1e-15, abs=1e-12)


def test_log_space_split_with_zero_lower_end_and_xtol():
    # roots 1e-18..1e-90 of fn' >= 1 functions, decades below -fn(0); with
    # xtol = 0 the smallest normal double stands in for the lower end 0
    for power, c in ((0.3, 1e-6), (0.1, 1e-3), (0.1, 1e-9), (0.5, 1e-9)):
        fn = lambda t: t + 1e12 * (t ** power - c)
        slope = lambda t: 1.0 + 1e12 * power * t ** (power - 1.0) if t > 0.0 else math.inf
        res = _solve(fn, slope, xtol=0.0, ftol=0.0)
        assert res.root == pytest.approx(c ** (1.0 / power), rel=1e-13)
        assert res.iterations <= 20


def test_bound_broken_by_rounding_noise():
    # fn' >= 1 up to noise of 30 ulps of the root, so the bound |fn(x)| from
    # x can exclude the root of the computed fn; the search must still end
    # at a sign change between adjacent doubles or at |fn| <= ftol
    for k in range(40):
        r = 1e6 * (1.0 + k / 7.0)
        fn = lambda t: (t - r) + 30.0 * math.ulp(r) * (2.0 * random.Random(t).random() - 1.0)
        res = _solve(fn, lambda t: 1.0)
        x, fx = res.root, res.residual
        assert fx == fn(x)
        if abs(fx) > 1e-12:
            sides = [fn(math.nextafter(x, s)) for s in (-math.inf, math.inf)]
            assert any(fx * f <= 0.0 for f in sides), (k, x, fx, sides)


def test_unevaluated_end_is_evaluated_once_the_width_is_met():
    # a slope two rounding units above 1 puts the Newton step from 0 three
    # ulps short of the root, the end -fn(0) that was never evaluated; the
    # width is met there but not ftol, so that end is evaluated next rather
    # than reached by bisections of an ulp or two
    r = 5e7
    res = _solve(lambda t: t - r, lambda t: 1.0 + 4.5e-16, ftol=1e-10)
    assert (res.root, res.iterations) == (r, 2)


def test_halley_steps_from_the_curvature():
    # fn is concave, so every Newton step from below lands short of the root;
    # Halley's step s / (1 - k), k = fn * fn'' / (2 fn'**2), takes 3
    # evaluations where Newton takes 5, to the same root
    fn = lambda t: t + 4.0 * (1.0 - math.exp(-t)) - 3.0
    slope = lambda t: 1.0 + 4.0 * math.exp(-t)
    curvature = lambda t: -4.0 * math.exp(-t)
    rows = []
    newton = _solve(fn, slope, xtol=1e-15, ftol=1e-15)
    halley = _solve(fn, slope, xtol=1e-15, ftol=1e-15, curvature=curvature,
                    trace=lambda *row: rows.append(row))
    assert (newton.iterations, halley.iterations) == (5, 3)
    assert halley.root == pytest.approx(newton.root, rel=4e-16)
    f0, d0 = fn(0.0), slope(0.0)
    k = 0.5 * f0 * curvature(0.0) / (d0 * d0)
    assert rows[0][3] == pytest.approx((-f0 / d0) / (1.0 - k), rel=1e-15)


def _huber_sqrt_search(gamma, x, y):
    """The multiplier search of huber(1e4)/sqrt(1), whose T(0) is -5e7, with
    the points it evaluates and those at which it reads T' and T''."""
    from persprox import HuberBase, PerspectivePair, SqrtScaling
    from persprox.solver import SearchRecord, make_residual_case_iii

    pair = PerspectivePair(HuberBase(1e4), SqrtScaling(1.0), n=2)
    record = SearchRecord()
    T = make_residual_case_iii(pair, gamma, x, y, record)
    calls = []

    def derivatives(eta):
        calls.append(eta)
        return record.derivatives(eta)

    rows = []
    t0 = T(0.0)
    res = solve_bracketed(T, derivatives, t0, xtol=1e-12, ftol=1e-10, max_iter=200,
                          trace=lambda *row: rows.append(row))
    return t0, record, res, [row[3] for row in rows], calls


def test_curvature_is_read_only_where_a_halley_step_is_considered():
    # T' is 1 at 0, so the Newton step lands on -T(0), the far end and here
    # the root: one evaluation, with no Halley step
    t0, _, res, points, _ = _huber_sqrt_search(
        82.460343725865, (-2.2471579863643957e-11, 1.0463393631637133e-11), 1.3480067897445157e-10)
    assert t0 == -5e7
    assert (res.iterations, points) == (1, [5e7])


def test_an_out_of_reach_halley_step_falls_back_to_newton():
    # T' is a rounding unit above 1 at 0 and k about 0.04: Halley's step would
    # pass -T(0), so the Newton step is taken, two ulps short of the root, and
    # the far end next, as without the curvature; a bisection would halve
    # the 5e7-wide bracket instead
    t0, record, res, points, calls = _huber_sqrt_search(
        1379477.7849622804, (-0.17968340073754324, 0.7541093507962938), -0.03661254703780653)
    assert t0 == -5e7 and calls == [0.0]
    assert points == [-t0 / record.derivatives(0.0)[0], 5e7]
    assert (res.root, res.iterations) == (5e7, 2)


def test_width_met_stop_returns_the_evaluated_end_of_smaller_residual():
    # power(2)/identity with T' about 6e6 near eta = 0.031, where one ulp of
    # eta moves T by 2e-11: evaluation 15 has |T| = 1.7e-11 <= ftol, the
    # tol-long step from it overshoots to T = 3e-6, and the width is met
    # there. The search returns evaluation 15 rather than bisecting back
    # towards it (15 more evaluations)
    from persprox import IdentityScaling, PerspectivePair, PowerBase
    from persprox.solver import SearchRecord, make_residual_case_i

    pair = PerspectivePair(PowerBase(2.0), IdentityScaling(), n=2)
    record = SearchRecord()
    T = make_residual_case_i(pair, 9.184349510317373e-08, (41225.91147263342, -16862.3298789671),
                             -94729.97351573117, record)
    rows = []
    # Newton steps only: T' from the record, no T''
    res = solve_bracketed(T, lambda eta: (record.derivatives(eta)[0], math.nan), T(0.0),
                          xtol=1e-12, ftol=1e-10, max_iter=200, trace=lambda *row: rows.append(row))
    assert res.iterations == len(rows) == 16
    (*_, x15, t15), (*_, x16, t16) = rows[-2:]
    assert abs(t15) <= 1e-10 < abs(t16)
    assert (res.root, res.residual) == (x15, t15)


def _numpy_real_roots(b, c, d, e):
    roots = np.roots([1.0, b, c, d, e])
    # real means: imaginary part negligible against the root's modulus
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8 * abs(r))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4))
def test_quartic_matches_companion_matrix_oracle(coeffs):
    b, c, d, e = coeffs
    ours = real_quartic_roots(b, c, d, e)
    ref = _numpy_real_roots(b, c, d, e)
    # every reference root is matched by one of ours; a root of multiplicity
    # m is determined only to eps**(1/m), hence the loose matching tolerance
    for r in ref:
        assert any(abs(r - o) <= 5e-3 * (1.0 + abs(r)) for o in ours), (ours, ref)
    for o in ours:
        resid = (((o + b) * o + c) * o + d) * o + e
        scale = max(1.0, abs(o)) ** 4 * max(1.0, abs(b), abs(c), abs(d), abs(e))
        assert abs(resid) <= 1e-8 * scale


def test_quartic_known_factorizations():
    # (x-1)(x-2)(x-3)(x-4)
    roots = real_quartic_roots(-10.0, 35.0, -50.0, 24.0)
    assert roots == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-9)
    # biquadratic (x^2-1)(x^2-4)
    roots = real_quartic_roots(0.0, -5.0, 0.0, 4.0)
    assert roots == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-9)
    # no real roots
    assert real_quartic_roots(0.0, 2.0, 0.0, 1.0) == []
    # quadruple root at 1: (x-1)^4
    roots = real_quartic_roots(-4.0, 6.0, -4.0, 1.0)
    assert roots
    assert all(abs(r - 1.0) <= 1e-3 for r in roots)
