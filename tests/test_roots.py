import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persprox.roots import RootFindError, real_quartic_roots, solve_bracketed


def test_solve_bracketed_linear():
    res = solve_bracketed(lambda t: t - 3.0, 0.0, 10.0, -3.0, 7.0,
                          xtol=1e-12, ftol=1e-12, max_iter=200)
    assert res.root == pytest.approx(3.0, abs=1e-12)
    assert res.iterations <= 200


def test_solve_bracketed_stiff_kink():
    fn = lambda t: 1e6 * (t - 0.1) if t > 0.1 else (t - 0.1)
    res = solve_bracketed(fn, 0.0, 5.0, fn(0.0), fn(5.0),
                          xtol=1e-13, ftol=1e-10, max_iter=200)
    assert res.root == pytest.approx(0.1, abs=1e-12)


def test_solve_bracketed_requires_sign_change():
    with pytest.raises(RootFindError):
        solve_bracketed(lambda t: t + 1.0, 0.0, 1.0, 1.0, 2.0,
                        xtol=1e-12, ftol=1e-12, max_iter=50)


def test_solve_bracketed_iteration_budget():
    # the stiff kink needs 4 evaluations; a linear function would take one
    fn = lambda t: 1e6 * (t - 0.1) if t > 0.1 else (t - 0.1)
    with pytest.raises(RootFindError) as err:
        solve_bracketed(fn, 0.0, 5.0, fn(0.0), fn(5.0),
                        xtol=1e-13, ftol=1e-10, max_iter=3)
    assert err.value.lo <= 0.1 <= err.value.hi


def test_solve_bracketed_stops_at_float_resolution():
    # |fn| at the doubles next to sqrt(2) is about 4e4, far above ftol
    fn = lambda t: 1e20 * (t * t - 2.0)
    res = solve_bracketed(fn, 1.0, 2.0, fn(1.0), fn(2.0),
                          xtol=0.0, ftol=1e-20, max_iter=200)
    lo, hi = math.nextafter(res.root, 0.0), math.nextafter(res.root, 3.0)
    other = lo if fn(lo) * fn(res.root) < 0.0 else hi
    assert fn(other) * fn(res.root) < 0.0
    assert res.residual == fn(res.root)
    assert 1e-20 < abs(res.residual) <= abs(fn(other))


def test_trace_reports_shrinking_sign_change_bracket():
    rows = []
    solve_bracketed(lambda t: t ** 3 - 2.0, 0.0, 4.0, -2.0, 62.0,
                    xtol=1e-12, ftol=1e-12, max_iter=200,
                    trace=lambda *row: rows.append(row))
    assert rows
    widths = [hi - lo for _, lo, hi, _, _ in rows]
    assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))
    assert all(lo <= mid <= hi for _, lo, hi, mid, _ in rows)


def test_newton_steps_from_slopes():
    # interpolation steps alone take 8 evaluations here
    fn = lambda t: t ** 3 - 2.0
    rows = []
    res = solve_bracketed(fn, 1.0, 4.0, -1.0, 62.0, xtol=1e-15, ftol=1e-15, max_iter=200,
                          slope=lambda t: 3.0 * t * t, trace=lambda *row: rows.append(row))
    assert res.root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    assert res.iterations == len(rows) <= 5


def test_min_slope_shrinks_an_unevaluated_bracket():
    # fn' >= 1, so the root lies in [0, -fn(0)] and within |fn(x)| of each x
    fn = lambda t: t + 0.5 * math.tanh(t - 1.0) - 1.5
    rows = []
    res = solve_bracketed(fn, 0.0, -fn(0.0), fn(0.0), None, xtol=1e-12, ftol=1e-10,
                          max_iter=200, slope=lambda t: 1.0 + 0.5 / math.cosh(t - 1.0) ** 2,
                          min_slope=1.0, trace=lambda *row: rows.append(row))
    assert abs(fn(res.root)) <= 5e-13
    assert res.iterations == len(rows) <= 5
    for _, lo, hi, x, fx in rows:
        assert lo <= x <= hi
    # each evaluation bounds the next bracket by |fn(x)|
    for (_, _, _, x, fx), (_, lo, hi, _, _) in zip(rows, rows[1:]):
        slack = 4.0 * 2.0 ** -52 * abs(x)
        assert lo >= x - abs(fx) - slack and hi <= x + abs(fx) + slack


def test_log_space_split_with_zero_lower_end_and_xtol():
    # concave powers with roots 1e-20..1e-90, decades below hi = 1e6; with
    # lo = xtol = 0 the smallest normal double stands in for the lower end
    for power, c in ((0.3, 1e-6), (0.1, 1e-3), (0.1, 1e-9), (0.5, 1e-9)):
        fn = lambda t: t ** power - c
        res = solve_bracketed(fn, 0.0, 1e6, fn(0.0), fn(1e6),
                              xtol=0.0, ftol=0.0, max_iter=200)
        assert res.root == pytest.approx(c ** (1.0 / power), rel=1e-13)
        assert res.iterations <= 30


def test_min_slope_bound_broken_by_rounding_noise():
    # fn' >= 1 up to noise of 30 ulps of the root, so the bound |fn(x)| from
    # x can exclude the root of the computed fn; the search must still end
    # at a sign change between adjacent doubles or at |fn| <= ftol
    for k in range(40):
        r = 1e6 * (1.0 + k / 7.0)
        fn = lambda t: (t - r) + 30.0 * math.ulp(r) * (2.0 * random.Random(t).random() - 1.0)
        res = solve_bracketed(fn, 0.0, -fn(0.0), fn(0.0), None, xtol=1e-12, ftol=1e-12,
                              max_iter=200, slope=lambda t: 1.0, min_slope=1.0)
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
    res = solve_bracketed(lambda t: t - r, 0.0, r, -r, None, xtol=1e-12, ftol=1e-10,
                          max_iter=200, slope=lambda t: 1.0 + 4.5e-16, min_slope=1.0)
    assert (res.root, res.iterations) == (r, 2)


def test_unevaluated_end_needs_min_slope():
    with pytest.raises(ValueError, match="min_slope"):
        solve_bracketed(lambda t: t - 1.0, 0.0, 2.0, -1.0, None,
                        xtol=1e-12, ftol=1e-12, max_iter=50)


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
