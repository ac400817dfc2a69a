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
