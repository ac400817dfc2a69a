import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persprox.roots import RootFindError, real_quartic_roots, solve_bracketed


def _solve(fn, slope, *, curvature=None, trace=None, b=0.0, c=None, **kw):
    """``solve_bracketed`` on ``fn`` from the evaluated end ``b`` towards the
    never-evaluated end ``c`` (``b - fn(b)``, the far bound of a function of
    slope at least 1, where not given), with ``slope`` and ``curvature`` in
    ``x`` turned into derivatives in ``s = log|x - c|`` (a NaN curvature
    where not given: Newton steps only), no second function, and the
    tolerances in ``kw`` (``1e-12`` and 200 evaluations where not given)."""
    kw.setdefault("xtol", 1e-12)
    kw.setdefault("ftol", 1e-12)
    kw.setdefault("max_iter", 200)
    if curvature is None:
        curvature = _undefined
    fb = fn(b)
    if c is None:
        c = b - fb

    def derivatives(x):
        d = x - c
        return (d * slope(x), d * d * curvature(x) + d * slope(x), math.nan, math.nan, math.nan,
                math.nan, math.nan)

    return _bracketed(fn, derivatives, b, c, fb=fb, trace=trace, **kw)


def _bracketed(fn, derivatives, b, c, *, fb=None, **kw):
    """``solve_bracketed`` from ``b`` (``fb = fn(b)`` where not given) on
    ``fn`` made to leave ``derivatives(x)`` in the slot at each ``x``; the
    slot starts with ``b``'s."""
    slot = [derivatives(b)]

    def slotted(x):
        slot[0] = derivatives(x)
        return fn(x)

    return solve_bracketed(slotted, slot, b, fn(b) if fb is None else fb, c, **kw)


def _undefined(t):
    # a derivative the function does not define
    return math.nan


def test_solve_bracketed_linear():
    # fn is linear in s = log(x), the coordinate of the steps for c = 0: one
    # Newton step from b = 10 lands on the root
    res = _solve(lambda t: math.log(t / 3.0), lambda t: 1.0 / t, b=10.0, c=0.0)
    assert res.iterations == 1
    assert res.root == pytest.approx(3.0, rel=4e-16)
    assert abs(res.residual) <= 1e-12


def test_a_second_function_without_a_target_leaves_the_first_ones():
    # g has a value but no slope, so no target of its own: fn's Newton step
    # stands, and lands on the root, fn being linear in s = log(x)
    fn = lambda t: math.log(t / 3.0)
    res = _bracketed(fn, lambda t: (1.0, 0.0, fn(t)) + (math.nan,) * 4, 10.0, 0.0,
                     xtol=1e-12, ftol=1e-12, max_iter=200)
    assert res.iterations == 1
    assert res.root == pytest.approx(3.0, rel=4e-16)


def test_solve_bracketed_stiff_kink():
    fn = lambda t: 1e6 * (t - 0.1) if t > 0.1 else (t - 0.1)
    res = _solve(fn, _undefined, xtol=1e-13, ftol=1e-10)
    assert res.root == pytest.approx(0.1, abs=1e-12)


def test_solve_bracketed_requires_sign_change():
    # the bracket needs a finite value at its evaluated end, and two ends
    for fb, c in ((math.inf, 2.0), (math.nan, 2.0), (-1.0, 0.0)):
        with pytest.raises(RootFindError):
            _bracketed(lambda t: t + 1.0, lambda t: (1.0, 0.0) + (math.nan,) * 5, 0.0, c, fb=fb,
                       xtol=1e-12, ftol=1e-12, max_iter=50)


def test_solve_bracketed_iteration_budget():
    # Newton from 0 needs more evaluations than this budget
    fn = lambda t: t ** 3 + t - 3.0
    with pytest.raises(RootFindError) as err:
        _solve(fn, lambda t: 3.0 * t * t + 1.0, xtol=1e-15, ftol=1e-15, max_iter=2)
    lo, hi = sorted((err.value.lo, err.value.hi))
    assert lo <= 1.2134116627622296 <= hi


def test_solve_bracketed_stops_at_float_resolution():
    # |fn| at the doubles next to the root is about 4e4, far above ftol
    fn = lambda t: t + 1e20 * (t * t - 2.0)
    res = _solve(fn, lambda t: 1.0 + 2e20 * t, xtol=0.0, ftol=1e-20, c=3.0)
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
    # without slopes: secants between evaluated ends, after bisections
    # towards c while c is an end
    assert _solve(fn, _undefined, xtol=1e-15, ftol=1e-15).iterations > res.iterations


def test_each_evaluation_shrinks_the_bracket():
    # each evaluated point replaces the end of its bracket on its own side
    fn = lambda t: t + 0.5 * math.tanh(t - 1.0) - 1.5
    rows = []
    res = _solve(fn, lambda t: 1.0 + 0.5 / math.cosh(t - 1.0) ** 2, ftol=1e-10,
                 curvature=lambda t: -math.tanh(t - 1.0) / math.cosh(t - 1.0) ** 2,
                 trace=lambda *row: rows.append(row))
    assert abs(fn(res.root)) <= 5e-13
    assert res.iterations == len(rows) <= 5
    for _, lo, hi, x, fx in rows:
        assert lo < x < hi
    for (_, lo, hi, x, fx), (_, lo2, hi2, _, _) in zip(rows, rows[1:]):
        assert (lo2, hi2) == ((x, hi) if fx < 0.0 else (lo, x))


def test_bisects_where_the_slope_is_nan():
    # a NaN slope rules out a Newton step: while c is an end, each step
    # halves the distance to c; once both ends are evaluated, secant steps,
    # or bisections where a secant step would leave the bracket
    fn = lambda t: t + 0.5 * math.tanh(t - 1.0) - 1.5
    rows = []
    res = _solve(fn, _undefined, xtol=1e-12, ftol=1e-10, trace=lambda *row: rows.append(row))
    assert res.root == pytest.approx(1.3374158071711997, abs=1e-12)
    assert abs(res.residual) <= 1e-10
    assert res.iterations == len(rows) <= 12
    c = -fn(0.0)
    assert rows[0][3] == 0.5 * c
    for _, lo, hi, x, _ in rows:
        assert lo < x < hi


def test_log_space_split_with_zero_lower_end_and_xtol():
    # roots 1e-18..1e-90 of functions with a pole at the lower end 0 = c,
    # decades below b = 1; with xtol = 0 the search runs to ftol = 0 or to
    # float resolution, by steps in log x
    for power, k in ((0.3, 1e-6), (0.1, 1e-3), (0.1, 1e-9), (0.5, 1e-9)):
        fn = lambda t: k - t ** power
        slope = lambda t: -power * t ** (power - 1.0)
        curvature = lambda t: -power * (power - 1.0) * t ** (power - 2.0)
        res = _solve(fn, slope, curvature=curvature, b=1.0, c=0.0, xtol=0.0, ftol=0.0)
        assert res.root == pytest.approx(k ** (1.0 / power), rel=1e-13)
        assert res.iterations <= 20


def test_bound_broken_by_rounding_noise():
    # fn is monotone up to noise of 30 ulps of the root: the search must
    # still end at a sign change between adjacent doubles or at |fn| <= ftol
    for k in range(40):
        r = 1e6 * (1.0 + k / 7.0)
        fn = lambda t: (t - r) + 30.0 * math.ulp(r) * (2.0 * random.Random(t).random() - 1.0)
        res = _solve(fn, lambda t: 1.0, c=2.0 * r)
        x, fx = res.root, res.residual
        assert fx == fn(x)
        if abs(fx) > 1e-12:
            sides = [fn(math.nextafter(x, s)) for s in (-math.inf, math.inf)]
            assert any(fx * f <= 0.0 for f in sides), (k, x, fx, sides)


def test_a_step_onto_the_pole_lands_next_to_it():
    # the root lies closer to the pole c than the double next to it: a step
    # that rounds onto c lands on that double, where fn is still negative
    # and no double is left inside the bracket
    c = 1.0
    fn = lambda t: 1.0 / (c - t) - 1e20
    slope = lambda t: 1.0 / (c - t) ** 2
    res = _solve(fn, slope, b=0.5, c=c)
    assert res.root == math.nextafter(c, 0.0)
    assert res.iterations <= 3


def test_halley_steps_from_the_curvature():
    # Halley's step s / (1 - k), k = f f_ss / (2 f_s**2), takes fewer
    # evaluations than Newton's, to the same root
    fn = lambda t: t + 4.0 * (1.0 - math.exp(-t)) - 3.0
    slope = lambda t: 1.0 + 4.0 * math.exp(-t)
    curvature = lambda t: -4.0 * math.exp(-t)
    rows = []
    newton = _solve(fn, slope, xtol=1e-15, ftol=1e-15)
    halley = _solve(fn, slope, xtol=1e-15, ftol=1e-15, curvature=curvature,
                    trace=lambda *row: rows.append(row))
    assert halley.iterations < newton.iterations
    assert halley.root == pytest.approx(newton.root, rel=4e-16)
    c = -fn(0.0)
    f_s, f_ss = -c * slope(0.0), c * c * curvature(0.0) - c * slope(0.0)
    step = -fn(0.0) / f_s
    k = 0.5 * fn(0.0) * f_ss / (f_s * f_s)
    assert rows[0][3] == pytest.approx(c - c * math.exp(step / (1.0 - k)), rel=1e-15)


def test_the_second_function_takes_the_longer_step():
    # fn = k - x**q is near flat in s = log x far above its root, where Newton
    # on it moves a few units of s per step; g = log k - q log x, with the
    # same root and sign, is linear in s and reaches the root in one step
    q, k = 0.5, 1e-40
    fn = lambda t: k - t ** q

    def derivatives(x):
        return (-q * x ** q, -q * q * x ** q, math.log(k) - q * math.log(x), -q, 0.0, math.nan, math.nan)

    res = _bracketed(fn, derivatives, 1.0, 0.0, xtol=0.0, ftol=0.0, max_iter=200)
    assert res.root == pytest.approx(k ** (1.0 / q), rel=1e-14)
    assert res.iterations <= 3


def test_an_out_of_reach_halley_step_falls_back_to_newton():
    # fn = t - 1 with c = 10 and derivatives made up to steer the steps: the
    # Newton step from 0 lands on 1.5, past the root; from there Halley's
    # step would pass the evaluated end 0, Newton's lands on 0.5
    fn = lambda t: t - 1.0
    c = 10.0
    made_up = {0.0: (1.0 / math.log(0.85), math.nan),
               1.5: (-0.5 / math.log(9.5 / 8.5), 27.2), 0.5: (1.0, math.nan)}

    def derivatives(x):
        return made_up[x] + (math.nan,) * 5

    rows = []
    with pytest.raises(RootFindError):
        _bracketed(fn, derivatives, 0.0, c, xtol=1e-12, ftol=1e-12, max_iter=2,
                   trace=lambda *row: rows.append(row))
    f_s, f_ss = made_up[1.5]
    newton = -0.5 / f_s
    k = -0.5 * newton * f_ss / f_s
    assert -0.5 <= k <= 0.5 and c + (1.5 - c) * math.exp(newton / (1.0 - k)) < 0.0
    assert [row[3] for row in rows] == [pytest.approx(1.5, rel=1e-15), pytest.approx(0.5, rel=1e-15)]


def test_a_nan_evaluation_keeps_the_end_and_its_own_derivatives():
    # fn = t - 1 with c = 10, NaN past 1.2; b = 0's curvature is made up so
    # that Halley's step lands on 1.5, where fn is NaN and the slot gets
    # derivatives whose Newton step from b would land on 0.5.  The NaN
    # point becomes the far end and b is kept: the next step is b's own
    # Newton target, Halley's now being the far end, and the search still
    # converges to the root
    c = 10.0
    fn = lambda t: t - 1.0 if t <= 1.2 else math.nan
    newton = -0.1  # -fn(0) / f_s at b, f_s = -10
    halley = math.log(0.85)  # the step from 10 to 1.5 in s = log(10 - t)
    k = 1.0 - newton / halley
    made_up = {0.0: (-10.0, 2.0 * k * 10.0 / newton), 1.5: (1.0 / math.log(0.95), math.nan)}

    def derivatives(x):
        d = x - c
        return made_up.get(x, (d, d)) + (math.nan,) * 5

    rows = []
    res = _bracketed(fn, derivatives, 0.0, c, xtol=1e-12, ftol=1e-12, max_iter=20,
                     trace=lambda *row: rows.append(row))
    assert rows[0][3] == pytest.approx(1.5, rel=1e-15) and math.isnan(rows[0][4])
    assert rows[1][1:4] == (0.0, rows[0][3], pytest.approx(c - c * math.exp(newton), rel=1e-15))
    assert res.root == pytest.approx(1.0, abs=1e-12) and abs(res.residual) <= 1e-12


def test_width_met_stop_returns_the_evaluated_end_of_smaller_residual():
    # no double meets ftol = 0 here: the search stops once its evaluated ends
    # lie within xtol, at the one of smaller |fn|
    fn = lambda t: 1e11 * (t * t - 0.1)
    rows = []
    res = _solve(fn, lambda t: 2e11 * t, b=0.0, c=1.0, xtol=1e-9, ftol=0.0,
                 trace=lambda *row: rows.append(row))
    below = max(x for *_, x, fx in rows if fx < 0.0)
    above = min(x for *_, x, fx in rows if fx > 0.0)
    assert 0.0 < above - below <= 1e-9 and res.residual != 0.0
    assert res.root in (below, above)
    assert abs(res.residual) == min(abs(fn(below)), abs(fn(above)))


def _numpy_real_roots(b, c, d, e):
    roots = np.roots([1.0, b, c, d, e])
    # real means: imaginary part negligible against the root's modulus
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-8 * abs(r))


@settings(max_examples=300, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("coeffs, roots", [
    ((4.0, 4.0, 1.1754943508222875e-38, 0.0), (-2.0, 0.0)),
    ((2.0, 1.0, 1.1754943508222875e-38, 5e-324), (-1.0, 0.0)),
    ((1.0, 0.0, 1.1754943508222875e-38, 1.1754943508222875e-38), (-1.0, 0.0)),
    ((4.0, 3.0, 5e-324, 5e-324), (-3.0, -1.0, 0.0)),
], ids=["double-root-2", "double-root-1", "cube-root-of-tiny", "tiny-tail"])
def test_quartic_polish_stays_at_a_double_root(coeffs, roots):
    # a tiny d or e leaves a double root (or a near pair) with a slope of
    # about d there: a Newton polish step of about 1 jumped each candidate
    # onto another root, and the root was missed (t^4 + 4t^3 + 4t^2 + 1e-38 t
    # came out as [0.0], without its double root -2)
    ours = real_quartic_roots(*coeffs)
    assert len(ours) == len(roots)
    assert all(abs(o - r) <= 1e-12 for o, r in zip(ours, roots)), ours


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
