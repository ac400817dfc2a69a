import decimal
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from persprox import (
    INF,
    AbsBase,
    CaseKind,
    HuberBase,
    IdentityScaling,
    PowerBase,
    PowerScalar,
    RadialFunction,
    RootFindError,
    RootScaling,
    SqrtScaling,
    make_base,
    make_scaling,
    radial_prox,
    root_scaling_prox_neg,
    sqrt_scaling_prox,
)
from persprox.catalog import _cap_norm
from persprox.core import EPS, MIN_NORMAL, ZERO_NORM
from conftest import closed_form_huber_prox, golden_min, grid_prox_1d
from reference import HuberConjScalar, power_prox_conj

SCALINGS = [RootScaling(0.5, 1.0), RootScaling(0.5), RootScaling(0.3, 4.0),
            SqrtScaling(1.0), SqrtScaling(0.2), IdentityScaling(), IdentityScaling(2.0)]


# --- power conjugate prox -------------------------------------------------

def test_power_prox_conj_linear_case():
    assert power_prox_conj(2.0, 1.0, 2.0, 6.0) == pytest.approx(2.0, abs=1e-12)


def test_power_prox_conj_zero_weight():
    assert power_prox_conj(3.0, 2.0, 0.0, 5.0) == pytest.approx(2.5, abs=1e-12)


def test_power_prox_conj_cubic_forward():
    # p = 3 gives p* = 3/2: rho + rho^{1/2} = 2 has the root rho = 1
    rho = power_prox_conj(3.0, 1.0, 1.0, 2.0)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert rho * 1.0 + 1.0 * rho ** 0.5 == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p=st.floats(1.05, 6.0),
    gamma=st.floats(0.05, 10.0),
    xi=st.floats(0.0, 10.0),
    xnorm=st.floats(0.0, 50.0),
)
def test_power_prox_conj_residual(p, gamma, xi, xnorm):
    pstar = p / (p - 1.0)
    rho = power_prox_conj(p, gamma, xi, xnorm)
    assert rho >= 0.0
    assert abs(rho * gamma + xi * rho ** (pstar - 1.0) - xnorm) <= 1e-12 * (1.0 + xnorm)


# --- q-th root scaling prox ------------------------------------------------

def test_root_scaling_prox_forward_values():
    z = root_scaling_prox_neg(2.0, 0.5, 3.5)
    assert z == pytest.approx(4.0, abs=1e-10)
    z0 = root_scaling_prox_neg(2.0, 0.5, 0.0)
    assert z0 == pytest.approx(1.0, abs=1e-10)


def test_root_scaling_prox_asymptotics():
    # dominant balance: z ~ y + q*mu*y^(q-1) for large y
    q, w, y = 0.5, 2.0, 1e6
    z = root_scaling_prox_neg(w, q, y)
    assert z == pytest.approx(y + q * w * y ** (q - 1.0), rel=1e-6)


def test_root_scaling_prox_tiny_weight():
    # (c / (1 + |y| + c))**(1/(1-q)), a bracket end in z, underflows to 0 here
    q, mu = 0.95, 1e-20
    assert root_scaling_prox_neg(mu, q, 1e-3) == pytest.approx(1e-3, rel=1e-15)
    # the root, about 3.6e-401, lies below the smallest double
    assert root_scaling_prox_neg(mu, q, -1.0) == 0.0


def test_root_scaling_prox_one_sided_convergence():
    # Newton meets this root from one side, so one bracket end never moves
    z = root_scaling_prox_neg(8.68e-4, 0.95, -3.54e-3)
    assert z == pytest.approx(2.2120827456377473e-13, rel=1e-14)


def test_root_scaling_prox_stops_at_float_resolution():
    # F = z - w - y cancels to a few ulps of |y| here, so the bracket closes
    # on two adjacent doubles before a Newton step meets the stopping test
    # (a power(1.05)/root(0.5) multiplier search at gamma 23.5, |y| 2e7)
    mu, y = 39214999.71336612, -20398317.945543412
    z = root_scaling_prox_neg(mu, 0.5, y)
    assert z == pytest.approx(0.92396535687465001, rel=1e-14)  # 50-digit root
    assert abs(z - 0.5 * mu * z ** -0.5 - y) <= 1e-10 * (1.0 + abs(y) + z)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    q=st.floats(0.05, 0.95),
    mu=st.floats(1e-3, 1e3),
    y=st.floats(-100.0, 100.0),
)
def test_root_scaling_prox_residual(q, mu, y):
    z = root_scaling_prox_neg(mu, q, y)
    assert z > 0.0
    resid = z - q * mu * z ** (q - 1.0) - y
    assert abs(resid) <= 1e-10 * (1.0 + abs(y) + z)


# --- sqrt scaling prox -----------------------------------------------------

def test_sqrt_scaling_prox_trivial():
    assert sqrt_scaling_prox(1.0, 0.0, 3.0) == 3.0
    assert sqrt_scaling_prox(1.0, 5.0, 0.0) == 0.0


def test_sqrt_scaling_prox_vs_bisection_oracle():
    beta, mu, y = 1.0, 1.0, 1.0

    def stat(r):
        return r - y + mu * r / math.sqrt(beta + r * r)

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if stat(mid) <= 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    got = sqrt_scaling_prox(beta, mu, y)
    assert got == pytest.approx(oracle, abs=1e-10)
    quart = got**4 - 2*y*got**3 + (y*y + beta - mu*mu)*got*got - 2*beta*y*got + beta*y*y
    assert abs(quart) <= 1e-9


def test_quartic_matches_stationarity_expansion(rng):
    # the quartic is exactly ((r(r-y))^2 + beta*(r-y)^2 - mu^2 r^2), i.e. the
    # squared stationarity equation cleared of its square root
    for _ in range(200):
        beta = 10 ** rng.uniform(-2, 2)
        mu = 10 ** rng.uniform(-2, 2)
        y = rng.uniform(-10, 10)
        r = rng.uniform(-10, 10)
        quartic = r**4 - 2*y*r**3 + (y*y + beta - mu*mu)*r*r - 2*beta*y*r + beta*y*y
        expanded = (r * (r - y)) ** 2 + beta * (r - y) ** 2 - mu * mu * r * r
        assert quartic == pytest.approx(expanded, rel=1e-12, abs=1e-9)


def _assert_sqrt_scaling_prox_contract(beta, mu, y):
    r = sqrt_scaling_prox(beta, mu, y)
    lo, hi = (0.0, y) if y >= 0 else (y, 0.0)
    assert lo <= r <= hi
    stat = r - y + (mu * r / math.sqrt(beta + r * r) if mu > 0 else 0.0)
    assert abs(stat) <= 1e-10 * (1.0 + abs(y) + mu)
    return r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_beta=st.floats(-8.0, 8.0),
    log_mu=st.floats(-12.0, 12.0),
    log_y=st.floats(-12.0, 12.0),
    negative=st.booleans(),
)
def test_sqrt_scaling_prox_contract(log_beta, log_mu, log_y, negative):
    beta, mu, y = 10.0 ** log_beta, 10.0 ** log_mu, 10.0 ** log_y
    if negative:
        y = -y
    r = _assert_sqrt_scaling_prox_contract(beta, mu, y)
    assert sqrt_scaling_prox(beta, mu, -y) == -r


@pytest.mark.parametrize("beta, mu, y", [
    (1.0, 30661455160.769173, 29391875995.522743),
    (1.0, 146530433596.00775, -146410532205.72626),
    (1.0, 17145332574.631796, 16633716645.192924),
])
def test_sqrt_scaling_prox_huge_weight_and_input(beta, mu, y):
    # weight and input near 1e11 with roots from 3 to 25 (Huber(1e4)/sqrt
    # calls of the wide_scale robustness probe, seed 0, calls 82, 256, 1018)
    _assert_sqrt_scaling_prox_contract(beta, mu, y)


@pytest.mark.parametrize("beta, mu, y", [(1.0, 0.99999, 2.2250738585e-313), (1.0, 0.5, -1e-320)])
def test_sqrt_scaling_prox_subnormal_input(beta, mu, y):
    # Newton's step stayed one subnormal unit wide, never within four
    # rounding units of r, and the loop raised RootFindError
    _assert_sqrt_scaling_prox_contract(beta, mu, y)


@pytest.mark.parametrize("beta, mu, y", [
    (1e-8, 1e12, 1e12),
    (1e-8, 1e12, 1e12 - 1e4),
    (1e-8, 1.0, 0.999),
])
def test_sqrt_scaling_prox_starts_from_the_dominant_balance(monkeypatch, beta, mu, y):
    # from r0 = max(0, |y| - mu) = 0 each Newton step multiplied r by about
    # 1.5 while mu*beta/(beta + r^2)^1.5 dominated g': 34, 27 and 13
    # evaluations of g.  Each evaluation takes one square root, the start
    # at most two more
    import persprox.catalog as catalog

    roots = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def sqrt(self, v):
            roots.append(v)
            return math.sqrt(v)

    monkeypatch.setattr(catalog, "math", CountingMath())
    r = _assert_sqrt_scaling_prox_contract(beta, mu, y)
    assert len(roots) <= 8
    # stationarity to the rounding of its terms, which are about |y| in size
    g = r - y + mu * r / math.sqrt(beta + r * r)
    assert abs(g) <= 8.0 * math.ulp(y)


# --- the scalar solvers against a decimal solve -----------------------------
#
# Each solver is compared with a 64-digit bisection of its own equation in the
# log of its unknown u.  The error, in the variable the solver iterates, is
# bounded by 32 rounding units of |u*| + sum|terms| / g'(u*), where g is the
# equation's residual in that variable, plus the distance from the reference
# to its nearest double (no result can beat that where u* underflows).

D = decimal.Decimal


def _decades(lo: float, hi: float):
    """Floats spread evenly in log10 over [10**lo, 10**hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _decimal_log_root(F, t0: D) -> D:
    """The root of ``F``, increasing in ``t = log u``: a bracket grown around
    ``t0``, then bisection to 1e-30 of ``1 + |t|``, in the current context."""
    lo = hi = t0
    step = D(1)
    while F(lo) > 0:
        lo, step = lo - step, 2 * step
    step = D(1)
    while F(hi) < 0:
        hi, step = hi + step, 2 * step
    while hi - lo > D("1e-30") * (1 + abs(lo)):
        mid = (lo + hi) / 2
        if F(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _assert_within(got: D, want: D, size: D):
    """``got`` is within 32 rounding units of ``size`` of ``want``, plus the
    rounding of ``want`` to a double."""
    units = abs(got - want) / (D(EPS) * size)
    assert abs(got - want) <= 32 * D(EPS) * size + abs(D(float(want)) - want), float(units)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pstar=_decades(-3.0, math.log10(999.0)).map(lambda e: 1.0 + e), w=_decades(-40.0, 40.0),
       a=_decades(-30.0, 30.0))
@example(pstar=1.5, w=1.0, a=1e-12)  # the root is 1e-24; an absolute stop gave 9.98e-25
@example(pstar=3.0, w=1.0, a=5e-324)  # the root rounds to the smallest subnormal
@example(pstar=1.5, w=1e-150, a=1e-300)  # both terms about a/2, far below 1
def test_power_prox_matches_a_decimal_solve(pstar, w, a):
    # rho + w * rho**r1 = a with r1 = p* - 1, in rho
    rho = PowerScalar(pstar).prox(w, a)
    with decimal.localcontext() as ctx:
        ctx.prec = 64
        r1, da, log_w = D(pstar) - 1, D(a), D(w).ln()
        t = _decimal_log_root(lambda t: t.exp() + (log_w + r1 * t).exp() - da,
                              min(da.ln(), (da.ln() - log_w) / r1))
        u, term = t.exp(), (log_w + r1 * t).exp()
        slope = 1 + r1 * term / u
        _assert_within(D(rho), u, u + (u + term + da) / slope)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.floats(0.01, 0.99), mu=_decades(-20.0, 20.0), ay=_decades(-30.0, 30.0),
       negative=st.booleans())
def test_root_scaling_prox_matches_a_decimal_solve(q, mu, ay, negative):
    # exp(t) - q * mu * exp((q - 1) t) = y, in t = log z; roots outside the
    # normal doubles are left out (the solver returns 0 below them)
    y = -ay if negative else ay
    with decimal.localcontext() as ctx:
        ctx.prec = 64
        dq, dy, log_c = D(q), D(y), (D(q) * D(mu)).ln()
        t = _decimal_log_root(lambda t: t.exp() - (log_c + (dq - 1) * t).exp() - dy, D(0))
        assume(D(MIN_NORMAL).ln() < t < D(1.7e308).ln())  # below the largest double
        ez, term = t.exp(), (log_c + (dq - 1) * t).exp()
        slope = ez + (1 - dq) * term
        got = D(root_scaling_prox_neg(mu, q, y)).ln()
        _assert_within(got, t, abs(t) + (ez + term + abs(dy)) / slope)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(beta=_decades(-20.0, 20.0), mu=_decades(-20.0, 20.0), ay=_decades(-30.0, 30.0),
       negative=st.booleans())
def test_sqrt_scaling_prox_matches_a_decimal_solve(beta, mu, ay, negative):
    # r - |y| + mu * r / sqrt(beta + r**2) = 0, in r = |prox|
    r = sqrt_scaling_prox(beta, mu, -ay if negative else ay)
    with decimal.localcontext() as ctx:
        ctx.prec = 64
        db, dmu, day = D(beta), D(mu), D(ay)
        t = _decimal_log_root(lambda t: t.exp() - day + dmu * t.exp() / (db + (2 * t).exp()).sqrt(),
                              day.ln())
        u = t.exp()
        s = (db + u * u).sqrt()
        slope = 1 + dmu * db / (s * s * s)
        _assert_within(D(abs(r)), u, u + (u + day + dmu * u / s) / slope)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=st.sampled_from((0.05, 0.5, 0.95)), log_y=st.floats(-12.0, 12.0),
       log_mu=st.floats(-40.0, 0.0))
def test_root_scaling_prox_env_moves_y_right(q, log_y, log_mu):
    # the prox of mu * (-z**q), nonincreasing, lands at or right of y, also
    # where mu's term is far below an ulp of y and the solve rounds below it
    y = 10.0 ** log_y
    z = RootScaling(q).prox_env(10.0 ** log_mu * y ** 1.5, y)
    assert z >= y, (q, y, z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=_decades(-20.0, 20.0), mu=_decades(-40.0, 20.0), ay=_decades(-30.0, 30.0),
       negative=st.booleans())
def test_sqrt_scaling_prox_moves_towards_zero(beta, mu, ay, negative):
    # the prox of an even function increasing in |y| keeps y's sign and no
    # more than its magnitude
    y = -ay if negative else ay
    z = sqrt_scaling_prox(beta, mu, y)
    assert abs(z) <= ay and z * y >= 0.0, (beta, mu, y, z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.floats(1.05, 50.0), w=_decades(-40.0, 40.0), at=_decades(-30.0, 30.0),
       negative=st.booleans())
def test_power_prox_moves_towards_zero(p, w, at, negative):
    t = -at if negative else at
    rho = PowerScalar(p).prox(w, t)
    assert abs(rho) <= at and rho * t >= 0.0, (p, w, t, rho)


# --- Huber pieces -----------------------------------------------------------

def test_huber_prox_conj_branches():
    conj = HuberConjScalar(1.0)
    assert conj.prox(1.0, 3.0) == 1.0
    assert conj.prox(1.0, 1.0) == 0.5
    assert conj.prox(1.0, 0.0) == 0.0


def test_huber_prox_conj_lipschitz_and_range(rng):
    for _ in range(500):
        alpha = rng.choice([0.3, 1.0, 2.5])
        gamma = 10 ** rng.uniform(-2, 2)
        a, b = rng.uniform(-9, 9), rng.uniform(-9, 9)
        conj = HuberConjScalar(alpha)
        fa, fb = conj.prox(gamma, a), conj.prox(gamma, b)
        assert abs(fa - fb) <= abs(a - b) + 1e-12
        assert abs(fa) <= alpha


def test_closed_form_huber_outer_branch():
    p, q = closed_form_huber_prox(1.0, 1.0, 1.0, (3.0, 0.0), 0.0)
    assert p == pytest.approx((2.0, 0.0), abs=1e-12)
    assert q == 0.0


def test_closed_form_huber_inner_branch_vs_calculus_oracle():
    # symmetry forces q = 0; the u-term minimizes (u^2+1)/2 + (1-u)^2/2
    oracle_u = golden_min(lambda u: 0.5 * (u * u + 1.0) + 0.5 * (1.0 - u) ** 2, -2.0, 2.0)
    assert abs(oracle_u - 0.5) <= 1e-6
    p, q = closed_form_huber_prox(1.0, 1.0, 1.0, (1.0, 0.0), 0.0)
    assert p == pytest.approx((0.5, 0.0), abs=1e-10)
    assert q == pytest.approx(0.0, abs=1e-12)


def test_closed_form_huber_origin():
    p, q = closed_form_huber_prox(1.0, 1.0, 1.0, (0.0, 0.0), 0.0)
    assert p == (0.0, 0.0)
    assert q == 0.0


def test_closed_form_huber_agrees_with_generic_solver(rng):
    # the specialized two-branch formula is a cross-check of the generic
    # region solver
    from persprox import PerspectivePair, prox_perspective

    for _ in range(150):
        alpha = rng.choice([0.4, 1.0, 2.0])
        beta = rng.choice([0.3, 1.0, 3.0])
        gamma = 10 ** rng.uniform(-1, 1)
        x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        y = rng.uniform(-4, 4)
        pair = PerspectivePair(HuberBase(alpha), SqrtScaling(beta), n=2)
        res = prox_perspective(pair, gamma, x, y)
        p, q = closed_form_huber_prox(alpha, beta, gamma, x, y)
        err = math.sqrt(sum((a - b) ** 2 for a, b in zip(res.p, p)) + (res.q - q) ** 2)
        assert err <= 1e-8 * (1.0 + math.hypot(*x, y))


# --- scaling function contracts ---------------------------------------------

def test_root_scaling_prox_env_strictly_positive(rng):
    # the scaled envelope prox never returns 0, so the second closed-form
    # region is empty for power/root pairs
    for scaling in (RootScaling(0.5, 1.0), RootScaling(0.25), RootScaling(0.9, 7.0)):
        for _ in range(200):
            w = 10 ** rng.uniform(-6, 3)
            y = rng.uniform(-20, 20)
            assert scaling.prox_env(w, y) > 0.0


def _scale_probe_points(scaling, count=200):
    """Seeded scale points inside and outside cl S, at sizes 1e-12..1e12,
    plus the ends of a bounded interval."""
    rng = random.Random(repr(scaling))
    points = [0.0, -0.0, 1.0, -1.0]
    upper = getattr(scaling, "upper", INF)
    if upper < INF:
        points += [upper, -upper, 2.0 * upper, upper * (1.0 - 1e-12), upper * rng.random()]
    points += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 12.0) for _ in range(count)]
    return points


def test_envelope_agreement_with_scaling():
    root = RootScaling(0.5, 2.0)
    for y in (0.0, 0.3, 1.7, 2.0):
        assert root.env_eval(y) == -root.eval(y)
    sqrt = SqrtScaling(0.7)
    for y in (-3.0, 0.0, 4.2):
        assert sqrt.env_eval(y) == sqrt.eval(y)
    ident = IdentityScaling(5.0)
    for y in (0.0, 1.0, 5.0):
        assert ident.env_eval(y) == -ident.eval(y)
    # the solver evaluates the scale side through the envelope only: on cl S
    # it is -s for NEG_S_LOWER scalings and s for S_LOWER ones
    for scaling in SCALINGS:
        sign = -1.0 if scaling.case_kind is CaseKind.NEG_S_LOWER else 1.0
        for y in _scale_probe_points(scaling):
            q = scaling.prox_env(0.0, y)
            assert scaling.env_eval(q) == sign * scaling.eval(q), (scaling, y)


def _clamp_to_cl_S(scaling, y):
    """``y`` clamped to cl S by hand: [0, upper] for the interval scalings,
    the whole line for sqrt.  ``max`` keeps its first argument on a tie, so
    the clamp sends -0.0 to 0.0 on an interval."""
    if isinstance(scaling, SqrtScaling):
        return y
    return min(max(0.0, y), scaling.upper)


def test_prox_env_zero_weight_is_domain_projection():
    assert RootScaling(0.5, 1.0).prox_env(0.0, 3.0) == 1.0
    assert RootScaling(0.5, 1.0).prox_env(0.0, -2.0) == 0.0
    assert SqrtScaling(1.0).prox_env(0.0, -2.5) == -2.5
    assert IdentityScaling(4.0).prox_env(0.0, 9.0) == 4.0
    # the one projection onto cl S = cl conv S, sign of zero included
    for scaling in SCALINGS:
        for y in _scale_probe_points(scaling):
            q = scaling.prox_env(0.0, y)
            assert repr(q) == repr(_clamp_to_cl_S(scaling, y)), (scaling, y)


def test_interval_scalings_project_negative_zero_to_positive_zero():
    # max(y, 0.0) keeps its first argument on a tie, which turned -0.0 into
    # q = -0.0 on root-scaling pairs and 0.0 on identity pairs
    for scaling in (RootScaling(0.5, 4.0), RootScaling(0.5), IdentityScaling(), IdentityScaling(2.0)):
        assert repr(scaling.prox_env(0.0, -0.0)) == "0.0", scaling


def test_root_env_conj_at_small_negative_arguments():
    # the maximiser (q / -t) ** (1 / (1 - q)) overflowed and raised
    # OverflowError; beyond b the value is t * b + b**q, and where the
    # interior value exceeds the largest double it is +inf (about 1.9e377 here)
    assert RootScaling(0.5, 4.0).env_conj_eval(-1e-160) == 2.0
    assert RootScaling(0.95).env_conj_eval(-1e-20) == INF


def _grid_sup_env_conj(scaling, t, lo, hi, n=40001):
    # linear grid plus a log-spaced refinement near 0, where the unbounded
    # root-scaling supremum can concentrate
    span = math.log10(hi) + 9.0
    points = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    points += [10.0 ** (-9 + span * k / 2000) for k in range(2001)]
    best = -INF
    for z in points:
        v = scaling.env_eval(z)
        if v == INF:
            continue
        best = max(best, t * z - v)
    return best


def test_env_conj_matches_grid_oracle(rng):
    cases = [
        (RootScaling(0.5, 1.0), 0.0, 1.0),
        (RootScaling(0.3, 4.0), 0.0, 4.0),
        (RootScaling(0.5), 0.0, 4000.0),
        (SqrtScaling(1.3), -300.0, 300.0),
        (IdentityScaling(3.0), 0.0, 3.0),
        (IdentityScaling(), 0.0, 4000.0),
    ]
    for scaling, lo, hi in cases:
        for _ in range(12):
            t = rng.uniform(-3.0, 3.0)
            got = scaling.env_conj_eval(t)
            approx = _grid_sup_env_conj(scaling, t, lo, hi)
            if got == INF:
                # unbounded sup: the grid value keeps growing with the window
                wider = _grid_sup_env_conj(scaling, t, 8.0 * lo, 8.0 * hi)
                assert wider >= approx + 0.05 * (1.0 + abs(approx))
            else:
                assert approx <= got + 1e-6
                assert got - approx <= 1e-3 * (1.0 + abs(got))


def test_support_functions():
    assert RootScaling(0.5, 2.0).support_cl_conv_S(-3.0) == 0.0
    assert RootScaling(0.5, 2.0).support_cl_conv_S(1.5) == 3.0
    assert RootScaling(0.5).support_cl_conv_S(0.1) == INF
    assert SqrtScaling(1.0).support_cl_conv_S(0.0) == 0.0
    assert SqrtScaling(1.0).support_cl_conv_S(1e-9) == INF
    assert IdentityScaling().support_cl_conv_S(-2.0) == 0.0


def test_make_by_name():
    base = make_base("power", {"p": 3.0})
    assert isinstance(base, PowerBase) and base.p == 3.0
    assert isinstance(make_base("abs"), AbsBase)
    assert isinstance(make_base("huber", {"alpha": 0.5}), HuberBase)
    scaling = make_scaling("root", {"q": 0.5, "interval": [0, 4]})
    assert isinstance(scaling, RootScaling) and scaling.upper == 4.0
    assert make_scaling("root", {"q": 0.5, "upper": None}).upper == INF
    assert isinstance(make_scaling("sqrt", {"beta": 2.0}), SqrtScaling)
    assert isinstance(make_scaling("identity-interval", {}), IdentityScaling)
    with pytest.raises(ValueError):
        make_base("nope")
    with pytest.raises(ValueError):
        make_scaling("root", {"q": 0.5, "interval": [1, 4]})
    # a parameter is an int, a float or a string the CLI writes for an
    # infinity; a bool or a finite numeric string is not a number
    assert make_scaling("root", {"q": 0.5, "interval": [0, "+inf"]}).upper == INF
    for params in ({"q": True}, {"q": "0.5"}, {"q": 0.5, "upper": "4"}, {"q": 0.5, "upper": False}):
        with pytest.raises(ValueError, match="must be a number"):
            make_scaling("root", params)


def test_power_prox_conj_huge_weight_underflows_to_zero():
    # at w = 1e300 the monomial cap (a/w)**(1/(r-1)) underflows to 0; the
    # root is below the smallest double, where Newton used to take
    # 0.0 ** (r - 2) with r = p* = 1.5 and raise ZeroDivisionError
    assert PowerBase(3.0).prox_conj(1e300, (6.0, 0.0)) == (0.0, 0.0)


@pytest.mark.parametrize("make", [PowerBase, PowerScalar, HuberBase, SqrtScaling],
                         ids=["power", "power-scalar", "huber", "sqrt"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_constructors_reject_non_finite_parameters(make, value):
    # PowerBase(inf) failed later on a nan exponent, and HuberBase(inf) and
    # SqrtScaling(inf) were accepted, then every prox raised RootFindError
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_huber_rejects_a_slope_whose_square_overflows():
    # alpha * alpha = inf made conj_eval((0, 0)) = -inf, and every prox
    # raised RootFindError from sqrt_scaling_prox
    assert HuberBase(1e154).conj_eval((0.0, 0.0)) == -0.5e308
    for alpha in (1.35e154, 1e160, 1e300):
        with pytest.raises(ValueError, match="finite square"):
            HuberBase(alpha)


def test_interval_upper_end_may_be_infinite_but_not_nan():
    assert RootScaling(0.5, INF).upper == INF == IdentityScaling(INF).upper
    for make in (lambda v: RootScaling(0.5, v), IdentityScaling):
        with pytest.raises(ValueError):
            make(math.nan)


def test_scaling_validation():
    with pytest.raises(ValueError):
        RootScaling(0.0)
    with pytest.raises(ValueError):
        RootScaling(1.0)
    with pytest.raises(ValueError):
        SqrtScaling(0.0)
    with pytest.raises(ValueError):
        PowerBase(1.0)
    with pytest.raises(ValueError):
        HuberBase(0.0)


def test_power_base_near_one_builds_its_conjugate_lift():
    # p* = 1001: the lift's evenness check evaluates |3.5|**p* / p*, which
    # overflows; the value is +inf there, and eval of the base still works
    base = PowerBase(1.001)
    assert base.conj.phi1d.eval(3.5) == INF
    assert base.eval((2.0, 0.0)) == pytest.approx(2.0 ** 1.001 / 1.001)


# --- inverse calls -------------------------------------------------------------

def _differences(f, a, h):
    """Central first and second differences of ``f`` at ``a``, step ``h``."""
    fp, f0, fm = f(a + h), f(a), f(a - h)
    return (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)


def _assert_derivatives(first, second, f, a, scale, near):
    # truncation of order (h / near)**2 at a distance ``near`` from a pole
    # of f, and the rounding of three values of size ``scale`` over h**2
    h = 1e-4 * near
    d1, d2 = _differences(f, a, h)
    assert abs(first - d1) <= 1e-6 * (abs(d1) + scale / near), (first, d1)
    assert abs(second - d2) <= 1e-3 * (abs(d2) + scale / (near * near)), (second, d2)


SIGNED_BASES = st.sampled_from([PowerBase(1.5), PowerBase(2.0), PowerBase(3.0), PowerBase(20.0),
                                 HuberBase(0.5), HuberBase(1.0), HuberBase(3.0)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    base=SIGNED_BASES,
    log_w=st.floats(-3.0, 3.0),
    x=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_profile_inverse_runs_the_prox_backwards(base, log_w, x):
    # the prox of w h at r = ||x||, run backwards: the power profile is an
    # outer curve (from the value of the point to the point and w), the
    # Huber profile an inner one (from the point to w and the value); the
    # derivatives against central differences
    h = base.conj.phi1d
    w = 10.0 ** log_w
    r = math.hypot(*x)
    assume(r > 1e-3)
    rho = h.prox(w, r)
    if isinstance(base, PowerBase):
        v = h.eval(rho)
        point, weight, m1, m2, p1 = h.inverse(r, v)
        assert point == pytest.approx(rho, rel=1e-13)
        assert p1 == pytest.approx(v * _differences(lambda t: h.inverse(r, t)[0], v, 1e-6 * v)[0],
                                   rel=1e-6)
        assert weight == pytest.approx(w, rel=1e-8)
        _assert_derivatives(m1 / v, m2 / (v * v), lambda t: h.inverse(r, t)[1], v, w, v)
        return
    # the clamp at alpha is a kink of the weight
    assume(rho < h.alpha * (1.0 - 1e-3))
    weight, r1, r2, value, v1, v2 = h.inverse(r, rho)
    assert weight == pytest.approx(w, rel=1e-12)
    assert value == pytest.approx(h.eval(rho), abs=1e-15 * h.alpha ** 2)
    assert (v1, v2) == (rho, 1.0)
    _assert_derivatives(r1 * weight, r2 * weight, lambda t: h.inverse(r, t)[0], rho, w,
                        min(rho, r - rho))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    scaling=st.sampled_from([RootScaling(0.3), RootScaling(0.5, 4.0), RootScaling(0.9, 2.0),
                             SqrtScaling(0.2), SqrtScaling(1.0), SqrtScaling(5.0),
                             IdentityScaling(), IdentityScaling(2.0)]),
    log_w=st.floats(-3.0, 3.0),
    y=st.floats(-10.0, 10.0),
)
def test_scaling_inverse_runs_the_prox_backwards(scaling, log_w, y):
    # the prox of w * env at y, run backwards: the sqrt envelope is an outer
    # curve, the root and identity envelopes inner ones
    w = 10.0 ** log_w
    z = scaling.prox_env(w, y)
    if isinstance(scaling, SqrtScaling):
        # |z| comes from v**2 - beta, which cancels for |z| small against sqrt(beta)
        assume(abs(z) > 1e-3 * math.sqrt(scaling.beta))
        v = scaling.env_eval(z)
        point, weight, m1, m2, p1 = scaling.inverse(y, v)
        assert point == pytest.approx(z, rel=1e-9)
        near = v - math.sqrt(scaling.beta)
        assert p1 == pytest.approx(
            v * _differences(lambda t: scaling.inverse(y, t)[0], v, 1e-3 * near)[0], rel=1e-5)
        assert weight == pytest.approx(w, rel=1e-8)
        _assert_derivatives(m1 / v, m2 / (v * v), lambda t: scaling.inverse(y, t)[1], v, w,
                            v - math.sqrt(scaling.beta))
        return
    # off the clamps, and off the pole z = y of the weight
    assume(0.0 < z < scaling.upper and z - y > 1e-3 * abs(y) + 1e-6)
    weight, r1, r2, value, v1, v2 = scaling.inverse(y, z)
    assert weight == pytest.approx(w, rel=1e-9)
    assert value == scaling.env_eval(z)
    near = min(z, z - y)
    _assert_derivatives(r1 * weight, r2 * weight, lambda t: scaling.inverse(y, t)[0], z, w, near)
    _assert_derivatives(v1, v2, scaling.env_eval, z, abs(value), near)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=SIGNED_BASES, log_w=st.floats(-3.0, 3.0), t=st.floats(-10.0, 10.0))
def test_conj_profile_prox_meets_its_optimality_condition(base, log_w, t):
    # rho = prox_{w h}(t) iff t - rho lies in w * dh(rho): t = rho + w h'(rho)
    # inside dom h, and t - rho pointing out of it at an end
    h = base.conj.phi1d
    w = 10.0 ** log_w
    rho = h.prox(w, t)
    assert h.eval(rho) < INF
    assert rho * t >= 0.0 and abs(rho) <= abs(t)
    if isinstance(base, PowerBase):
        g = rho - t + w * math.copysign(abs(rho) ** (h.p - 1.0), rho)
        assert abs(g) <= 1e-12 * (1.0 + abs(t))
    elif abs(rho) < h.alpha:
        assert abs(rho * (1.0 + w) - t) <= 1e-14 * (1.0 + abs(t))
    else:
        assert abs(rho) == h.alpha
        assert abs(t) >= h.alpha * (1.0 + w) * (1.0 - 1e-15)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    base=st.one_of(SIGNED_BASES, st.just(AbsBase())),
    log_w=st.floats(-3.0, 3.0),
    x=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_vector_conjugate_methods_are_the_radial_lift_of_the_profile(base, log_w, x):
    # x -> x * (t / ||x||) for the profile's t at ||x||, bit for bit; the
    # Huber points are capped onto the ball where rounding left them outside.
    # The abs profile is the indicator of [-1, 1]: its conj_eval is the lift,
    # its point methods are _cap_norm (a tiny x stays itself, not zeros)
    h = base.conj.phi1d
    w = 10.0 ** log_w
    r = math.hypot(*x)
    if isinstance(base, AbsBase):
        assert RadialFunction(h) == base.conj
        assert repr(base.conj_eval(x)) == repr(h.eval(r))
        for t in (r, -r):
            clamp = min(max(t, -1.0), 1.0)
            assert h.prox(w, t) == h.prox(0.0, t) == clamp
            assert h.eval(clamp) == 0.0
        return

    def lift(t):
        if r < ZERO_NORM:  # radial_prox's zero-vector guard
            return (0.0, 0.0)
        out = tuple(c * (t / r) for c in x)
        return _cap_norm(out, h.alpha) if isinstance(base, HuberBase) else out

    assert repr(base.conj_eval(x)) == repr(h.eval(r))
    assert repr(base.prox_conj(w, x)) == repr(lift(h.prox(w, r)))
    assert repr(base.proj_dom_conj(x)) == repr(lift(h.prox(0.0, r)))


def test_power_prox_forms_an_overflowing_monomial_in_logs():
    # near the root, about 2.12e6, rho**49 exceeds the largest double while
    # w * rho**49 is about a = 1e10: the solve used to raise OverflowError
    rho = PowerScalar(50.0).prox(1e-300, 1e10)
    assert 2.1e6 < rho < 2.13e6
    # rho + w rho**49 = a, in logs: the root to a few rounding units
    assert abs(math.log(1e-300) + 49.0 * math.log(rho) - math.log(1e10 - rho)) <= 1e-12


def test_inverse_weights_at_clamps():
    # an inner call at a clamped end gives the weight where the clamp begins:
    # the least that clamps the root scaling at its upper end (prox_env(1, 10)
    # would be about 10.1 unclamped) ...
    root = RootScaling(0.5, 4.0)
    w = root.inverse(3.5, 4.0)[0]
    assert w == 2.0
    assert root.prox_env(w * (1.0 + 1e-9), 3.5) == 4.0 > root.prox_env(w * (1.0 - 1e-6), 3.5)
    ident = IdentityScaling(2.0)
    assert ident.inverse(0.5, 2.0)[0] == 1.5
    assert ident.prox_env(1.5, 0.5) == 2.0 > ident.prox_env(1.4, 0.5)
    # ... and the largest that clamps at 0, or the Huber profile at alpha
    assert ident.inverse(-3.0, 0.0)[0] == 3.0
    assert ident.prox_env(3.0, -3.0) == 0.0 < ident.prox_env(3.1, -3.0)
    huber = HuberBase(1.0).conj.phi1d
    assert huber.inverse(5.0, 1.0)[0] == 4.0
    assert huber.prox(4.0, 5.0) == 1.0 > huber.prox(4.1, 5.0)
    # an outer call at its least value is the pole, where the weight is infinite
    assert PowerBase(3.0).conj.phi1d.inverse(2.0, 0.0) == (0.0, INF, -INF, INF, 0.0)
    assert SqrtScaling(1.0).inverse(0.5, 1.0) == (0.0, INF, -INF, INF, 0.0)


# --- constants derived once per object ------------------------------------
# The expressions below are the methods as they read before the pair-only
# constants moved into derived slots: the derived slots must change no bit.

# p = 1.3 and q = 0.1 besides the limits: there a rewrite such as exp(-log p)
# for 1/p, equal at the others, moves a bit
HOIST_P = (1.001, 1.05, 1.3, 1.5, 2.0, 21.0)
HOIST_Q = (1e-6, 0.1, 0.5, 1.0 - 1e-6)
HOIST_UPPER = (1.0, 4.0, INF)
HOIST_BETA = (1e-8, 1.0, 1e8)
HOIST_ALPHA = (1e-3, 1.0, 1e4)
HOIST_ARGS = (-1e300, -1e3, -2.0, -1.0, -0.5, -1e-3, -1e-300, 0.0, 1e-300, 1e-3, 0.5, 1.0, 2.0,
              3.9, 1e3, 1e300)


def _outcome(fn, *args) -> str:
    """The repr of ``fn(*args)``, or the name of what it raised."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


def _power_inverse(p, r, v):
    g = p * v
    if not g > 0.0:
        return 0.0, INF, -INF, INF, 0.0
    rho = g ** (1.0 / p)
    f = rho / g
    return (rho, (r - rho) * f, f * ((1.0 - p) * r + (p - 2.0) * rho) / p,
            (1.0 - p) * f * ((1.0 - 2.0 * p) * r + 2.0 * (p - 2.0) * rho) / (p * p), rho / p)


def _root_inverse(q, y, z):
    zq, zy = z ** q, z - y
    return (zy * (z / zq) / q, ((2.0 - q) * z - (1.0 - q) * y) / zy / z,
            (1.0 - q) * ((2.0 - q) * z + q * y) / zy / z / z,
            -zq, -q * zq / z, q * (1.0 - q) * zq / z / z)


def _root_env_conj(q, b, t):
    if t >= 0.0:
        return t * b + b ** q if b < INF else INF
    if q / -t > b ** (1.0 - q):
        return t * b + b ** q
    try:
        return (1.0 - q) * q ** (q / (1.0 - q)) * (-t) ** (-q / (1.0 - q))
    except OverflowError:
        return INF


def _sqrt_inverse(beta, y, v):
    sb = math.sqrt(beta)
    d = (v - sb) * (v + sb)
    if not d > 0.0:
        return 0.0, INF, -INF, INF, 0.0
    a, ay = math.sqrt(d), abs(y)
    k = ay * beta / a / a / a
    return (math.copysign(a, y), (ay - a) * v / a, -v * (1.0 + k), 3.0 * k * v * v * v / a / a,
            math.copysign(v * v / a, y))


def _power_eval_norm(p, t):
    try:
        return t ** p / p
    except OverflowError:  # +inf, the overflow policy of PowerScalar.eval
        return INF


def _sqrt_env_conj(beta, t):
    if abs(t) <= 1.0:
        return -math.sqrt(beta) * math.sqrt(1.0 - t * t)
    return INF


def test_constants_derived_at_construction_change_no_bit():
    positive = [a for a in HOIST_ARGS if a > 0.0]
    for p in HOIST_P:
        base = PowerBase(p)
        for h in (PowerScalar(p), base.conj.phi1d):
            for r in positive:
                for v in HOIST_ARGS:
                    assert _outcome(h.inverse, r, v) == _outcome(_power_inverse, h.p, r, v), (h, r, v)
        for t in positive + [0.0]:
            assert _outcome(base.eval_norm, t) == _outcome(_power_eval_norm, p, t), (p, t)
    for q in HOIST_Q:
        for upper in HOIST_UPPER:
            root = RootScaling(q, upper)
            for t in HOIST_ARGS:
                assert _outcome(root.env_conj_eval, t) == _outcome(_root_env_conj, q, upper, t), (
                    root, t)
                for z in positive:
                    assert _outcome(root.inverse, t, z) == _outcome(_root_inverse, q, t, z), (
                        root, t, z)
    for beta in HOIST_BETA:
        sqrt = SqrtScaling(beta)
        for t in HOIST_ARGS:
            assert _outcome(sqrt.env_conj_eval, t) == _outcome(_sqrt_env_conj, beta, t), (beta, t)
            for v in positive:
                assert _outcome(sqrt.inverse, t, v) == _outcome(_sqrt_inverse, beta, t, v), (
                    beta, t, v)
    for alpha in HOIST_ALPHA:
        base = HuberBase(alpha)
        for t in HOIST_ARGS:
            assert _outcome(base.conj.phi1d.eval, t) == _outcome(
                lambda t: 0.5 * (t * t - alpha * alpha) if abs(t) <= alpha else INF, t), (alpha, t)
            if t >= 0.0:
                assert _outcome(base.eval_norm, t) == _outcome(
                    lambda t: alpha * t if t > alpha else 0.5 * (t * t + alpha * alpha), t), (alpha, t)


# --- clamps as conditional expressions ---------------------------------------
# The references below are the clamps as they read with the builtin min and
# max.  max(a, b) is b if b > a else a, min(a, b) is b if b < a else a: the
# first argument wins ties and NaN, so each rewritten method must return the
# same bits, -0.0 and NaN included, or raise the same error.  The power
# profile has no clamp of this kind; every other profile and scaling does.


def _either(fn, *args) -> str:
    """The repr of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return f"{type(exc).__name__}: {exc}"


def _huber_prox_ref(alpha, gamma, t):
    return math.copysign(min(abs(t) / (1.0 + gamma), alpha), t)


def _huber_proj_ref(alpha, t):
    return min(t, alpha) if t >= 0.0 else max(t, -alpha)


def _unit_clamp_ref(t):
    return min(max(float(t), -1.0), 1.0)


def _log_root_ref(log_c, k, y):
    # catalog._monomial_log_root for -1 < k < 0, its starts with min and max
    a, sign = -k, -1.0
    if y >= 0.0:
        t_bal = log_c / (1.0 + a)
        t = t_lo = max(math.log(y), t_bal) if y > 0.0 else t_bal
        t_hi = t_lo + math.log(2.0)
    else:
        t = t_hi = min(log_c / (1.0 + a), (log_c - math.log(-y)) / a)
        t_lo = t_hi - math.log(2.0) / a
    f_lo, f_hi = -INF, INF
    for _ in range(200):
        ez = math.exp(t)
        m = math.exp(log_c + k * t)
        f = ez + sign * m - y
        dfdt = ez + a * m
        dt = f / dfdt
        if abs(dt) <= 4.0 * EPS * (abs(t) + (ez + m + abs(y)) / dfdt):
            return t - dt
        if f > 0.0:
            t_hi, f_hi = t, f
        else:
            t_lo, f_lo = t, f
        t -= dt
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
            if t in (t_lo, t_hi):
                return t_lo if -f_lo < f_hi else t_hi
    raise RootFindError(
        "no convergence of Newton in log z", math.exp(t_lo), math.exp(t_hi), f_lo, f_hi)


def _root_prox_env_ref(q, upper, weight, y):
    if weight < 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    if weight == 0.0:
        return min(max(0.0, float(y)), upper)
    z = math.exp(_log_root_ref(math.log(q) + math.log(weight), q - 1.0, y))
    return min(max(z, y), upper)


def _sqrt_prox_ref(beta, mu, y):
    # catalog.sqrt_scaling_prox, its start with min and max
    a = abs(y)
    r = r0 = max(0.0, a - mu)
    if mu * mu > 256.0 * beta:
        c = 0.5 * mu * beta
        guess = c ** (1.0 / 3.0)
        if a < mu:
            guess = min(guess, math.sqrt(c / (mu - a)))
        if guess > r0 and guess > 2.0 * math.sqrt(beta):
            r = min(guess, a)
    for _ in range(200):
        ss = beta + r * r
        w = mu / math.sqrt(ss)
        wr = w * r
        g = r - a + wr
        dg = 1.0 + w * beta / ss
        dr = g / dg
        converged = abs(dr) <= 4.0 * (EPS * (r + (r + a + wr) / dg) + 5e-324)
        r -= dr
        if r < r0:
            r = r0
        if r > a:
            r = a
        if converged:
            break
    else:
        raise RootFindError(
            "no convergence of Newton on the stationarity equation", r0, a, -INF, INF)
    if abs(g) > 1e-10 * (1.0 + a + mu):
        raise RootFindError(f"stationarity residual {g!r}", r0, a, -INF, INF)
    return math.copysign(r, y) if r > 0.0 else 0.0


def _sqrt_prox_env_ref(beta, weight, y):
    if weight < 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    return float(y) if weight == 0.0 else _sqrt_prox_ref(beta, weight, y)


def _identity_prox_env_ref(upper, weight, y):
    if weight < 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    return min(max(y + weight, 0.0), upper)


def _clamp_values(*ends) -> list:
    """The fixed grid, ``ends`` and their neighbours with either sign, and a
    seeded sample of magnitudes from 1e-12 to 1e12."""
    rng = random.Random(32)
    values = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, INF, -INF, math.nan]
    for end in ends:
        for v in (end, math.nextafter(end, 0.0), math.nextafter(end, INF)):
            values += [v, -v]
    values += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 12.0) for _ in range(40)]
    return values


CLAMP_WEIGHTS = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, math.nan)


def _check_clamp(method, reference, *args):
    got, want = _either(method, *args), _either(reference, *args)
    assert got == want, (method, args, got, want)


def _projection_ref(h, t):
    """The projection onto ``cl dom h`` of each catalog profile, written out:
    the identity for a power profile, else the clamp onto ``[-alpha, alpha]``
    or ``[-1, 1]``, which keeps a signed zero and NaN."""
    if isinstance(h, PowerScalar):
        return float(t)
    a = h.alpha if hasattr(h, "alpha") else 1.0
    if t >= 0.0:
        return a if a < t else t
    return -a if -a > t else float(t)


def test_profile_prox_at_weight_zero_is_the_projection():
    profiles = ([(PowerScalar(p), ()) for p in (1.05, 1.5, 2.0, 3.0, 21.0)]
                + [(HuberBase(a).conj.phi1d, (a,)) for a in (1e-3, 1.0, 1e4)]
                + [(AbsBase().conj.phi1d, (1.0,))])
    for h, ends in profiles:
        for t in _clamp_values(*ends):
            got, want = repr(h.prox(0.0, t)), repr(_projection_ref(h, t))
            if isinstance(h, PowerScalar) and want in ("-0.0", "nan"):
                # the one difference: the power prox returns +0.0 at -0.0 and at NaN
                assert got == "0.0", (h, t)
            else:
                assert got == want, (h, t)
    # neither reaches the prox path: the package asks for the weight-0 point at
    # a norm over a positive gamma (the region pass at ||x|| / gamma, the
    # certificate at ||x*||, radial_prox at ||x||), +0.0 for any zero vector,
    # and a NaN entry fails the input check first
    for x in ((-0.0,), (-0.0, -0.0), (0.0, -0.0)):
        assert repr(math.hypot(*x) / 2.0) == "0.0"
    with pytest.raises(ValueError, match="finite"):
        radial_prox(PowerBase(2.0).conj, 0.0, (math.nan, 0.0))


def test_clamps_without_builtins_change_no_bit():
    for alpha in (1e-3, 1.0, 1e4):
        h = HuberBase(alpha).conj.phi1d
        # |t| / (1 + gamma) == alpha at t = 2 alpha, gamma = 1
        for t in _clamp_values(alpha, 2.0 * alpha):
            _check_clamp(lambda t: h.prox(0.0, t), lambda t: _huber_proj_ref(alpha, t), t)
            for gamma in CLAMP_WEIGHTS:
                _check_clamp(h.prox, lambda g, t: _huber_prox_ref(alpha, g, t), gamma, t)
    h = AbsBase().conj.phi1d
    for t in _clamp_values():
        _check_clamp(lambda t: h.prox(0.0, t), _unit_clamp_ref, t)
        _check_clamp(h.prox, lambda g, t: _unit_clamp_ref(t), 1.0, t)
    for upper in (1.0, 4.0, INF):
        # y + weight == 0 at y = -weight, == upper at y = upper - weight
        ties = [upper] + [w for w in CLAMP_WEIGHTS if w] + [upper - 1.0, upper - 3.0]
        ident = IdentityScaling(upper)
        for y in _clamp_values(*ties):
            _check_clamp(ident.proj_dom_env_conj,
                         lambda t: float(t) if upper < INF else min(float(t), -1.0), y)
            for w in CLAMP_WEIGHTS:
                _check_clamp(ident.prox_env, lambda w, y: _identity_prox_env_ref(upper, w, y), w, y)
        for q in (1e-6, 0.1, 0.5, 1.0 - 1e-6):
            root = RootScaling(q, upper)
            for y in _clamp_values(upper):
                _check_clamp(root.proj_dom_env_conj,
                             lambda t: float(t) if upper < INF else min(float(t), 0.0), y)
                for w in CLAMP_WEIGHTS:
                    _check_clamp(root.prox_env, lambda w, y: _root_prox_env_ref(q, upper, w, y), w, y)
    for beta in (1e-8, 1.0, 1e8):
        sqrt = SqrtScaling(beta)
        for y in _clamp_values(math.sqrt(beta)):
            _check_clamp(sqrt.proj_dom_env_conj, _unit_clamp_ref, y)
            for w in CLAMP_WEIGHTS:
                _check_clamp(sqrt.prox_env, lambda w, y: _sqrt_prox_env_ref(beta, w, y), w, y)
