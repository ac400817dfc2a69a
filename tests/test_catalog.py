import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from persprox import (
    INF,
    AbsBase,
    CaseKind,
    HuberBase,
    IdentityScaling,
    PowerBase,
    PowerScalar,
    RootScaling,
    SqrtScaling,
    make_base,
    make_scaling,
    root_scaling_prox_neg,
    sqrt_scaling_prox,
)
from persprox.catalog import _cap_norm
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


@settings(max_examples=200, deadline=None)
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
    z = root_scaling_prox_neg(2.0, 1.0, 0.5, 3.5)
    assert z == pytest.approx(4.0, abs=1e-10)
    z0 = root_scaling_prox_neg(2.0, 1.0, 0.5, 0.0)
    assert z0 == pytest.approx(1.0, abs=1e-10)


def test_root_scaling_prox_asymptotics():
    # dominant balance: z ~ y + q*gamma*mu*y^(q-1) for large y
    q, w, y = 0.5, 2.0, 1e6
    z = root_scaling_prox_neg(w, 1.0, q, y)
    assert z == pytest.approx(y + q * w * y ** (q - 1.0), rel=1e-6)


def test_root_scaling_prox_tiny_weight():
    # (c / (1 + |y| + c))**(1/(1-q)), a bracket end in z, underflows to 0 here
    q, mu = 0.95, 1e-20
    assert root_scaling_prox_neg(mu, 1.0, q, 1e-3) == pytest.approx(1e-3, rel=1e-15)
    # the root, about 3.6e-401, lies below the smallest double
    assert root_scaling_prox_neg(mu, 1.0, q, -1.0) == 0.0


def test_root_scaling_prox_one_sided_convergence():
    # Newton meets this root from one side, so one bracket end never moves
    z = root_scaling_prox_neg(8.68e-4, 1.0, 0.95, -3.54e-3)
    assert z == pytest.approx(2.2120827456377473e-13, rel=1e-14)


def test_root_scaling_prox_stops_at_float_resolution():
    # F = z - w - y cancels to a few ulps of |y| here, so the bracket closes
    # on two adjacent doubles before a Newton step meets the stopping test
    # (a power(1.05)/root(0.5) multiplier search at gamma 23.5, |y| 2e7)
    mu, y = 39214999.71336612, -20398317.945543412
    z = root_scaling_prox_neg(mu, 1.0, 0.5, y)
    assert z == pytest.approx(0.92396535687465001, rel=1e-14)  # 50-digit root
    assert abs(z - 0.5 * mu * z ** -0.5 - y) <= 1e-10 * (1.0 + abs(y) + z)


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(0.05, 0.95),
    mu=st.floats(1e-3, 1e3),
    y=st.floats(-100.0, 100.0),
)
def test_root_scaling_prox_residual(q, mu, y):
    z = root_scaling_prox_neg(mu, 1.0, q, y)
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


@settings(max_examples=300, deadline=None)
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


# --- value-curve slopes -----------------------------------------------------

def _profile_curve(profile, t):
    """``w -> (point, value)`` of the value curve h(prox_{w h}(t)) of a
    conjugate profile ``h``."""
    def at(w):
        pt = profile.prox(w, t) if w > 0.0 else profile.proj_cl_dom(t)
        return pt, profile.eval(pt)
    return at


def _scaling_curve(scaling, y):
    def at(w):
        z = scaling.prox_env(w, y)
        return z, scaling.env_eval(z)
    return at


def _central_difference(curve, w):
    h = 1e-5 * w
    return (curve(w + h)[1] - curve(w - h)[1]) / (2.0 * h), h


SIGNED_BASES = st.sampled_from([PowerBase(1.5), PowerBase(2.0), PowerBase(3.0), PowerBase(20.0),
                                 HuberBase(0.5), HuberBase(1.0), HuberBase(3.0)])


@settings(max_examples=300, deadline=None)
@given(
    base=SIGNED_BASES,
    log_w=st.floats(-3.0, 3.0),
    x=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_conj_slope_matches_central_difference(base, log_w, x):
    # the value curve of the base's conjugate profile at r = ||x||, the
    # curve the solver's base side runs on
    w = 10.0 ** log_w
    r = math.hypot(*x)
    curve = _profile_curve(base.conj.phi1d, r)
    fd, h = _central_difference(curve, w)
    if isinstance(base, HuberBase):
        # the clamp onto the ball is a kink of the curve
        assume(abs(r / (1.0 + w) - base.alpha) > 1e-3 * base.alpha)
    slope = base.conj.phi1d.slope(w, r, curve(w)[0])
    assert slope <= 0.0
    assert abs(slope - fd) <= 1e-5 * (1.0 + abs(fd)) + 1e-9 * abs(curve(w)[1]) / h


@settings(max_examples=300, deadline=None)
@given(
    scaling=st.sampled_from([RootScaling(0.3), RootScaling(0.5, 4.0), RootScaling(0.9, 2.0),
                             SqrtScaling(0.2), SqrtScaling(1.0), SqrtScaling(5.0),
                             IdentityScaling(), IdentityScaling(2.0)]),
    log_w=st.floats(-3.0, 3.0),
    y=st.floats(-10.0, 10.0),
)
def test_env_slope_matches_central_difference(scaling, log_w, y):
    w = 10.0 ** log_w
    curve = _scaling_curve(scaling, y)
    fd, h = _central_difference(curve, w)
    z = curve(w)[0]
    # the clamps at 0 and at the upper end are kinks of the curve
    lo, hi = curve(w - h)[0], curve(w + h)[0]
    for end in (0.0, getattr(scaling, "upper", INF)):
        assume((lo == end) == (hi == end))
    if isinstance(scaling, IdentityScaling):
        assume(min(abs(y + w), abs(y + w - scaling.upper)) > 2.0 * h)
    slope = scaling.env_slope(w, y, z)
    assert slope <= 0.0
    assert abs(slope - fd) <= 1e-5 * (1.0 + abs(fd)) + 1e-9 * abs(curve(w)[1]) / h


@settings(max_examples=300, deadline=None)
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


@settings(max_examples=300, deadline=None)
@given(
    base=SIGNED_BASES,
    log_w=st.floats(-3.0, 3.0),
    x=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_vector_conjugate_methods_are_the_radial_lift_of_the_profile(base, log_w, x):
    # x -> x * (t / ||x||) for the profile's t at ||x||, bit for bit; the
    # Huber points are capped onto the ball where rounding left them outside
    h = base.conj.phi1d
    w = 10.0 ** log_w
    r = math.hypot(*x)

    def lift(t):
        if r < 1e-300:  # radial_prox's zero-vector guard
            return (0.0, 0.0)
        out = tuple(c * (t / r) for c in x)
        return _cap_norm(out, h.alpha) if isinstance(base, HuberBase) else out

    assert repr(base.conj_eval(x)) == repr(h.eval(r))
    assert repr(base.prox_conj(w, x)) == repr(lift(h.prox(w, r)))
    assert repr(base.proj_dom_conj(x)) == repr(lift(h.proj_cl_dom(r)))


def test_slopes_vanish_on_clamps():
    # the root scaling at its upper end: prox_env(1, 10) would be about 10.1
    root = RootScaling(0.5, 4.0)
    assert root.prox_env(1.0, 10.0) == 4.0
    assert root.env_slope(1.0, 10.0, 4.0) == 0.0
    assert root.env_slope(0.0, 10.0, root.prox_env(0.0, 10.0)) == 0.0
    assert _central_difference(_scaling_curve(root, 10.0), 1.0)[0] == 0.0
    # the Huber conjugate profile on its end: r / (1 + w) = 2.5 > alpha
    huber = HuberBase(1.0).conj.phi1d
    rho = huber.prox(1.0, 5.0)
    assert rho == pytest.approx(1.0)
    assert huber.slope(1.0, 5.0, rho) == 0.0
    assert _central_difference(_profile_curve(huber, 5.0), 1.0)[0] == 0.0
    # the power conjugate profile at rho = 0, where g'' is infinite for p* < 2
    for p in (1.5, 2.0, 3.0):
        power = PowerBase(p).conj.phi1d
        assert power.prox(1.0, 0.0) == 0.0
        assert power.slope(1.0, 0.0, 0.0) == 0.0
        assert power.slope(0.0, 0.0, 0.0) == 0.0
    # the identity scaling clamped at 0 and at its upper end
    ident = IdentityScaling(2.0)
    assert ident.env_slope(1.0, -3.0, ident.prox_env(1.0, -3.0)) == 0.0
    assert ident.env_slope(1.0, 3.0, ident.prox_env(1.0, 3.0)) == 0.0
    assert ident.env_slope(1.0, 0.5, ident.prox_env(1.0, 0.5)) == -1.0
