import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persprox import (
    INF,
    AbsBase,
    HuberBase,
    HuberConjScalar,
    IdentityScaling,
    PowerBase,
    RootScaling,
    SqrtScaling,
    make_base,
    make_scaling,
    power_prox_conj,
    root_scaling_prox_neg,
    sqrt_scaling_prox,
)
from conftest import closed_form_huber_prox, golden_min, grid_prox_1d

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


def test_prox_env_zero_weight_is_domain_projection():
    assert RootScaling(0.5, 1.0).prox_env(0.0, 3.0) == 1.0
    assert RootScaling(0.5, 1.0).prox_env(0.0, -2.0) == 0.0
    assert SqrtScaling(1.0).prox_env(0.0, -2.5) == -2.5
    assert IdentityScaling(4.0).prox_env(0.0, 9.0) == 4.0


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
