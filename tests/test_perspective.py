import math
import random
import sys
from pathlib import Path

import pytest

from persprox import (
    INF,
    AbsBase,
    DimensionMismatch,
    HuberBase,
    IdentityScaling,
    PairMismatch,
    PerspectivePair,
    PowerBase,
    RootScaling,
    SqrtScaling,
    perspective_conj_eval,
    perspective_eval,
    preperspective_eval,
    prox_fenchel_gap,
    prox_perspective,
)
from persprox.core import negligible, norm, scale, sub
from conftest import limit_quotient_recession, rand_vec
from reference import linear_perspective_eval

HUBER_PAIR = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=2)
POWER_ROOT = PerspectivePair(PowerBase(2.0), RootScaling(0.5, 4.0), n=2)
ABS_ROOT = PerspectivePair(AbsBase(), RootScaling(0.5, 1.0), n=2)
POWER_ID = PerspectivePair(PowerBase(2.0), IdentityScaling(), n=2)

ALL_PAIRS = [HUBER_PAIR, POWER_ROOT, ABS_ROOT, POWER_ID]


def test_pair_compatibility_rules():
    with pytest.raises(PairMismatch):
        PerspectivePair(PowerBase(2.0), SqrtScaling(1.0), n=2)
    with pytest.raises(PairMismatch):
        PerspectivePair(HuberBase(1.0), RootScaling(0.5), n=2)
    # zero-or-infinity conjugates pair with either side
    PerspectivePair(AbsBase(), SqrtScaling(1.0), n=2)
    PerspectivePair(AbsBase(), RootScaling(0.5), n=2)


def test_preperspective_identity_scaling():
    assert preperspective_eval(POWER_ID, (2.0, 0.0), 1.0) == pytest.approx(2.0)
    assert preperspective_eval(POWER_ID, (2.0, 0.0), 2.0) == pytest.approx(1.0)
    assert preperspective_eval(POWER_ID, (2.0, 0.0), 0.0) == INF
    assert preperspective_eval(POWER_ID, (2.0, 0.0), -1.0) == INF


def test_perspective_huber_values():
    # outside the quadratic region the value is the linear slope times the norm
    assert perspective_eval(HUBER_PAIR, (3.0, 0.0), 0.0) == pytest.approx(3.0)
    assert perspective_eval(HUBER_PAIR, (0.0, 0.0), 0.0) == pytest.approx(0.5)


def test_perspective_power_root_value():
    assert perspective_eval(POWER_ROOT, (2.0, 0.0), 4.0) == pytest.approx(1.0)
    # scale value 0 forces the recession: finite only at the origin
    assert perspective_eval(POWER_ROOT, (0.0, 0.0), 0.0) == 0.0
    assert perspective_eval(POWER_ROOT, (1.0, 0.0), 0.0) == INF
    assert perspective_eval(POWER_ROOT, (1.0, 0.0), -2.0) == INF
    assert perspective_eval(POWER_ROOT, (1.0, 0.0), 5.0) == INF


def test_linear_perspective_values_and_recession_oracle():
    quad = PowerBase(2.0)
    assert linear_perspective_eval(quad, (2.0,), 2.0) == pytest.approx(1.0)
    assert linear_perspective_eval(quad, (1.0,), 0.0) == INF
    # limit quotient oracle: (phi(z + lam*x) - phi(z)) / lam at lam = 1e6
    assert limit_quotient_recession(quad.eval, (1.0,), (0.0,)) > 1e3
    ab = AbsBase()
    assert linear_perspective_eval(ab, (3.0,), 0.0) == pytest.approx(3.0)
    assert limit_quotient_recession(ab.eval, (3.0,), (0.2,)) == pytest.approx(3.0, abs=1e-5)
    hu = HuberBase(0.5)
    assert linear_perspective_eval(hu, (3.0, 4.0), 0.0) == pytest.approx(2.5)
    assert limit_quotient_recession(hu.eval, (3.0, 4.0), (0.1, 0.0)) == pytest.approx(2.5, abs=1e-4)
    assert linear_perspective_eval(quad, (1.0,), -0.5) == INF


def test_conjugate_zero_infty_cases():
    assert perspective_conj_eval(ABS_ROOT, (0.5, 0.0), -2.0) == 0.0
    assert perspective_conj_eval(ABS_ROOT, (2.0, 0.0), 0.0) == INF
    # support branch when the base conjugate vanishes
    assert perspective_conj_eval(POWER_ROOT, (0.0, 0.0), 2.0) == pytest.approx(8.0)
    assert perspective_conj_eval(POWER_ROOT, (0.0, 0.0), -1.0) == 0.0


def test_minorization_and_open_region_agreement(rng):
    from persprox import SignClass

    for pair in ALL_PAIRS:
        decoupled = pair.base.sign_class is SignClass.ZERO_INFTY_CONJUGATE
        for _ in range(300):
            x = rand_vec(rng, 2)
            y = rng.uniform(-5.0, 5.0)
            pre = preperspective_eval(pair, x, y)
            val = perspective_eval(pair, x, y)
            assert val <= pre + 1e-12 * (1.0 + abs(val))
            sv = pair.scaling.eval(y)
            if 0.0 < sv < INF:
                if decoupled:
                    # same value through an algebraically different formula
                    assert val == pytest.approx(pre, rel=1e-12)
                else:
                    assert val == pre


def test_fenchel_young_cross_inequality(rng):
    for pair in ALL_PAIRS:
        for _ in range(300):
            x, y = rand_vec(rng, 2), rng.uniform(-4, 4)
            xs, ys = rand_vec(rng, 2), rng.uniform(-4, 4)
            val = perspective_eval(pair, x, y)
            conj = perspective_conj_eval(pair, xs, ys)
            if val == INF or conj == INF:
                continue
            inner = sum(a * b for a, b in zip(x, xs)) + y * ys
            assert val + conj >= inner - 1e-9


def test_linear_scaling_consistency(rng):
    for _ in range(300):
        x = rand_vec(rng, 2)
        t = rng.uniform(0.0, 5.0)
        assert perspective_eval(POWER_ID, x, t) == pytest.approx(
            linear_perspective_eval(POWER_ID.base, x, t), abs=1e-12
        )
    assert perspective_eval(POWER_ID, (0.0, 0.0), 0.0) == linear_perspective_eval(
        POWER_ID.base, (0.0, 0.0), 0.0
    )


def test_sampled_midpoint_convexity(rng):
    for pair in ALL_PAIRS:
        for _ in range(300):
            u, su = rand_vec(rng, 2), rng.uniform(-4, 4)
            v, sv = rand_vec(rng, 2), rng.uniform(-4, 4)
            mid = tuple(0.5 * (a + b) for a, b in zip(u, v))
            smid = 0.5 * (su + sv)
            fu = perspective_eval(pair, u, su)
            fv = perspective_eval(pair, v, sv)
            if fu == INF or fv == INF:
                continue
            assert perspective_eval(pair, mid, smid) <= 0.5 * fu + 0.5 * fv + 1e-10


def test_dimension_rejection():
    with pytest.raises(DimensionMismatch):
        perspective_eval(HUBER_PAIR, (1.0, 2.0, 3.0), 0.0)
    with pytest.raises(DimensionMismatch):
        perspective_conj_eval(HUBER_PAIR, (1.0,), 0.0)
    with pytest.raises(DimensionMismatch):
        preperspective_eval(HUBER_PAIR, (1.0, 2.0), (0.0, 1.0))


def test_non_finite_scale_component_is_rejected():
    for y in (math.inf, -math.inf, math.nan, [math.inf]):
        with pytest.raises(ValueError, match="finite"):
            HUBER_PAIR.check_point((1.0, 0.0), y)
        with pytest.raises(ValueError, match="finite"):
            perspective_eval(HUBER_PAIR, (1.0, 0.0), y)
    with pytest.raises(ValueError, match="finite"):
        prox_fenchel_gap(HUBER_PAIR, math.inf, (3.0, 0.0), 0.0, (2.0, 0.0), 0.0)


@pytest.mark.parametrize("gamma, x, y, p, q, error", [
    (1.0, (3.0, 0.0), 0.0, (math.nan, 0.0), 0.0, ValueError),
    (1.0, (3.0, 0.0), 0.0, (2.0, -math.inf), 0.0, ValueError),
    (1.0, (3.0, 0.0), 0.0, (2.0, 0.0), math.inf, ValueError),
    (1.0, (3.0, 0.0), 0.0, (2.0, 0.0), math.nan, ValueError),
    (0.0, (3.0, 0.0), 0.0, (2.0, 0.0), 0.0, ValueError),
    (-1.0, (3.0, 0.0), 0.0, (2.0, 0.0), 0.0, ValueError),
    (math.inf, (3.0, 0.0), 0.0, (2.0, 0.0), 0.0, ValueError),
    (math.nan, (3.0, 0.0), 0.0, (2.0, 0.0), 0.0, ValueError),
    (1.0, (3.0, 0.0, 0.0), 0.0, (2.0, 0.0), 0.0, DimensionMismatch),
    (1.0, (3.0, 0.0), 0.0, (2.0,), 0.0, DimensionMismatch),
], ids=["p-nan", "p-inf", "q-inf", "q-nan", "gamma-0", "gamma-negative", "gamma-inf",
        "gamma-nan", "x-dimension", "p-dimension"])
def test_public_gap_checks_its_arguments(gamma, x, y, p, q, error):
    # prox_perspective certifies through the unchecked body; the public
    # function keeps every check
    with pytest.raises(error):
        prox_fenchel_gap(HUBER_PAIR, gamma, x, y, p, q)


def test_prox_certificate_is_the_public_gap():
    # the gap prox_perspective attaches, from the checked input and the
    # point it assembled, is the public function's on the same arguments;
    # the inputs are the benchmark's seed-0 pools (its generator, read-only)
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    labels = set()
    for workload in workloads.PROX:
        pairs, calls = workloads.setup(workload, 0)
        for call in calls:
            pair = pairs[call.pair]
            res = prox_perspective(pair, call.gamma, call.x, call.y)
            gap = prox_fenchel_gap(pair, call.gamma, call.x, call.y, res.p, res.q)
            assert repr(res.certificate_gap) == repr(gap), (workload, call)
            labels.add(res.label.value)
    assert labels == {"CaseII", "Omega1", "Omega2", "Omega3", "Omega4", "Xi2", "Xi4"}


def test_fenchel_gap_detects_wrong_point():
    gap_exact = prox_fenchel_gap(HUBER_PAIR, 1.0, (3.0, 0.0), 0.0, (2.0, 0.0), 0.0)
    assert 0.0 <= gap_exact <= 1e-10
    gap_off = prox_fenchel_gap(HUBER_PAIR, 1.0, (3.0, 0.0), 0.0, (2.1, 0.0), 0.0)
    assert gap_off > 1e-3


@pytest.mark.parametrize("ulps", [1, 4])
def test_gap_clamps_a_dual_point_a_few_ulps_outside_the_ball(ulps):
    # p = 2 - k ulps puts x* = x - p at 1 + k ulps, just outside the unit
    # ball where phi* is +inf; the clamp pulls it back onto the boundary
    p0 = 2.0 - ulps * 2.0 ** -52
    assert HUBER_PAIR.base.conj_eval((3.0 - p0, 0.0)) == INF
    gap = prox_fenchel_gap(HUBER_PAIR, 1.0, (3.0, 0.0), 0.0, (p0, 0.0), 0.0)
    assert math.isfinite(gap) and abs(gap) <= 1e-12


def test_gap_does_not_clamp_a_dual_point_far_outside_the_ball():
    assert prox_fenchel_gap(HUBER_PAIR, 1.0, (3.0, 0.0), 0.0, (2.0 - 1e-3, 0.0), 0.0) == INF


def test_gap_is_unchanged_when_the_projection_returns_its_argument(monkeypatch):
    # the certificate skips the clamp's distance test when proj_dom_conj
    # hands x* back itself; a projection that returns an equal copy takes
    # the test and must give the same gaps
    rng = random.Random(11)
    cases = []
    for pair in ALL_PAIRS:
        for _ in range(200):
            x, y = rand_vec(rng, 2), rng.uniform(-4.0, 4.0)
            res = prox_perspective(pair, 1.0, x, y)
            # the prox, and a point off it whose x* may leave the domain
            for p in (res.p, scale(res.p, 1.0 + rng.uniform(-1e-3, 1e-3))):
                cases.append((pair, x, y, p, res.q))

    def gaps():
        return [repr(prox_fenchel_gap(pair, 1.0, x, y, p, q)) for pair, x, y, p, q in cases]

    itself = 0
    for pair, x, _, p, _ in cases:
        xs = sub(x, p)
        itself += pair.base.proj_dom_conj(xs) is xs
    assert 0 < itself < len(cases)
    expected = gaps()
    for cls in (HuberBase, PowerBase, AbsBase):
        project = cls.proj_dom_conj
        monkeypatch.setattr(cls, "proj_dom_conj",
                            lambda self, xs, project=project: tuple(list(project(self, xs))))
    assert gaps() == expected


# --- one rounding-slack rule in the region pass and the certificate --------

POWER20_ROOT = PerspectivePair(PowerBase(20.0), RootScaling(0.95), n=2)
HUBER_WIDE = PerspectivePair(HuberBase(1e4), SqrtScaling(1.0), n=2)


def _gap_bound(x, y) -> float:
    """Criterion 3's certificate bound, ``1e-8 * (1 + ||(x, y)||^2)``."""
    return 1e-8 * (1.0 + sum(v * v for v in x) + y * y)


# the scale-side dual point y* = (y - q)/gamma cancels, and the ratio y*/c
# lands 1e-8..1e-7 (relative) outside dom env*, beyond the ratio clamp's
# 1e-9 slack, so env* is +inf; the dual point c * env'(q) of ROADMAP item 1
# removes the cancellation
RATIO_CLAMP = pytest.mark.xfail(
    strict=True, reason="scale-side ratio clamp: cancelled y* puts y*/c outside dom env*")


# robustness-probe inputs (gamma 1e-8..1e8, |(x, y)| 1e-12..1e12); the
# first six had a certificate of +inf while the slack was sized by ||x*||
@pytest.mark.parametrize("pair, label, gamma, x, y", [
    pytest.param(ABS_ROOT, "CaseII", 4.315801605274226e-05,
                 (-20550626909.193993, 13563183032.59343), 81675039901.1052, id="abs-caseII-0"),
    pytest.param(ABS_ROOT, "CaseII", 53.37440909618436,
                 (-100852348875.50424, 154414100674.0075), 130516643785.13322, id="abs-caseII-1"),
    pytest.param(POWER_ID, "Omega3", 8.398551906364584e-05,
                 (130884062084.05832, 300414927367.851), 695396943147.5511, id="power2-id-omega3-0"),
    pytest.param(POWER_ID, "Omega3", 0.003679868583341904,
                 (-567225216.0417739, -220788694.0584553), 1204018432.5214956, id="power2-id-omega3-1"),
    pytest.param(POWER20_ROOT, "Omega3", 1.0970142437674633e-05,
                 (20299287.288938764, -7016471.03538598), 76445232.94707347, id="power20-omega3-0"),
    pytest.param(POWER20_ROOT, "Omega3", 0.0019084159710624497,
                 (-0.005247200869380546, -2.1945432739305497), 6.758440378103087, id="power20-omega3-1"),
    pytest.param(POWER_ID, "Omega4", 1.7074890151184277e-07,
                 (-48351.45732283453, 61904.02975649497), 10474.560046544002,
                 id="power2-id-omega4", marks=RATIO_CLAMP),
    pytest.param(HUBER_WIDE, "Xi4", 1.2262439721371877e-08,
                 (-4728954.553412558, -3275298.3104652823), -53789.19685992763,
                 id="huber1e4-sqrt-xi4", marks=RATIO_CLAMP),
])
def test_certificate_of_wide_scale_probe_outputs(pair, label, gamma, x, y):
    res = prox_perspective(pair, gamma, x, y)
    assert res.label.value == label
    assert math.isfinite(res.certificate_gap)
    assert res.certificate_gap <= _gap_bound(x, y)


def test_certificate_snaps_what_the_region_pass_treats_as_zero():
    # Omega3 on power(2)/identity: the pass finds phi*(rho) = 5e-11 for
    # rho = x / (gamma + y), negligible at the size ||x/gamma|| = 1e9, and
    # returns p = x - gamma * rho; the certificate recomputes the value from
    # x* = (x - p) / gamma and must call it zero at the same size, though it
    # is not negligible at the size ||x*|| = 1e-5 of its own argument
    gamma, x, y = 1e-9, (1.0, 0.0), 1e5
    rho = scale(x, 1.0 / (gamma + y))
    assert POWER_ID.base.conj_eval(rho) > 0.0
    assert negligible(POWER_ID.base.conj_eval(rho), 1.0 / gamma)
    res = prox_perspective(POWER_ID, gamma, x, y)
    assert res.label.value == "Omega3"
    xstar = scale(sub(x, res.p), 1.0 / gamma)
    c = POWER_ID.base.conj_eval(xstar)
    assert not negligible(c, norm(xstar))
    assert math.isfinite(res.certificate_gap)
    assert abs(res.certificate_gap) <= _gap_bound(x, y)
