import functools
import math
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
    RootFindError,
    RootScaling,
    SqrtScaling,
    perspective_conj_eval,
    perspective_eval,
    preperspective_eval,
    prox_fenchel_gap,
    prox_perspective,
)
from persprox.core import norm, scale, slack_bound, sub
from persprox import perspective
from persprox.perspective import certificate_gap
from conftest import limit_quotient_recession, rand_vec
from reference import identity_gap, linear_perspective_eval, vector_lift_certificate_gap

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


def test_perspective_reads_the_base_where_only_the_norm_of_x_overflows():
    # ||x|| is beyond the largest double, ||x / s|| and the value are not:
    # s * phi(x / s) = alpha * ||x|| for a huber base of slope alpha < 1
    pair = PerspectivePair(HuberBase(1e-3), SqrtScaling(1.0), n=2)
    x, y = (1.5e308, 1.5e308), 10.0
    assert math.hypot(*x) == INF
    val = perspective_eval(pair, x, y)
    assert val == preperspective_eval(pair, x, y)
    assert val == pytest.approx(1e-3 * math.sqrt(2.0) * 1.5e308, rel=1e-12)


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


def _workloads():
    """The benchmark's input generator, imported read-only."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads


def _pulled_in(pair, gamma, x, p) -> bool:
    """Whether ``||x*||``, ``x* = (x - p)/gamma`` as the certificate forms
    it, lies outside the domain of the base's conjugate profile."""
    inv = 1.0 / gamma
    return pair.base.conj.phi1d.eval(math.hypot(*[(a - b) * inv for a, b in zip(x, p)])) == INF


def _largest_term(pair, gamma, x, y, p, q) -> float:
    """The largest magnitude among the certificate's four terms: the value,
    the conjugate (at the pulled-in norm), ``<p, x*>`` and ``q * y*``."""
    h = pair.base.conj.phi1d
    inv = 1.0 / gamma
    xstar = tuple([(a - b) * inv for a, b in zip(x, p)])
    ystar = (y - q) / gamma
    c = h.eval(h.proj_cl_dom(math.hypot(*xstar)))
    conj = perspective._conj_value(pair, c, ystar, math.hypot(*x) / gamma)
    val = perspective._perspective_value(pair, p, q)
    return max(abs(val), abs(conj), abs(sum(a * b for a, b in zip(p, xstar))), abs(q * ystar))


def test_prox_certificate_is_the_public_gap():
    # the gap prox_perspective attaches, from the checked input and the
    # point it assembled, is the public function's on the same arguments.
    # Where x* lies in the domain of phi*, it is bit for bit the one the
    # base's vector conjugate methods give; where rounding left x* outside
    # (huber Xi2 and abs CaseII), the profile path pulls in the norm and
    # the vector path caps the point, so both gaps are finite and agree to
    # a few ulps of the largest term.  The inputs are the benchmark's seed-0
    # pools and probe seed 0
    workloads = _workloads()
    inputs = [(workload, workloads.setup(workload, 0)) for workload in workloads.PROX]
    probe_pairs = tuple(workloads.build_pair(s) for s in workloads.ROBUSTNESS_SPECS)
    inputs.append(("probe", (probe_pairs, workloads.probe_calls(0))))
    labels, probed, pulled = set(), 0, 0
    for workload, (pairs, calls) in inputs:
        for call in calls:
            pair = pairs[call.pair]
            try:
                res = prox_perspective(pair, call.gamma, call.x, call.y)
            except (ArithmeticError, RootFindError):
                assert workload == "probe", call
                continue
            gap = prox_fenchel_gap(pair, call.gamma, call.x, call.y, res.p, res.q)
            assert repr(res.certificate_gap) == repr(gap), (workload, call)
            x, y = pair.check_point(call.x, call.y)
            lifted = vector_lift_certificate_gap(pair, call.gamma, x, y, res.p, res.q)
            if _pulled_in(pair, call.gamma, x, res.p):
                pulled += 1
                assert math.isfinite(gap) and math.isfinite(lifted), (workload, call)
                largest = _largest_term(pair, call.gamma, x, y, res.p, res.q)
                assert abs(gap - lifted) <= 4.0 * math.ulp(largest), (workload, call, gap, lifted)
            else:
                assert repr(res.certificate_gap) == repr(lifted), (workload, call)
            if workload == "probe":
                probed += 1
            else:
                labels.add(res.label.value)
    assert labels == {"CaseII", "Omega1", "Omega2", "Omega3", "Omega4", "Xi2", "Xi4"}
    assert probed > 1000
    assert pulled > 0


def test_certificate_reads_the_conjugate_profile(monkeypatch):
    # the certificate reads phi* on the profile at ||x*|| alone and makes no
    # vector base-contract call: not where rounding puts a Xi2 or CaseII dual
    # point an ulp or so outside the ball (it projects the norm on the
    # profile), nor below core.ZERO_NORM (the profile is finite there)
    workloads = _workloads()
    pairs, calls = workloads.setup("closed_band", 0)
    cases = []
    for call in calls:
        pair = pairs[call.pair]
        x, y = pair.check_point(call.x, call.y)
        res = prox_perspective(pair, call.gamma, x, y)
        cases.append((pair, call.gamma, x, y, res.p, res.q, res.certificate_gap))
    events = []
    for cls in (PowerBase, HuberBase, AbsBase):
        for name in ("prox_conj", "conj_eval", "proj_dom_conj"):
            def spy(self, *args, method=getattr(cls, name), name=name):
                events.append(name)
                return method(self, *args)

            monkeypatch.setattr(cls, name, spy)
    outside = 0
    for pair, gamma, x, y, p, q, gap in cases:
        assert repr(certificate_gap(pair, gamma, x, y, p, q, math.hypot(*x) / gamma)) == repr(gap)
        outside += _pulled_in(pair, gamma, x, p)
    assert {type(case[0].base) for case in cases} == {PowerBase, HuberBase, AbsBase}
    assert 0 < outside <= 0.25 * len(cases)
    for ulps in (1, 4):
        p0 = 2.0 - ulps * 2.0 ** -52
        gap = certificate_gap(HUBER_PAIR, 1.0, (3.0, 0.0), 0.0, (p0, 0.0), 0.0, 3.0)
        assert math.isfinite(gap) and abs(gap) <= 1e-12
    # and below core.ZERO_NORM, where the vector projection of a power base
    # is the zero vector; the gaps agree
    x, p = (3e-310, 0.0), (1e-310, 0.0)
    gap = certificate_gap(POWER_ID, 1.0, x, 1.0, p, 1.0, math.hypot(*x))
    assert events == []
    assert repr(gap) == repr(vector_lift_certificate_gap(POWER_ID, 1.0, x, 1.0, p, 1.0))


def test_gap_of_an_overflowed_dual_point_is_inf():
    # every entry is finite, but x* = (x - p)/gamma overflows: its norm is
    # +inf, which is not pulled onto the ball, so the gap is +inf
    gap = prox_fenchel_gap(HUBER_PAIR, 1e-10, (1e300, 0.0), 0.5, (-1e300, 0.0), 0.5)
    assert gap == INF


def test_gap_of_an_input_whose_size_overflows_is_inf():
    # ||x||/gamma = 1e310 overflows, and an infinite slack would pull any x*
    # onto the ball and snap any phi* to zero: this gap read 0.0, although
    # ||x*|| = 1.5e294 lies far outside the unit ball
    p = (math.nextafter(1e300, 0.0), 0.0)
    assert math.hypot(*((1e300 - p[0]) / 1e-10, 0.0)) > 1e294
    assert prox_fenchel_gap(HUBER_PAIR, 1e-10, (1e300, 0.0), 0.5, p, 0.5) == INF


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


def _gap_ratios(sets) -> list:
    """``(pair index, label, gap / bound)`` of every output of ``sets``
    (``(pairs, calls)``); a call that raises is skipped."""
    out = []
    for pairs, calls in sets:
        for call in calls:
            try:
                res = prox_perspective(pairs[call.pair], call.gamma, call.x, call.y)
            except (ArithmeticError, RootFindError):
                continue
            out.append((call.pair, res.label.value, res.certificate_gap / _gap_bound(call.x, call.y)))
    return out


def test_pool_certificates_are_two_sided():
    # a Fenchel gap is nonnegative up to rounding: on the seed-0 and seed-1
    # pools of the three prox workloads (19,600 outputs, none raising) every
    # gap lies within the bound on both sides
    workloads = _workloads()
    ratios = _gap_ratios([workloads.setup(workload, seed)
                          for workload in workloads.PROX for seed in (0, 1)])
    assert len(ratios) == 19600
    outside = [r for r in ratios if not -1.0 <= r[2] <= 1.0]
    assert not outside, outside[:10]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "20 certified probe outputs (seeds 0-4) have gaps down to -79 times the bound: "
    "the gap's terms cancel where x* and y* are formed from x - p and y - q; the "
    "dual-point certificate of ROADMAP item 1 removes that cancellation"))
def test_probe_certificates_are_two_sided():
    workloads = _workloads()
    probe_pairs = tuple(workloads.build_pair(s) for s in workloads.ROBUSTNESS_SPECS)
    ratios = _gap_ratios([(probe_pairs, workloads.probe_calls(seed)) for seed in range(5)])
    low = [r for r in ratios if r[2] < -1.0]
    assert not low, low


# --- the scaling identity on the wide_scale pools and the probe --------------


@functools.cache
def _identity_counts() -> dict:
    """``{pair: (calls, violations)}`` over the wide_scale pools (seeds 0-1) and
    probe seeds 0-4: the calls where neither side of ``identity_gap`` raises,
    and those among them whose gap exceeds 1e-6."""
    workloads = _workloads()
    sets = [workloads.setup("wide_scale", seed) for seed in (0, 1)]
    probe_pairs = tuple(workloads.build_pair(s) for s in workloads.ROBUSTNESS_SPECS)
    sets += [(probe_pairs, workloads.probe_calls(seed)) for seed in range(5)]
    counts = {}
    for pairs, calls in sets:
        for call in calls:
            pair = pairs[call.pair]
            gap = identity_gap(pair, call.gamma, call.x, call.y)
            if gap is not None:
                done, bad = counts.get(pair, (0, 0))
                counts[pair] = (done + 1, bad + (gap > 1e-6))
    return counts


NEGLIGIBLE_FLOOR = pytest.mark.xfail(strict=True, reason=(
    'the "1 +" floor of core.slack_bound tests phi*(x/gamma) against 1e-12 absolute '
    "at small ||x/gamma||, so the region pass picks a closed form that does not apply"))


@pytest.mark.parametrize("index", [
    pytest.param(1, id="power1.05-root0.5"),
    pytest.param(4, id="huber1e4-sqrt"),
    pytest.param(0, id="power3-root0.5-4", marks=NEGLIGIBLE_FLOOR),
    pytest.param(2, id="power20-root0.95", marks=NEGLIGIBLE_FLOOR),
    pytest.param(3, id="power2-identity", marks=pytest.mark.xfail(strict=True, reason=(
        "3 probe calls miss the identity by up to 2.5e-6: two at ||(x, y)|| ~ 1e-12 take "
        "Omega2 where the normalised twin takes Omega4 (the '1 +' floor of core.slack_bound), "
        "one stops within the absolute eta_tol 1e-12 of an eta near 3e-9"))),
])
def test_scaling_identity_on_the_pools_and_the_probe(index):
    # prox_{gamma f}(lam z) = lam * prox_{gamma lam^(k-2) f_lam}(z) at
    # lam = ||(x, y)||, with the rescaling laws of reference.rescaled_pair;
    # ROBUSTNESS_SPECS[index] names the pair
    workloads = _workloads()
    pair = workloads.build_pair(workloads.ROBUSTNESS_SPECS[index])
    calls, violations = _identity_counts()[pair]
    assert calls >= 900
    assert violations == 0


def test_certificate_snaps_what_the_region_pass_treats_as_zero():
    # Omega3 on power(2)/identity: the pass finds phi*(rho) = 5e-11 for
    # rho = x / (gamma + y), negligible at the size ||x/gamma|| = 1e9, and
    # returns p = x - gamma * rho; the certificate recomputes the value from
    # x* = (x - p) / gamma and must call it zero at the same size, though it
    # is not negligible at the size ||x*|| = 1e-5 of its own argument
    gamma, x, y = 1e-9, (1.0, 0.0), 1e5
    rho = scale(x, 1.0 / (gamma + y))
    assert POWER_ID.base.conj_eval(rho) > 0.0
    assert abs(POWER_ID.base.conj_eval(rho)) <= slack_bound(1.0 / gamma)
    res = prox_perspective(POWER_ID, gamma, x, y)
    assert res.label.value == "Omega3"
    xstar = scale(sub(x, res.p), 1.0 / gamma)
    c = POWER_ID.base.conj_eval(xstar)
    assert not abs(c) <= slack_bound(norm(xstar))
    assert math.isfinite(res.certificate_gap)
    assert abs(res.certificate_gap) <= _gap_bound(x, y)
