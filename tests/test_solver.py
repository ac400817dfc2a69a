import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

from persprox import (
    AbsBase,
    CaseLabel,
    DimensionMismatch,
    HuberBase,
    IdentityScaling,
    PerspectivePair,
    PowerBase,
    RootConfig,
    RootScaling,
    SqrtScaling,
    classify_case_i,
    classify_case_iii,
    prox_perspective,
    solve_eta_case_i,
    solve_eta_case_iii,
)
from persprox.solver import make_residual_case_i, make_residual_case_iii
from conftest import bisect_root, eta_on_wider_bracket, rand_vec
from reference import case_ii_prox

HUBER = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=2)
POWER_ROOT_BOUNDED = PerspectivePair(PowerBase(2.0), RootScaling(0.5, 1.0), n=2)
POWER_ROOT_FREE = PerspectivePair(PowerBase(2.0), RootScaling(0.5), n=2)
ABS_ROOT = PerspectivePair(AbsBase(), RootScaling(0.5, 1.0), n=2)
POWER_ID = PerspectivePair(PowerBase(2.0), IdentityScaling(), n=2)


def test_classification_power_root_examples():
    assert classify_case_i(POWER_ROOT_BOUNDED, 1.0, (0.0, 0.0), -1.0) is CaseLabel.OMEGA1
    assert classify_case_i(POWER_ROOT_BOUNDED, 1.0, (0.0, 0.0), 2.0) is CaseLabel.OMEGA3
    assert classify_case_i(POWER_ROOT_BOUNDED, 1.0, (0.7, -0.3), 0.5) is CaseLabel.OMEGA4
    assert classify_case_i(POWER_ROOT_BOUNDED, 1.0, (1e-4, 0.0), -5.0) is CaseLabel.OMEGA4
    # inputs within the rounding slack of core.negligible of the zero set
    # land on the closed form
    assert classify_case_i(POWER_ROOT_BOUNDED, 1.0, (1e-8, 0.0), -5.0) is CaseLabel.OMEGA1


def test_classification_huber_examples():
    assert classify_case_iii(HUBER, 1.0, (3.0, 0.0), 0.0) is CaseLabel.XI2
    assert classify_case_iii(HUBER, 1.0, (1.0, 0.0), 0.0) is CaseLabel.XI4


@pytest.mark.parametrize("pair, x, y, label", [
    (PerspectivePair(PowerBase(3.0), RootScaling(0.5, 4.0), n=2), (6.0, 0.0), 3.5, CaseLabel.OMEGA4),
    (HUBER, (1.0, 0.0), 0.0, CaseLabel.XI4),
], ids=["case-i", "case-iii"])
def test_either_case_name_serves_both_signed_cases(pair, x, y, label):
    # the sign class of the base conjugate picks the case, whichever name is
    # called; solve_eta_case_iii used to reject the power/root pair
    res = prox_perspective(pair, 1.0, x, y)
    assert res.label is label
    for classify in (classify_case_i, classify_case_iii):
        assert classify(pair, 1.0, x, y) is res.label
    for solve in (solve_eta_case_i, solve_eta_case_iii):
        assert solve(pair, 1.0, x, y)[0] == res.eta
    # a zero-or-infinity pair decouples and has no multiplier
    for fn in (classify_case_i, classify_case_iii, make_residual_case_i,
               make_residual_case_iii, solve_eta_case_i, solve_eta_case_iii):
        with pytest.raises(ValueError, match="zero-or-infinity"):
            fn(ABS_ROOT, 1.0, (2.0, 0.0), 2.0)


def test_identity_scaling_reaches_omega2():
    # v <= -gamma * phi*(x/gamma) pins the scale prox at zero
    label = classify_case_i(POWER_ID, 1.0, (2.0, 0.0), -5.0)
    assert label is CaseLabel.OMEGA2
    res = prox_perspective(POWER_ID, 1.0, (2.0, 0.0), -5.0)
    assert res.label is CaseLabel.OMEGA2
    assert res.eta == 0.0
    assert res.q == 0.0
    assert res.certificate_gap <= 1e-10


def test_prox_examples_from_closed_forms():
    res = prox_perspective(HUBER, 1.0, (3.0, 0.0), 0.0)
    assert res.p == pytest.approx((2.0, 0.0), abs=1e-12)
    assert res.q == 0.0
    assert res.label is CaseLabel.XI2

    res = prox_perspective(HUBER, 1.0, (1.0, 0.0), 0.0)
    assert res.p == pytest.approx((0.5, 0.0), abs=1e-10)
    assert res.q == pytest.approx(0.0, abs=1e-12)
    assert res.eta == pytest.approx(0.375, abs=1e-10)
    assert res.label is CaseLabel.XI4

    res = prox_perspective(ABS_ROOT, 1.0, (2.0, 0.0), 2.0)
    assert res.p == pytest.approx((1.0, 0.0), abs=1e-12)
    assert res.q == 1.0
    assert res.label is CaseLabel.CASE_II


def test_case_ii_examples():
    res = case_ii_prox(ABS_ROOT, 1.0, (0.0, 0.0), 0.5)
    assert res.p == (0.0, 0.0)
    assert res.q == 0.5
    assert res.eta == 0.0
    res = case_ii_prox(ABS_ROOT, 1.0, (0.5, 0.0), -3.0)
    assert res.p == (0.0, 0.0)
    assert res.q == 0.0
    with pytest.raises(ValueError):
        case_ii_prox(HUBER, 1.0, (1.0, 0.0), 0.0)


def test_eta_residual_and_monotonicity_probes():
    pair = POWER_ROOT_FREE
    gamma, x, y = 1.0, (6.0, 0.0), 3.5
    eta, iters = solve_eta_case_i(pair, gamma, x, y)
    T = make_residual_case_i(pair, gamma, x, y)
    assert abs(T(eta)) <= 1e-10
    assert iters <= 200
    # bracket construction probes
    assert T(0.0) <= 0.0
    hi = max(1.0, -T(0.0)) + 1e-12
    assert T(hi) >= 0.0
    # the two composed curves are nonincreasing on a sampled grid
    from persprox.solver import _curves

    _, _, (b_point, b_value), (s_point, s_value) = _curves(pair, gamma, x, y, True)

    def phi2(e):
        return b_value(b_point(e))

    def phi1(mu):
        return s_value(s_point(mu))

    grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
    assert phi2(0.0) < math.inf
    p2 = [phi2(g) for g in grid]
    p1 = [phi1(g) for g in grid]
    assert all(b <= a + 1e-10 for a, b in zip(p2, p2[1:]))
    assert all(b <= a + 1e-10 for a, b in zip(p1, p1[1:]))


def test_eta_unique_across_brackets(rng):
    for pair, solver in ((POWER_ROOT_FREE, solve_eta_case_i), (HUBER, solve_eta_case_iii)):
        for _ in range(25):
            x = rand_vec(rng, 2)
            y = rng.uniform(-3, 3)
            gamma = rng.choice([0.5, 1.0, 2.0])
            label = (
                classify_case_i(pair, gamma, x, y)
                if solver is solve_eta_case_i
                else classify_case_iii(pair, gamma, x, y)
            )
            if label not in (CaseLabel.OMEGA4, CaseLabel.XI4):
                continue
            e1, _ = solver(pair, gamma, x, y)
            make = make_residual_case_i if solver is solve_eta_case_i else make_residual_case_iii
            e2 = eta_on_wider_bracket(make(pair, gamma, x, y), 4.0 + 8.0 * rng.random())
            assert abs(e1 - e2) <= 1e-12 * (1.0 + abs(e1))


def test_power_root_fixed_point_matches_scalar_equations():
    # the multiplier solves eta = (proj_I z)^q with z from the scalar
    # z-equation at weight gamma * rho^{p*}/p*; and the scale output is
    # exactly eta^{1/q}
    from persprox import root_scaling_prox_neg
    from reference import power_prox_conj

    pair = POWER_ROOT_FREE
    res = prox_perspective(pair, 1.0, (6.0, 0.0), 3.5)
    rho = power_prox_conj(2.0, 1.0, res.eta, 6.0)
    z = root_scaling_prox_neg(rho * rho / 2.0, 1.0, 0.5, 3.5)
    assert res.eta == pytest.approx(z ** 0.5, abs=1e-10)
    assert res.q == pytest.approx(res.eta ** 2.0, abs=1e-9)


def test_partition_single_label(rng):
    for pair, classify in (
        (POWER_ROOT_BOUNDED, classify_case_i),
        (POWER_ROOT_FREE, classify_case_i),
        (POWER_ID, classify_case_i),
        (HUBER, classify_case_iii),
    ):
        for _ in range(400):
            x = rand_vec(rng, 2) if rng.random() > 0.2 else (0.0, 0.0)
            y = rng.uniform(-4, 4)
            label = classify(pair, 1.0, x, y)
            assert isinstance(label, CaseLabel)


def test_omega3_output_matches_closed_form(rng):
    # on the third region the multiplier is the scale value at the projected
    # point and the outputs follow the stated closed form
    pair = POWER_ROOT_BOUNDED
    for _ in range(50):
        y = rng.uniform(0.1, 5.0)
        res = prox_perspective(pair, 1.0, (0.0, 0.0), y)
        assert res.label is CaseLabel.OMEGA3
        proj = pair.scaling.prox_env(0.0, y)
        assert res.eta == pair.scaling.eval(proj)
        assert res.q == proj
        assert res.p == (0.0, 0.0)


def test_boundary_perturbation_continuity():
    # classification may flip across the region boundary, but the prox output
    # moves only at the scale of the perturbation
    pair = HUBER
    y = 0.7
    r_boundary = 1.0 * (math.sqrt(1.0 + y * y) + 1.0)
    for eps in (1e-9, 1e-7):
        lo = prox_perspective(pair, 1.0, (r_boundary - eps, 0.0), y)
        hi = prox_perspective(pair, 1.0, (r_boundary + eps, 0.0), y)
        dist = math.hypot(lo.p[0] - hi.p[0], lo.p[1] - hi.p[1], lo.q - hi.q)
        assert dist <= 50.0 * eps


def test_firm_nonexpansiveness_of_full_prox(rng):
    pairs = [HUBER, POWER_ROOT_BOUNDED, ABS_ROOT, POWER_ID]
    for pair in pairs:
        for _ in range(100):
            u, su = rand_vec(rng, 2), rng.uniform(-4, 4)
            v, sv = rand_vec(rng, 2), rng.uniform(-4, 4)
            a = prox_perspective(pair, 1.0, u, su)
            b = prox_perspective(pair, 1.0, v, sv)
            dp = [x - y for x, y in zip(a.p, b.p)] + [a.q - b.q]
            dx = [x - y for x, y in zip(u, v)] + [su - sv]
            lhs = sum(t * t for t in dp)
            rhs = sum(t * s for t, s in zip(dp, dx))
            assert lhs <= rhs + 1e-10


def test_eta_zero_exactly_on_closed_form_regions(rng):
    for _ in range(200):
        x = rand_vec(rng, 2)
        y = rng.uniform(-4, 4)
        res = prox_perspective(HUBER, 1.0, x, y)
        if res.label in (CaseLabel.XI1, CaseLabel.XI2):
            assert res.eta == 0.0
        else:
            assert res.eta > 0.0
        res = prox_perspective(POWER_ID, 1.0, x, y)
        if res.label in (CaseLabel.OMEGA1, CaseLabel.OMEGA2):
            assert res.eta == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        prox_perspective(HUBER, 0.0, (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        prox_perspective(HUBER, -1.0, (1.0, 0.0), 0.0)
    with pytest.raises(DimensionMismatch):
        prox_perspective(HUBER, 1.0, (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        RootConfig(eta_tol=0.0)
    with pytest.raises(ValueError):
        RootConfig(max_iter=0)
    # NaN slipped past a "<= 0" test: classify_tol=inf labelled huber/sqrt at
    # x = (3, 0), y = 0 as Xi1 and NaN as Xi4 (it is Xi2)
    for key in ("eta_tol", "residual_tol"):
        for value in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match=key):
                RootConfig(**{key: value})
    # region tests use the one slack rule of core.negligible; the
    # classification tolerance is no longer a setting
    with pytest.raises(TypeError, match="classify_tol"):
        RootConfig(classify_tol=1e-12)


@pytest.mark.parametrize("gamma, y", [
    (math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan),
])
def test_non_finite_gamma_or_scale_is_rejected(gamma, y):
    for pair in (HUBER, POWER_ROOT_BOUNDED, ABS_ROOT):
        with pytest.raises(ValueError, match="finite"):
            prox_perspective(pair, gamma, (1.0, 0.0), y)


@pytest.mark.parametrize("pair", [
    PerspectivePair(PowerBase(3.0), RootScaling(0.5, 4.0), n=2),
    PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=2),
])
def test_multiplier_search_is_superlinear(pair):
    # bisection to eta_tol would take about 40 evaluations per root
    rng = random.Random(2024)
    iters = []
    for _ in range(200):
        x = tuple(rng.uniform(-4.0, 4.0) for _ in range(2))
        res = prox_perspective(pair, 1.0, x, rng.uniform(-4.0, 4.0))
        if res.label in (CaseLabel.OMEGA4, CaseLabel.XI4):
            iters.append(res.root_iterations)
    assert len(iters) > 100
    assert max(iters) <= 12


def test_root_region_at_float_resolution_is_certified():
    # eta is about 5e7, where one ulp exceeds eta_tol = 1e-12
    pair = PerspectivePair(HuberBase(1e4), SqrtScaling(1.0), n=2)
    x, y = (-0.5052512307920287, -0.5867986318407988), 0.18993191320550248
    res = prox_perspective(pair, 133.42882630475916, x, y)
    assert res.label is CaseLabel.XI4
    assert res.certificate_gap <= 1e-8 * (1.0 + sum(c * c for c in x) + y * y)


def test_wide_multiplier_bracket_converges():
    # T(0) is about -1e67 while the root is near 1e-3: Brent on the bracket
    # [0, -T(0)] only bisects, so the search narrows it in log space first
    pair = PerspectivePair(PowerBase(1.05), RootScaling(0.5), n=2)
    x, y = (22006.724533872693, -62532.52918439194), -45281.95959480737
    res = prox_perspective(pair, 8.262494585872198e-06, x, y)
    assert res.label is CaseLabel.OMEGA4
    assert res.eta == pytest.approx(8.45e-4, rel=1e-3)
    assert res.root_iterations <= 25
    assert res.certificate_gap <= 1e-8 * (1.0 + sum(c * c for c in x) + y * y)


# ids spelled out: the two names are one function, which pytest would name alike
@pytest.mark.parametrize("pair, classify", [
    (POWER_ROOT_BOUNDED, classify_case_i),
    (POWER_ROOT_FREE, classify_case_i),
    (POWER_ID, classify_case_i),
    (HUBER, classify_case_iii),
], ids=["pair0-classify_case_i", "pair1-classify_case_i", "pair2-classify_case_i",
        "pair3-classify_case_iii"])
def test_classification_is_the_label_of_the_prox(pair, classify):
    rng = random.Random(77)
    for k in range(2000):
        if k % 2:
            gamma, size = 1.0, 4.0
        else:
            gamma, size = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-6.0, 6.0)
        x = tuple(size * rng.uniform(-1.0, 1.0) for _ in range(2))
        y = size * rng.uniform(-1.0, 1.0)
        assert classify(pair, gamma, x, y) is prox_perspective(pair, gamma, x, y).label, (gamma, x, y)


@pytest.mark.parametrize("pair, x, y, label", [
    (ABS_ROOT, (2.0, 0.0), 2.0, CaseLabel.CASE_II),
    (HUBER, (3.0, 0.0), 0.0, CaseLabel.XI2),
    (POWER_ID, (2.0, 0.0), -5.0, CaseLabel.OMEGA2),
    (POWER_ROOT_BOUNDED, (0.0, 0.0), 2.0, CaseLabel.OMEGA3),
    (HUBER, (1.0, 0.0), 0.0, CaseLabel.XI4),
    (POWER_ROOT_FREE, (6.0, 0.0), 3.5, CaseLabel.OMEGA4),
    (POWER_ROOT_BOUNDED, (0.0, 0.0), -1.0, CaseLabel.OMEGA1),
])
def test_prox_validates_its_input_once(monkeypatch, pair, x, y, label):
    # the entry's check only: the certificate and, in the root region, the
    # residual work on the point that check returned
    calls = []
    check = PerspectivePair.check_point

    def counted(self, *args):
        calls.append(args)
        return check(self, *args)

    monkeypatch.setattr(PerspectivePair, "check_point", counted)
    assert prox_perspective(pair, 1.0, x, y).label is label
    assert len(calls) == 1


@pytest.mark.parametrize("pair, x, y, label", [
    (POWER_ROOT_FREE, (6.0, 0.0), 3.5, CaseLabel.OMEGA4),
    (HUBER, (1.0, 0.0), 0.0, CaseLabel.XI4),
    (POWER_ROOT_BOUNDED, (0.0, 0.0), -1.0, CaseLabel.OMEGA1),
    (POWER_ID, (2.0, 0.0), -5.0, CaseLabel.OMEGA2),
    (POWER_ROOT_BOUNDED, (0.0, 0.0), 2.0, CaseLabel.OMEGA3),
    (HUBER, (3.0, 0.0), 0.0, CaseLabel.XI2),
    (ABS_ROOT, (2.0, 0.0), 2.0, CaseLabel.CASE_II),
])
def test_root_region_reaches_the_public_multiplier_names(monkeypatch, pair, x, y, label):
    # the root region goes through the module globals solve_eta_case_* and,
    # from there, make_residual_case_*, once each; closed forms call neither
    import persprox.solver as solver

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for case in ("i", "iii"):
        for stem in ("solve_eta_case_", "make_residual_case_"):
            name = stem + case
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    assert prox_perspective(pair, 1.0, x, y).label is label
    case = {CaseLabel.OMEGA4: "i", CaseLabel.XI4: "iii"}.get(label)
    expected = [] if case is None else ["solve_eta_case_" + case, "make_residual_case_" + case]
    assert calls == expected


@pytest.mark.parametrize("pair", [
    PerspectivePair(PowerBase(3.0), RootScaling(0.5), n=2),
    PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=2),
], ids=["power-root", "huber-sqrt"])
@pytest.mark.parametrize("gamma, x", [
    (1e-10, (1e300, 1.0)),
    (1e-200, (1e200, 0.0)),
])
def test_overflowing_scaled_input_is_rejected(pair, gamma, x):
    # x/gamma overflows to inf; the contract methods' own vector check turns
    # it into ValueError before any arithmetic runs on it
    with pytest.raises(ValueError, match="finite"):
        prox_perspective(pair, gamma, x, 1.0)


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="PowerBase.conj_eval overflows ||x*||**p* / p* at p* ~ 1000")
def test_power_near_one_gives_a_certified_prox_on_the_band():
    # the README admits any finite p > 1, but at p = 1.001 the conjugate
    # exponent is 1001, and 7 of these 8 band points raise OverflowError
    # from conj_eval (the other lands in Omega4, certified)
    pair = PerspectivePair(PowerBase(1.001), RootScaling(0.5), n=2)
    rng = random.Random(0)
    for _ in range(8):
        x = (rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        y = rng.uniform(-4.0, 4.0)
        res = prox_perspective(pair, 1.0, x, y)
        assert res.certificate_gap <= 1e-8 * (1.0 + x[0] ** 2 + x[1] ** 2 + y * y)


def test_huge_multiplier_bracket_does_not_divide_by_zero():
    # eta = 1e300 makes the conjugate prox weight so large that its root is
    # below the smallest double; the scalar solver used to raise
    # ZeroDivisionError there instead of returning 0
    pair = PerspectivePair(PowerBase(3.0), RootScaling(0.5), n=2)
    eta = eta_on_wider_bracket(make_residual_case_i(pair, 1.0, (6.0, 0.0), 3.5), 1e300)
    res = prox_perspective(pair, 1.0, (6.0, 0.0), 3.5)
    assert eta == pytest.approx(res.eta, rel=1e-9)


def _root_band_inputs(count):
    """The first ``count`` seed-0 inputs of the benchmark's root_band pool."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    pairs, calls = workloads.setup("root_band", 0)
    return [(pairs[c.pair], workloads.cli_spec("root_band", c.pair), c) for c in calls[:count]]


def test_root_region_runs_on_radii(monkeypatch):
    # the search and its assembly work on the conjugate profile at
    # r = ||x/gamma||: no vector base-contract call before the certificate,
    # and every curve point of the search record is a float
    import persprox.solver as solver
    events = []
    for cls in (PowerBase, HuberBase):
        for name in ("prox_conj", "conj_eval", "proj_dom_conj"):
            def spy(self, *args, method=getattr(cls, name), name=name):
                events.append(name)
                return method(self, *args)

            monkeypatch.setattr(cls, name, spy)
    certify = solver.certificate_gap

    def certificate(*args):
        events.append("certificate")
        return certify(*args)

    monkeypatch.setattr(solver, "certificate_gap", certificate)
    records = []
    for name in ("solve_eta_case_i", "solve_eta_case_iii"):
        def search(*args, solve=getattr(solver, name), record=None, **kwargs):
            records.append(record)
            return solve(*args, record=record, **kwargs)

        monkeypatch.setattr(solver, name, search)
    labels = set()
    for pair, _, call in _root_band_inputs(100):
        events.clear()
        records.clear()
        res = prox_perspective(pair, call.gamma, call.x, call.y)
        if res.label not in (CaseLabel.OMEGA4, CaseLabel.XI4):
            continue
        labels.add(res.label)
        assert events[0] == "certificate", events
        (record,) = records
        assert record.points
        for eta, entry in record.points.items():
            assert type(eta) is float and [type(v) for v in entry] == [float] * 4, entry
    assert labels == {CaseLabel.OMEGA4, CaseLabel.XI4}


def test_multiplier_search_on_root_band_inputs(monkeypatch):
    # Newton steps from the exact slopes, the [0, -T(0)] bracket that is
    # never evaluated at its upper end, and the |T| stop rule (Brent without
    # them, plus a probe of T(hi), averaged 5.7 evaluations here, 7 at most)
    import persprox.solver as solver
    from persprox.cli import main
    count = [0]
    for name in ("make_residual_case_i", "make_residual_case_iii"):
        make = getattr(solver, name)

        def counted(*args, make=make, **kwargs):
            T = make(*args, **kwargs)

            def counted_T(eta):
                count[0] += 1
                return T(eta)

            return counted_T

        monkeypatch.setattr(solver, name, counted)
    evals = []
    for pair, spec, call in _root_band_inputs(200):
        count[0] = 0
        res = prox_perspective(pair, call.gamma, call.x, call.y)
        if res.label not in (CaseLabel.OMEGA4, CaseLabel.XI4):
            assert count[0] == 0
            continue
        evals.append(count[0])
        # the pass hands T(0) over, so every evaluation is one of the search's
        assert count[0] == res.root_iterations
        # the same root as a bisection run to float resolution; the search
        # stops at |T| <= 5e-13, and T' >= 1
        make = make_residual_case_i if res.label is CaseLabel.OMEGA4 else make_residual_case_iii
        T = make(pair, call.gamma, call.x, call.y)
        ref = bisect_root(T, 0.0, -T(0.0))
        assert abs(res.eta - ref) <= 1e-12 * (1.0 + ref), (call, res.eta, ref)
        # trace-root prints one row per evaluation
        out = io.StringIO()
        point = json.dumps({"x": list(call.x), "y": call.y})
        with contextlib.redirect_stdout(out):
            assert main(["trace-root", "--spec", json.dumps(spec), "--point", point]) == 0
        assert len(out.getvalue().splitlines()) == 1 + res.root_iterations
    assert len(evals) > 150
    assert sum(evals) / len(evals) <= 4.0
    assert max(evals) <= 5
