"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in
failure reports).  Shared solver-vs-oracle results are computed once per
session and reused by the root-finder contract check.
"""

import math
import random
import time
import zlib

import pytest

from persprox import (
    AbsBase,
    CaseLabel,
    DemoSpec,
    HuberBase,
    IdentityScaling,
    PerspectivePair,
    PowerBase,
    RootScaling,
    SqrtScaling,
    classify_case_i,
    classify_case_iii,
    perspective_eval,
    prox_perspective,
    run_concomitant_demo,
    sqrt_scaling_prox,
)
from conftest import eta_on_wider_bracket
from reference import (
    AbsScalar,
    ConjugateProvider,
    EnvelopeProvider,
    HuberConjScalar,
    HuberScalar,
    IntervalIndicator,
    PowerScalar,
    PrimalProvider,
    SupportInterval,
    brute_force_prox,
    multiplier_residual,
    prox_primal,
    scaled_prox,
)

INF = math.inf

POWER_ROOT = PerspectivePair(PowerBase(2.0), RootScaling(0.5, 4.0), n=1)
HUBER_SQRT = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=1)
ABS_ROOT = PerspectivePair(AbsBase(), RootScaling(0.5, 1.0), n=1)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _with_dim(pair: PerspectivePair, n: int) -> PerspectivePair:
    return PerspectivePair(pair.base, pair.scaling, n)


def _timed_prox(pair, gamma, x, y, repeats=7):
    best = INF
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = prox_perspective(pair, gamma, x, y)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_closed_form_reproduction():
    pair = _with_dim(HUBER_SQRT, 2)
    prox_perspective(pair, 1.0, (3.0, 0.0), 0.0)  # warm-up

    res1, t1 = _timed_prox(pair, 1.0, (3.0, 0.0), 0.0)
    ok1 = (
        math.hypot(res1.p[0] - 2.0, res1.p[1], res1.q) <= 1e-10
        and res1.label is CaseLabel.XI2
    )
    res2, t2 = _timed_prox(pair, 1.0, (1.0, 0.0), 0.0)
    ok2 = (
        math.hypot(res2.p[0] - 0.5, res2.p[1], res2.q) <= 1e-8
        and abs(res2.eta - 0.375) <= 1e-8
    )
    ok_time = t1 < 1e-3 and t2 < 1e-3
    report(
        1,
        ok1 and ok2 and ok_time,
        f"outer branch {res1.label.value}, inner eta={res2.eta!r}, "
        f"times {t1 * 1e3:.3f}/{t2 * 1e3:.3f} ms",
    )


def test_criterion_2_partition_claims():
    t0 = time.perf_counter()
    rng = random.Random(530)
    counts = {}
    for variant in (RootScaling(0.5, 1.0), RootScaling(0.5)):
        pair = PerspectivePair(PowerBase(2.0), variant, n=2)
        for k in range(5000):
            if k % 3 == 0:
                x = (0.0, 0.0)
            else:
                x = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            y = rng.uniform(-5, 5)
            label = classify_case_i(pair, 1.0, x, y)
            counts[label] = counts.get(label, 0) + 1
            assert label is not CaseLabel.OMEGA2, (x, y)
            if x == (0.0, 0.0):
                expected = CaseLabel.OMEGA1 if y <= 0.0 else CaseLabel.OMEGA3
                assert label is expected, (x, y, label)
            else:
                assert label is CaseLabel.OMEGA4, (x, y, label)
    pair = _with_dim(HUBER_SQRT, 2)
    for k in range(10000):
        x = (0.0, 0.0) if k % 7 == 0 else (rng.uniform(-4, 4), rng.uniform(-4, 4))
        y = rng.uniform(-5, 5)
        label = classify_case_iii(pair, 1.0, x, y)
        counts[label] = counts.get(label, 0) + 1
        assert label not in (CaseLabel.XI1, CaseLabel.XI3), (x, y, label)
    elapsed = time.perf_counter() - t0
    summary = {k.value: v for k, v in sorted(counts.items(), key=lambda kv: kv[0].value)}
    report(2, elapsed < 5.0, f"20000 inputs in {elapsed:.2f} s, labels {summary}")


@pytest.fixture(scope="module")
def oracle_runs():
    """Solver vs brute-force oracle on 200 seeds per catalog pair."""
    runs = {}
    total_elapsed = 0.0
    for name, pair_proto, gamma in (
        ("power/root", POWER_ROOT, 1.0),
        ("huber/sqrt", HUBER_SQRT, 1.0),
        ("abs/root", ABS_ROOT, 1.0),
    ):
        rng = random.Random(zlib.crc32(name.encode()))
        rows = []
        t0 = time.perf_counter()
        for seed in range(200):
            n = 1 + seed % 3
            pair = _with_dim(pair_proto, n)
            x = tuple(rng.uniform(-4, 4) for _ in range(n))
            y = rng.uniform(-4, 4)
            res = prox_perspective(pair, gamma, x, y)
            op, oq = brute_force_prox(
                lambda u, v: perspective_eval(pair, u, v), gamma, x, y
            )
            dev = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(res.p, op)) + (res.q - oq) ** 2
            )
            rows.append((pair, gamma, x, y, res, dev))
        total_elapsed += time.perf_counter() - t0
        runs[name] = rows
    runs["elapsed"] = total_elapsed
    return runs


def test_criterion_3_oracle_equivalence(oracle_runs):
    worst_dev = 0.0
    worst_gap_ratio = 0.0
    for name in ("power/root", "huber/sqrt", "abs/root"):
        for pair, gamma, x, y, res, dev in oracle_runs[name]:
            worst_dev = max(worst_dev, dev)
            input_sq = sum(c * c for c in x) + y * y
            worst_gap_ratio = max(
                worst_gap_ratio, res.certificate_gap / (1e-8 * (1.0 + input_sq))
            )
    elapsed = oracle_runs["elapsed"]
    ok = worst_dev <= 5e-4 and worst_gap_ratio <= 1.0 and elapsed < 60.0
    report(
        3,
        ok,
        f"600 runs: max deviation {worst_dev:.2e}, worst gap ratio "
        f"{worst_gap_ratio:.2e}, oracle time {elapsed:.1f} s",
    )


def test_criterion_4_root_finder_contract(oracle_runs):
    checked = 0
    worst_residual = 0.0
    worst_gap = 0.0
    max_iters = 0
    for name in ("power/root", "huber/sqrt"):
        for pair, gamma, x, y, res, _ in oracle_runs[name]:
            if res.label not in (CaseLabel.OMEGA4, CaseLabel.XI4):
                continue
            checked += 1
            max_iters = max(max_iters, res.root_iterations)
            T = multiplier_residual(pair, gamma, x, y)
            worst_residual = max(worst_residual, abs(T(res.eta)))
            worst_gap = max(worst_gap, abs(res.eta - eta_on_wider_bracket(T, 3.7)))
    ok = (
        checked > 0
        and worst_residual <= 1e-10
        and max_iters <= 200
        and worst_gap <= 1e-12
    )
    report(
        4,
        ok,
        f"{checked} root-region inputs: residual {worst_residual:.2e}, "
        f"iterations <= {max_iters}, bracket agreement {worst_gap:.2e}",
    )


def test_criterion_5_moreau_identity():
    # the package's conjugate prox against the reference primal prox
    rng = random.Random(31)
    worst = 0.0
    for base in (PowerBase(2.0), PowerBase(3.0), HuberBase(1.0)):
        for _ in range(1000):
            gamma = 10.0 ** rng.uniform(-2, 2)
            x = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            p = prox_primal(base, gamma, x)
            d = base.prox_conj(1.0 / gamma, tuple(c / gamma for c in x))
            err = math.sqrt(
                sum((xi - (pi + gamma * di)) ** 2 for xi, pi, di in zip(x, p, d))
            )
            worst = max(worst, err / (1.0 + math.hypot(*x)))
    report(5, worst <= 1e-10, f"3000 splits, worst relative error {worst:.2e}")


def test_criterion_6_monotone_value_curve():
    rng = random.Random(42)
    functions = [
        PowerScalar(2.0),
        PowerScalar(3.0),
        PowerScalar(1.5),
        AbsScalar(),
        IntervalIndicator(-1.0, 1.0),
        SupportInterval(-1.0, 1.0),
        HuberScalar(1.0),
        HuberConjScalar(1.0),
        EnvelopeProvider(RootScaling(0.5, 1.0)),
        EnvelopeProvider(RootScaling(0.3)),
        EnvelopeProvider(SqrtScaling(1.0)),
        EnvelopeProvider(IdentityScaling()),
        PrimalProvider(PowerBase(2.0)),
        PrimalProvider(HuberBase(1.0)),
        PrimalProvider(AbsBase()),
        ConjugateProvider(HuberBase(1.0)),
    ]
    weights = [0.0] + [10.0 ** (-3.0 + 5.0 * k / 48.0) for k in range(49)]
    checked = 0
    for f in functions:
        vector = isinstance(f, (PrimalProvider, ConjugateProvider))
        for _ in range(100):
            x = (
                (rng.uniform(-5, 5), rng.uniform(-5, 5))
                if vector
                else rng.uniform(-5, 5)
            )
            proxes = [scaled_prox(f, g, x) for g in weights]
            values = [f.eval(p) for p in proxes]
            for (mu, pm, vm), (ga, pg, vg) in zip(
                zip(weights, proxes, values),
                zip(weights[1:], proxes[1:], values[1:]),
            ):
                if vm == INF:
                    continue
                checked += 1
                assert vg <= vm + 1e-8
                if vector:
                    gap_sq = sum((a - b) ** 2 for a, b in zip(pm, pg))
                else:
                    gap_sq = (pm - pg) ** 2
                assert vg <= vm - gap_sq / (ga - mu) + 1e-8
    report(6, True, f"{checked} consecutive-weight drop bounds held")


def test_criterion_7_firm_nonexpansiveness():
    rng = random.Random(7)
    worst = -INF
    for pair_proto in (POWER_ROOT, HUBER_SQRT, ABS_ROOT):
        pair = _with_dim(pair_proto, 2)
        for _ in range(1000):
            u = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            su = rng.uniform(-4, 4)
            v = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            sv = rng.uniform(-4, 4)
            a = prox_perspective(pair, 1.0, u, su)
            b = prox_perspective(pair, 1.0, v, sv)
            dp = [x - y for x, y in zip(a.p, b.p)] + [a.q - b.q]
            dx = [x - y for x, y in zip(u, v)] + [su - sv]
            lhs = sum(t * t for t in dp)
            rhs = sum(t * s for t, s in zip(dp, dx))
            worst = max(worst, lhs - rhs)
            assert lhs <= rhs + 1e-10
    report(7, True, f"3000 input pairs, worst defect {worst:.2e}")


def test_criterion_8_quartic_solver():
    rng = random.Random(88)
    worst_quartic = 0.0
    worst_stat = 0.0
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-1, 1)
        mu = rng.uniform(0.0, 10.0)
        y = rng.uniform(-10.0, 10.0)
        r = sqrt_scaling_prox(beta, mu, y)
        lo, hi = (0.0, y) if y >= 0 else (y, 0.0)
        assert lo <= r <= hi
        quartic = (
            r ** 4
            - 2.0 * y * r ** 3
            + (y * y + beta - mu * mu) * r * r
            - 2.0 * beta * y * r
            + beta * y * y
        )
        stat = r - y + (mu * r / math.sqrt(beta + r * r) if mu > 0 else 0.0)
        worst_quartic = max(worst_quartic, abs(quartic))
        worst_stat = max(worst_stat, abs(stat))
    ok = worst_quartic <= 1e-9 and worst_stat <= 1e-10
    report(
        8,
        ok,
        f"1000 draws: quartic residual {worst_quartic:.2e}, "
        f"stationarity {worst_stat:.2e}",
    )


def test_criterion_9_demo_solver():
    pair = _with_dim(HUBER_SQRT, 2)
    spec = DemoSpec(
        a_matrix=((1.0, 0.0), (0.0, 1.0)), b=(1.0, 1.0),
        y0=1.0, kappa=1.0, tau=0.5, iterations=500,
    )
    t0 = time.perf_counter()
    trace = run_concomitant_demo(pair, spec)
    elapsed = time.perf_counter() - t0
    objs = [row[1] for row in trace.rows]
    steps = [row[2] for row in trace.rows]
    monotone = all(b <= a + 1e-9 for a, b in zip(objs[1:], objs[2:]))
    ok = steps[-1] <= 1e-6 and monotone and elapsed < 2.0
    report(
        9,
        ok,
        f"step_norm(500) = {steps[-1]:.2e}, monotone={monotone}, "
        f"{elapsed:.2f} s",
    )
