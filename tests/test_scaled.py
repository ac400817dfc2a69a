"""The reference scaled prox family, its Moreau split and certificates, on
the reference scalars and the package's bases and scaling envelopes."""

import math
import random

import pytest

from persprox import (
    INF,
    HuberBase,
    IdentityScaling,
    PowerBase,
    RootScaling,
    SqrtScaling,
)
from conftest import grid_prox_1d, rand_vec
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
    moreau_decompose,
    prox_characterization_gap,
    prox_primal,
    prox_value_curve,
    scaled_prox,
)

SCALARS = [
    PowerScalar(2.0),
    PowerScalar(3.0),
    PowerScalar(1.5),
    AbsScalar(),
    IntervalIndicator(-1.0, 1.0),
    SupportInterval(-1.0, 1.0),
    HuberScalar(1.0),
    HuberConjScalar(1.0),
]

ENVELOPES = [
    EnvelopeProvider(RootScaling(0.5, 1.0)),
    EnvelopeProvider(RootScaling(0.3)),
    EnvelopeProvider(SqrtScaling(1.0)),
    EnvelopeProvider(IdentityScaling()),
    EnvelopeProvider(IdentityScaling(4.0)),
]


def test_scaled_prox_zero_weight_is_projection():
    assert scaled_prox(AbsScalar(), 0.0, 5.0) == 5.0
    assert scaled_prox(IntervalIndicator(-1.0, 1.0), 0.0, 3.0) == 1.0


def test_scaled_prox_soft_threshold_vs_oracle():
    # oracle: minimize |u| + 0.5*(2-u)^2 on a grid; value-based minimization
    # resolves the argmin only to ~sqrt(eps)
    oracle = grid_prox_1d(AbsScalar().eval, 1.0, 2.0, -5.0, 5.0)
    assert abs(oracle - 1.0) <= 1e-6
    assert scaled_prox(AbsScalar(), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_scaled_prox_indicator_ignores_weight():
    assert scaled_prox(IntervalIndicator(-1.0, 1.0), 2.0, 3.0) == 1.0


def test_scaled_prox_rejects_negative_weight():
    with pytest.raises(ValueError):
        scaled_prox(AbsScalar(), -0.5, 1.0)


def test_moreau_decompose_quadratic():
    p, d = moreau_decompose(PowerScalar(2.0), 1.0, 4.0)
    assert p == pytest.approx(2.0, abs=1e-12)
    assert d == pytest.approx(2.0, abs=1e-12)
    assert p + 1.0 * d == pytest.approx(4.0, abs=1e-12)


def test_moreau_decompose_abs():
    p, d = moreau_decompose(AbsScalar(), 1.0, 2.0)
    assert (p, d) == (1.0, 1.0)
    p, d = moreau_decompose(AbsScalar(), 1.0, 0.5)
    assert (p, d) == (0.0, 0.5)


def test_moreau_decompose_requires_conjugate():
    class NoConj:
        def eval(self, t):
            return t * t

        def prox(self, gamma, t):
            return t / (1.0 + gamma)

    with pytest.raises(ValueError):
        moreau_decompose(NoConj(), 1.0, 1.0)


def test_moreau_identity_random(rng):
    for f in SCALARS:
        for _ in range(100):
            gamma = 10.0 ** rng.uniform(-2, 2)
            x = rng.uniform(-8, 8)
            p, d = moreau_decompose(f, gamma, x)
            assert abs(x - (p + gamma * d)) <= 1e-10 * (1.0 + abs(x))


def test_characterization_gap_quadratic():
    quad = PowerScalar(2.0)
    assert prox_characterization_gap(quad, 1.0, 4.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    # at the non-prox point p = 3 the residual is 0.5*9 + 0.5*1 - 3 = 2,
    # matching the grid conjugate oracle for the self-dual quadratic
    gap = prox_characterization_gap(quad, 1.0, 4.0, 3.0)
    assert gap == pytest.approx(2.0, abs=1e-10)


def test_characterization_gap_soft_threshold():
    assert prox_characterization_gap(AbsScalar(), 1.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_characterization_gap_fallback_lower_bound():
    class OpaqueQuad:
        def eval(self, t):
            return 0.5 * t * t

        def prox(self, gamma, t):
            return t / (1.0 + gamma)

    probes = [k * 0.25 - 5.0 for k in range(41)]
    good = prox_characterization_gap(OpaqueQuad(), 1.0, 4.0, 2.0, probes=probes)
    bad = prox_characterization_gap(OpaqueQuad(), 1.0, 4.0, 3.0, probes=probes)
    assert 0.0 <= good <= 1e-9
    assert bad > 0.5  # strictly positive certificate of non-optimality


def test_value_curve_examples():
    quad = PowerScalar(2.0)
    assert prox_value_curve(quad, 4.0, [0.0, 1.0, 3.0]) == pytest.approx([8.0, 2.0, 0.5])
    assert prox_value_curve(AbsScalar(), 2.0, [0.0, 1.0, 2.0, 3.0]) == pytest.approx([2.0, 1.0, 0.0, 0.0])
    curve = prox_value_curve(IntervalIndicator(-1.0, 1.0), 5.0, [0.0, 1.0, 7.0])
    assert curve == [0.0, 0.0, 0.0]


def test_value_curve_rejects_unsorted():
    with pytest.raises(ValueError):
        prox_value_curve(PowerScalar(2.0), 1.0, [1.0, 0.5])


def _firmly_nonexpansive(f, gamma, u, v):
    pu = scaled_prox(f, gamma, u)
    pv = scaled_prox(f, gamma, v)
    return (pu - pv) ** 2 <= (pu - pv) * (u - v) + 1e-10


def test_firm_nonexpansiveness_scalars(rng):
    for f in SCALARS + ENVELOPES:
        for _ in range(150):
            gamma = rng.choice([0.0, 0.1, 1.0, 7.5])
            u, v = rng.uniform(-8, 8), rng.uniform(-8, 8)
            assert _firmly_nonexpansive(f, gamma, u, v)


def test_range_inclusion(rng):
    for f in SCALARS + ENVELOPES:
        for _ in range(100):
            gamma = rng.choice([0.0, 0.5, 2.0])
            x = rng.uniform(-8, 8)
            out = scaled_prox(f, gamma, x)
            assert abs(out - scaled_prox(f, 0.0, out)) <= 1e-9 * (1.0 + abs(out))


def test_monotone_value_curve_with_drop_bound(rng):
    weights = [0.0] + [10.0 ** (-3 + 5 * k / 49) for k in range(50)]
    for f in SCALARS + ENVELOPES:
        for _ in range(20):
            x = rng.uniform(-6, 6)
            proxes = [scaled_prox(f, g, x) for g in weights]
            values = [f.eval(p) for p in proxes]
            for (mu, pm, vm), (ga, pg, vg) in zip(
                zip(weights, proxes, values), zip(weights[1:], proxes[1:], values[1:])
            ):
                if vm == INF:
                    continue
                assert vg <= vm + 1e-8
                assert vg <= vm - (pm - pg) ** 2 / (ga - mu) + 1e-8


def test_provider_adapters_roundtrip(rng):
    base = PowerBase(2.0)
    primal = PrimalProvider(base)
    conj = ConjugateProvider(base)
    for _ in range(50):
        gamma = 10.0 ** rng.uniform(-1, 1)
        x = rand_vec(rng, 2)
        p, d = moreau_decompose(primal, gamma, x)
        recombined = tuple(a + gamma * b for a, b in zip(p, d))
        assert all(abs(a - b) <= 1e-10 * (1 + abs(a)) for a, b in zip(recombined, x))
        # conjugate provider inverts roles
        p2, d2 = moreau_decompose(conj, gamma, x)
        recombined2 = tuple(a + gamma * b for a, b in zip(p2, d2))
        assert all(abs(a - b) <= 1e-10 * (1 + abs(a)) for a, b in zip(recombined2, x))


def test_vector_moreau_for_power_and_huber(rng):
    for base in (PowerBase(2.0), PowerBase(3.0), HuberBase(1.0)):
        for _ in range(100):
            gamma = 10.0 ** rng.uniform(-2, 2)
            x = rand_vec(rng, 2, -6.0, 6.0)
            p = prox_primal(base, gamma, x)
            d = base.prox_conj(1.0 / gamma, tuple(c / gamma for c in x))
            err = math.sqrt(sum((xi - (pi + gamma * di)) ** 2 for xi, pi, di in zip(x, p, d)))
            assert err <= 1e-10 * (1.0 + math.hypot(*x))


def test_random_scalar_prox_vs_grid_oracle(rng):
    # every catalog prox ingredient against the brute-force scalar oracle
    targets = [
        PowerScalar(2.0), PowerScalar(3.0), PowerScalar(1.5),
        AbsScalar(), IntervalIndicator(-1.0, 1.0), SupportInterval(-1.0, 1.0),
        HuberScalar(1.0), HuberConjScalar(1.0),
        EnvelopeProvider(RootScaling(0.5, 2.0)),
        EnvelopeProvider(SqrtScaling(1.0)),
        EnvelopeProvider(IdentityScaling(4.0)),
    ]
    for f in targets:
        for _ in range(91):
            gamma = rng.choice([0.3, 1.0, 2.5])
            x = rng.uniform(-4, 4)
            got = scaled_prox(f, gamma, x)
            want = grid_prox_1d(f.eval, gamma, x, -8.0, 8.0)
            assert abs(got - want) <= 1e-6
