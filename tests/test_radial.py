import math
import random

import pytest

from persprox import PowerScalar, RadialFunction, radial_prox
from conftest import rand_vec
from reference import AbsScalar, HuberScalar, radial_prox_value


def test_radial_abs_soft_threshold():
    phi = RadialFunction(AbsScalar())
    # scalar prox at ||x|| = 5 with weight 1 is 4; direction (3,4)/5
    assert radial_prox(phi, 1.0, (3.0, 4.0)) == pytest.approx((2.4, 3.2), abs=1e-12)
    assert radial_prox_value(phi, 1.0, (3.0, 4.0)) == pytest.approx(4.0, abs=1e-12)


def test_radial_zero_input():
    phi = RadialFunction(PowerScalar(3.0))
    assert radial_prox(phi, 2.0, (0.0, 0.0)) == (0.0, 0.0)
    assert radial_prox_value(phi, 2.0, (0.0,)) == 0.0


def test_radial_quadratic_shrink():
    phi = RadialFunction(PowerScalar(2.0))
    assert radial_prox(phi, 1.0, (2.0, 0.0)) == pytest.approx((1.0, 0.0), abs=1e-12)
    # weight 3 at ||x|| = 8: prox 8/4 = 2, value 0.5 * 4 = 2
    assert radial_prox_value(phi, 3.0, (8.0, 0.0)) == pytest.approx(2.0, abs=1e-12)


def test_radial_prox_weight_zero_projects_and_negative_weight_raises():
    class UnitIntervalQuadratic:
        # t**2 on [-1, 1], with a prox defined for positive weights only
        def eval(self, t):
            return t * t if abs(t) <= 1.0 else math.inf

        def prox(self, gamma, t):
            if not gamma > 0.0:
                raise AssertionError("weight 0 must take the projection")
            return min(max(t / (1.0 + 2.0 * gamma), -1.0), 1.0)

        def proj_cl_dom(self, t):
            return min(max(t, -1.0), 1.0)

    phi = RadialFunction(UnitIntervalQuadratic())
    assert radial_prox(phi, 0.0, (3.0, 4.0)) == pytest.approx((0.6, 0.8), abs=1e-15)
    assert radial_prox(phi, 0.0, (0.3, 0.4)) == pytest.approx((0.3, 0.4), abs=1e-15)
    assert radial_prox(phi, 1.0, (3.0, 4.0)) == pytest.approx((0.6, 0.8), abs=1e-15)
    for x in ((3.0, 4.0), (0.0, 0.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            radial_prox(phi, -0.5, x)


def test_direction_preserved(rng):
    phi = RadialFunction(HuberScalar(1.0))
    for _ in range(100):
        x = rand_vec(rng, 3)
        if math.hypot(*x) < 1e-12:
            continue
        out = radial_prox(phi, 0.7, x)
        r_in, r_out = math.hypot(*x), math.hypot(*out)
        for xi, oi in zip(x, out):
            assert abs(oi * r_in - xi * r_out) <= 1e-9 * (1.0 + r_in)


def test_value_consistency(rng):
    for scalar in (AbsScalar(), PowerScalar(2.5), HuberScalar(0.8)):
        phi = RadialFunction(scalar)
        for _ in range(50):
            x = rand_vec(rng, 2)
            gamma = rng.choice([0.0, 0.4, 1.7])
            out = radial_prox(phi, gamma, x)
            assert phi.phi1d.eval(math.hypot(*out)) == pytest.approx(
                radial_prox_value(phi, gamma, x), abs=1e-10
            )


def test_rotation_like_equivariance(rng):
    phi = RadialFunction(PowerScalar(3.0))
    for _ in range(100):
        x = rand_vec(rng, 3)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        signs = [rng.choice([-1.0, 1.0]) for _ in range(3)]
        rx = tuple(signs[i] * x[perm[i]] for i in range(3))
        n1 = math.hypot(*radial_prox(phi, 1.3, x))
        n2 = math.hypot(*radial_prox(phi, 1.3, rx))
        assert n1 == pytest.approx(n2, abs=1e-12)


def test_rejects_uneven_scalar():
    class Shifted:
        def eval(self, t):
            return (t - 1.0) ** 2

        def prox(self, gamma, t):
            return (t + 2 * gamma) / (1 + 2 * gamma)

        def proj_cl_dom(self, t):
            return t

    with pytest.raises(ValueError):
        RadialFunction(Shifted())
