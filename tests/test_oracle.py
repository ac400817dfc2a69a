import math
import subprocess
import sys
from pathlib import Path

import pytest

from persprox import (
    AbsBase,
    HuberBase,
    PerspectivePair,
    RootScaling,
    SqrtScaling,
    perspective_eval,
    prox_fenchel_gap,
    prox_perspective,
)
from reference import (
    OracleConfig,
    OracleError,
    brute_force_prox,
    case_ii_prox,
    golden_min_anchored,
)

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

HUBER = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=2)
ABS_ROOT = PerspectivePair(AbsBase(), RootScaling(0.5, 1.0), n=2)


def test_quadratic_sanity():
    # gamma = 1 with 0.5*||(u, v)||^2 halves the input; x < 0 at n = 1 takes
    # the signed ray, x = 0 at n = 3 the first unit vector
    def quad(u, v):
        return 0.5 * (sum(c * c for c in u) + v * v)

    for x, y in (((2.0, -1.0), 3.0), ((-3.0,), 1.0), ((0.0, 0.0, 0.0), -2.0)):
        p, q = brute_force_prox(quad, 1.0, x, y)
        assert p == pytest.approx(tuple(0.5 * c for c in x), abs=1e-4)
        assert q == pytest.approx(0.5 * y, abs=1e-4)


def test_point_indicator():
    # the singleton must be visible to the coarse grid; the grid always
    # contains the box center
    def pin(u, v):
        inside = all(abs(c) <= 1e-12 for c in u) and abs(v) <= 1e-12
        return 0.0 if inside else math.inf

    p, q = brute_force_prox(pin, 1.0, (0.0, 0.0), 0.0)
    assert p == (0.0, 0.0)
    assert q == 0.0


def test_huber_pair_against_closed_form():
    p, q = brute_force_prox(
        lambda u, v: perspective_eval(HUBER, u, v), 1.0, (3.0, 0.0), 0.0
    )
    assert math.hypot(p[0] - 2.0, p[1], q) <= 5e-4


def test_all_infeasible_grid_raises():
    with pytest.raises(OracleError):
        brute_force_prox(lambda u, v: math.inf, 1.0, (0.0,), 0.0)


def test_off_center_minimizer_raises_boundary_error():
    # a minimizer far outside the search box must be reported, not silently
    # truncated: objective pulls toward u = 100
    def far(u, v):
        return 100.0 * abs(u[0] - 100.0) + v * v

    with pytest.raises(OracleError):
        brute_force_prox(far, 10.0, (0.0,), 0.0)


def test_self_consistency_under_tolerance_halving():
    base_cfg = OracleConfig(refine_tol=1e-6)
    fine_cfg = OracleConfig(refine_tol=5e-7)
    obj = lambda u, v: perspective_eval(HUBER, u, v)
    p1, q1 = brute_force_prox(obj, 1.0, (1.3, -0.4), 0.6, base_cfg)
    p2, q2 = brute_force_prox(obj, 1.0, (1.3, -0.4), 0.6, fine_cfg)
    move = math.sqrt(sum((a - b) ** 2 for a, b in zip(p1, p2)) + (q1 - q2) ** 2)
    assert move <= 10.0 * base_cfg.refine_tol


def test_certificate_at_exact_and_perturbed_outputs():
    res = prox_perspective(HUBER, 1.0, (1.2, -0.7), 0.4)
    gap = prox_fenchel_gap(HUBER, 1.0, (1.2, -0.7), 0.4, res.p, res.q)
    assert -1e-12 <= gap <= 1e-8  # nonnegative up to round-off
    perturbed = (res.p[0] + 0.1, res.p[1])
    gap_bad = prox_fenchel_gap(HUBER, 1.0, (1.2, -0.7), 0.4, perturbed, res.q)
    assert gap_bad > 1e-3


def test_certificate_case_ii():
    res = case_ii_prox(ABS_ROOT, 1.0, (2.0, 0.0), 2.0)
    gap = prox_fenchel_gap(ABS_ROOT, 1.0, (2.0, 0.0), 2.0, res.p, res.q)
    assert 0.0 <= gap <= 1e-8


def test_golden_min_anchored_handles_infinite_plateaus():
    def f(t):
        return (t - 0.3) ** 2 if 0.0 <= t <= 1.0 else math.inf

    m, fm = golden_min_anchored(f, -10.0, 10.0, 0.9, f(0.9), 1e-10)
    assert m == pytest.approx(0.3, abs=1e-5)
    assert fm <= f(0.9)


def test_refinement_stops_at_float_resolution():
    # at |x| >= 1e8 the default refine_tol is below the float spacing of the
    # coordinates: the golden-section probe rounds onto a bracket end, which
    # used to loop forever, so the run is a subprocess with a time limit
    code = f"""
import math, sys
sys.path[:0] = [{SRC!r}, {str(TESTS)!r}]
from persprox import HuberBase, PerspectivePair, SqrtScaling, perspective_eval, prox_perspective
from reference import brute_force_prox
pair = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=1)
for k in range(8, 13):
    x, y = (10.0 ** k,), 0.3 * 10.0 ** k
    p, q = brute_force_prox(lambda u, v: perspective_eval(pair, u, v), 1.0, x, y)
    res = prox_perspective(pair, 1.0, x, y)
    assert math.hypot(p[0] - res.p[0], q - res.q) <= 1e-9 * math.hypot(x[0], y), k
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(radius_factor=0.0)
    for key in ("radius_factor", "refine_tol"):
        for value in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match=key):
                OracleConfig(**{key: value})


def test_refinement_exhaustion_raises():
    # an unconverged point must not pass for the minimizer
    with pytest.raises(OracleError, match="max_refine_iters=1"):
        brute_force_prox(lambda u, v: perspective_eval(HUBER, u, v), 1.0,
                         (2.755374812200385, 2.06363522352242), -0.63542735335324,
                         OracleConfig(max_refine_iters=1))


def test_scale_interval_thinner_than_the_grid_raises():
    # a scale interval [0, 1e-9] falls between the grid points, so every
    # sample is infeasible: the oracle must fail loudly
    pair = PerspectivePair(AbsBase(), RootScaling(0.5, 1e-9), n=1)
    with pytest.raises(OracleError, match="every coarse grid point"):
        brute_force_prox(lambda u, v: perspective_eval(pair, u, v), 1.0,
                         (2.755374812200385,), 2.06363522352242)


def test_refine_tol_below_float_spacing_terminates():
    # the golden-section refinement used to loop forever once the probe
    # rounded onto a bracket end, so the run is a subprocess with a time limit
    code = f"""
import sys
sys.path[:0] = [{SRC!r}, {str(TESTS)!r}]
from persprox import HuberBase, PerspectivePair, SqrtScaling, perspective_eval
from reference import OracleConfig, OracleError, brute_force_prox
pair = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=1)
try:
    brute_force_prox(lambda u, v: perspective_eval(pair, u, v), 1.0, (2.755374812200385,),
                     2.06363522352242, OracleConfig(refine_tol=1e-17))
except OracleError:
    pass
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
