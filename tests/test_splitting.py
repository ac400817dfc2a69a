import math
import random

import pytest

from persprox import (
    DemoSpec,
    HuberBase,
    PerspectivePair,
    SqrtScaling,
    StepSizeError,
    run_concomitant_demo,
)
from persprox.splitting import smooth_lipschitz

PAIR = PerspectivePair(HuberBase(1.0), SqrtScaling(1.0), n=2)

EYE2 = ((1.0, 0.0), (0.0, 1.0))


def test_lipschitz_constant():
    spec = DemoSpec(a_matrix=EYE2, b=(1.0, 1.0), kappa=3.0)
    assert smooth_lipschitz(spec) == pytest.approx(3.0)
    spec = DemoSpec(a_matrix=((2.0, 0.0), (0.0, 1.0)), b=(0.0, 0.0), kappa=1.0)
    assert smooth_lipschitz(spec) == pytest.approx(4.0)


def _random_design(rng, rows, cols, magnitude, rank):
    """A rows x cols design of the given rank at the given magnitude."""
    left = [[rng.gauss(0.0, 1.0) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rank)]
    return tuple(
        tuple(magnitude * sum(l * right[k][j] for k, l in enumerate(row)) for j in range(cols))
        for row in left
    )


def test_lipschitz_constant_matches_a_reference_eigensolver():
    np = pytest.importorskip("numpy")
    rng = random.Random(20240817)
    cases = [((1.0,),), ((-3.5,),), ((0.0, 0.0), (0.0, 0.0))]
    for _ in range(600):
        rows, cols = rng.randint(1, 14), rng.randint(1, 5)
        magnitude = 10.0 ** rng.choice((-6, -3, 0, 3, 6))
        rank = rng.randint(1, min(rows, cols))  # often below min(rows, cols)
        cases.append(_random_design(rng, rows, cols, magnitude, rank))
    for a in cases:
        spec = DemoSpec(a_matrix=a, b=(0.0,) * len(a), kappa=0.0)
        arr = np.asarray(a, dtype=float)
        want = float(np.linalg.eigvalsh(arr.T @ arr)[-1])
        got = smooth_lipschitz(spec)
        assert abs(got - want) <= 1e-12 * max(want, 1e-300), (a, got, want)


def test_lipschitz_constant_rejects_a_ragged_design():
    spec = DemoSpec(a_matrix=((1.0, 0.0), (1.0,)), b=(1.0, 1.0))
    with pytest.raises(ValueError):
        smooth_lipschitz(spec)
    with pytest.raises(ValueError):
        run_concomitant_demo(PAIR, spec)


def test_step_size_guard():
    spec = DemoSpec(a_matrix=EYE2, b=(1.0, 1.0), kappa=1.0, tau=1.5, iterations=5)
    with pytest.raises(StepSizeError):
        run_concomitant_demo(PAIR, spec)


def test_descent_and_convergence():
    spec = DemoSpec(a_matrix=EYE2, b=(1.0, 1.0), y0=1.0, kappa=1.0, tau=0.5, iterations=500)
    trace = run_concomitant_demo(PAIR, spec)
    objs = [row[1] for row in trace.rows]
    steps = [row[2] for row in trace.rows]
    assert all(b <= a + 1e-9 for a, b in zip(objs[1:], objs[2:]))
    assert steps[-1] <= 1e-6


def test_stationary_start_is_fixed_point():
    spec = DemoSpec(
        a_matrix=EYE2, b=(0.0, 0.0), y0=0.0, kappa=0.0, tau=0.5,
        iterations=5, sigma0=0.0,
    )
    trace = run_concomitant_demo(PAIR, spec)
    assert all(row[2] == 0.0 for row in trace.rows[1:])


def test_halved_step_reaches_same_limit():
    base = DemoSpec(a_matrix=EYE2, b=(1.0, 1.0), y0=1.0, kappa=1.0, tau=0.5, iterations=800)
    half = DemoSpec(a_matrix=EYE2, b=(1.0, 1.0), y0=1.0, kappa=1.0, tau=0.25, iterations=1600)
    t1 = run_concomitant_demo(PAIR, base)
    t2 = run_concomitant_demo(PAIR, half)
    dist = math.sqrt(
        sum((a - b) ** 2 for a, b in zip(t1.w, t2.w)) + (t1.sigma - t2.sigma) ** 2
    )
    assert dist <= 1e-5


def test_from_dict_roundtrip():
    spec = DemoSpec.from_dict(
        {"a": [[1, 0], [0, 1]], "b": [1, 1], "kappa": 2.0, "tau": 0.25,
         "iterations": 10, "w0": [0.5, 0.5], "sigma0": 1.0}
    )
    assert spec.kappa == 2.0
    assert spec.w0 == (0.5, 0.5)
    trace = run_concomitant_demo(PAIR, spec)
    assert len(trace.rows) == 11


def test_dimension_validation():
    spec = DemoSpec(a_matrix=((1.0, 0.0, 0.0),), b=(1.0,), tau=0.5)
    with pytest.raises(ValueError):
        run_concomitant_demo(PAIR, spec)
