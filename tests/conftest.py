"""Shared test oracles and helpers.

The oracles here are deliberately naive (grids, golden section, limit
quotients) and independent of the library's solution paths; derived
expectations in the tests are frozen from these.
"""

from __future__ import annotations

import math
import random
import struct

import pytest

from persprox import sqrt_scaling_prox

INF = math.inf

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLD * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLD * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of a nondecreasing function with ``f(lo) <= 0 <= f(hi)`` on a
    bracket ``0 <= lo < hi``, to float resolution.

    Bisects the bit patterns of the ends, which order like the nonnegative
    doubles themselves, so any bracket (up to 1e300 and beyond) takes at
    most 64 halvings.  Returns the end of the final bracket of adjacent
    doubles with the smaller ``|f|``.
    """
    flo, fhi = f(lo), f(hi)
    assert 0.0 <= lo < hi and flo <= 0.0 <= fhi, (lo, hi, flo, fhi)
    a, b = _bits(lo), _bits(hi)
    while b - a > 1:
        mid = (a + b) // 2
        fm = f(_double(mid))
        if fm == 0.0:
            return _double(mid)
        if fm < 0.0:
            a, flo = mid, fm
        else:
            b, fhi = mid, fm
    return _double(a) if -flo <= fhi else _double(b)


def grid_prox_1d(f_eval, gamma: float, x: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Scalar prox oracle: coarse grid then golden section on a convex objective."""

    def objective(t: float) -> float:
        v = f_eval(t)
        return INF if v == INF else gamma * v + 0.5 * (t - x) ** 2

    pts = [lo + (hi - lo) * k / 400 for k in range(401)]
    best = min(pts, key=objective)
    span = (hi - lo) / 400
    return golden_min(objective, max(lo, best - 2 * span), min(hi, best + 2 * span), tol)


def grid_conjugate_1d(f_eval, t: float, lo: float = -50.0, hi: float = 50.0, n: int = 200001) -> float:
    """Conjugate oracle: sup of ``t*z - f(z)`` over a dense grid."""
    best = -INF
    step = (hi - lo) / (n - 1)
    for k in range(n):
        z = lo + k * step
        v = f_eval(z)
        if v == INF:
            continue
        best = max(best, t * z - v)
    return best


def limit_quotient_recession(f_eval, x, z, lam: float = 1e6) -> float:
    """Recession oracle: difference quotient at a large multiple."""
    moved = tuple(zi + lam * xi for zi, xi in zip(z, x))
    fz = f_eval(z)
    fm = f_eval(moved)
    if fm == INF:
        return INF
    return (fm - fz) / lam


def closed_form_huber_prox(alpha: float, beta: float, gamma: float, x, y: float):
    """Two-branch prox of the Huber/sqrt perspective, a cross-check of the
    generic region solver.

    The outer branch is linear shrinkage of ``x``; the inner branch couples
    a scalar fixed point for the multiplier with the sqrt scale prox.
    """
    x = tuple(float(c) for c in x)
    r = math.hypot(*x)
    s_y = math.sqrt(beta + y * y)
    if r >= alpha * (s_y + gamma):
        return tuple(c * (1.0 - alpha * gamma / r) for c in x), float(y)

    def fixed_point_gap(eta: float) -> float:
        qv = sqrt_scaling_prox(beta, gamma * eta, y) if eta > 0.0 else float(y)
        sq = gamma + math.sqrt(beta + qv * qv)
        return eta - (alpha * alpha * sq * sq - r * r) / (2.0 * sq * sq)

    eta = bisect_root(fixed_point_gap, 0.0, 0.5 * alpha * alpha + 1e-12)
    qv = sqrt_scaling_prox(beta, gamma * eta, y) if eta > 0.0 else float(y)
    sq = math.sqrt(beta + qv * qv)
    return tuple(c * (sq / (gamma + sq)) for c in x), qv


def eta_on_wider_bracket(T, extra: float) -> float:
    """Root of a multiplier residual ``T(eta)`` (``reference.multiplier_residual``)
    by bisection to float resolution on the evaluated bracket ``[0, extra -
    T(0)]``, which holds it since ``T' >= 1``."""
    return bisect_root(T, 0.0, extra - T(0.0))


def rand_vec(rng: random.Random, n: int, lo: float = -4.0, hi: float = 4.0):
    return tuple(rng.uniform(lo, hi) for _ in range(n))


@pytest.fixture
def rng():
    return random.Random(20240817)
