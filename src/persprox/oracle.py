"""Brute-force prox oracle.

Test support: an independent ground truth for prox computations on the
product space, by coarse grid scan plus cyclic coordinate-wise
golden-section refinement.  Convexity of the objective makes every
coordinate slice unimodal, which is all golden section needs; +inf values
off the domain are handled by anchoring the search on a finite point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import Vec, as_vec

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


class OracleError(RuntimeError):
    """The oracle could not produce a trustworthy minimizer."""


@dataclass(frozen=True)
class OracleConfig:
    radius_factor: float = 1.5
    coarse_points_per_dim: int = 61
    refine_tol: float = 1e-8
    max_refine_iters: int = 500

    def __post_init__(self):
        for name in ("radius_factor", "refine_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.coarse_points_per_dim < 2 or self.max_refine_iters < 1:
            raise ValueError("oracle counts must be positive")


def golden_min_anchored(f, lo: float, hi: float, anchor: float, f_anchor: float, tol: float) -> tuple[float, float]:
    """Minimize a unimodal ``f`` on [lo, hi] given a finite value at ``anchor``.

    Keeps a bracketing triple around the best point, so stretches where
    ``f`` is +inf cannot swallow the minimum.
    """
    a, b = lo, hi
    m, fm = anchor, f_anchor
    while b - a > tol:
        if m - a >= b - m:
            u = m - _INV_GOLD * (m - a)
            fu = f(u)
            if fu < fm:
                b, m, fm = m, u, fu
            else:
                a = u
        else:
            u = m + _INV_GOLD * (b - m)
            fu = f(u)
            if fu < fm:
                a, m, fm = m, u, fu
            else:
                b = u
    return m, fm


def brute_force_prox(
    eval_fn, gamma: float, x, y: float, cfg: OracleConfig = OracleConfig()
) -> tuple[Vec, float]:
    """Approximate prox of ``gamma * eval_fn`` at ``(x, y)`` by scan + refine.

    ``eval_fn(u, v)`` must be the (convex, lsc) perspective evaluator;
    total dimension is meant to stay at most 4.  The search box is centered
    at the input with half-width ``radius_factor * (1 + ||(x, y)||)``; a
    prox point never moves farther than the distance to the nearest
    minimizer, so the box contains it and the refined optimum must come
    out interior, which is asserted.
    """
    x = as_vec(x)
    center = (*x, float(y))
    d = len(center)
    radius = cfg.radius_factor * (1.0 + math.hypot(*center))

    def objective(w) -> float:
        value = eval_fn(w[:-1], w[-1])
        if value == math.inf:
            return math.inf
        quad = sum((wi - ci) ** 2 for wi, ci in zip(w, center))
        return gamma * value + 0.5 * quad

    axes = [
        [ci - radius + 2.0 * radius * k / (cfg.coarse_points_per_dim - 1)
         for k in range(cfg.coarse_points_per_dim)]
        for ci in center
    ]
    best, fbest = None, math.inf
    for w in itertools.product(*axes):
        fw = objective(w)
        if fw < fbest:
            best, fbest = w, fw
    # dense scan along each axis through the center: catches thin domains
    # that the tensor grid straddles (e.g. a narrow feasible scale interval)
    probe = list(center)
    for i in range(d):
        for k in range(601):
            probe[i] = center[i] - radius + 2.0 * radius * k / 600.0
            fw = objective(tuple(probe))
            if fw < fbest:
                best, fbest = tuple(probe), fw
        probe[i] = center[i]
    if best is None:
        raise OracleError("every coarse grid point evaluated to +inf")

    w = list(best)
    fcur = fbest
    for _ in range(cfg.max_refine_iters):
        move = 0.0
        for i in range(d):
            lo, hi = center[i] - radius, center[i] + radius

            def slice_obj(t: float, i=i) -> float:
                w[i] = t
                return objective(w)

            old = w[i]
            t, fcur = golden_min_anchored(slice_obj, lo, hi, old, fcur, cfg.refine_tol)
            w[i] = t
            move = max(move, abs(t - old))
        if move <= cfg.refine_tol:
            break

    margin = 1e-6 * radius
    for wi, ci in zip(w, center):
        if radius - abs(wi - ci) < margin:
            raise OracleError(
                "refined optimum sits on the search box boundary; "
                "the box radius does not cover the prox"
            )
    return tuple(w[:-1]), w[-1]

