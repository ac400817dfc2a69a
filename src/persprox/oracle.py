"""Brute-force prox oracle.

Test support: an independent ground truth for prox computations on the
product space, by coarse grid scan plus cyclic coordinate-wise
golden-section refinement.  Convexity of the objective makes every
coordinate slice unimodal, which is all golden section needs; +inf values
off the domain are handled by anchoring the search on a finite point.

The search runs in the plane of x's ray and the scale axis, whatever the
base dimension.  That is exact when the evaluator is invariant under every
rotation of the base space that fixes x, as the perspective of a radial
base is: the prox is unique, so it commutes with those rotations and lies
in their fixed plane.  The oracle uses no region formula of the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import Vec, as_vec

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 61


class OracleError(RuntimeError):
    """The oracle could not produce a trustworthy minimizer."""


@dataclass(frozen=True)
class OracleConfig:
    radius_factor: float = 1.5
    refine_tol: float = 1e-8
    max_refine_iters: int = 500

    def __post_init__(self):
        for name in ("radius_factor", "refine_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_refine_iters < 1:
            raise ValueError(f"max_refine_iters must be at least 1, got {self.max_refine_iters}")


def golden_min_anchored(f, lo: float, hi: float, anchor: float, f_anchor: float, tol: float) -> tuple[float, float]:
    """Minimize a unimodal ``f`` on [lo, hi] given a finite value at ``anchor``.

    Keeps a bracketing triple around the best point, so stretches where
    ``f`` is +inf cannot swallow the minimum.  Stops at ``tol`` or at float
    resolution, when the probe no longer lands strictly inside its side of
    the bracket.
    """
    a, b = lo, hi
    m, fm = anchor, f_anchor
    while b - a > tol:
        if m - a >= b - m:
            u = m - _INV_GOLD * (m - a)
            if not a < u < m:
                break
            fu = f(u)
            if fu < fm:
                b, m, fm = m, u, fu
            else:
                a = u
        else:
            u = m + _INV_GOLD * (b - m)
            if not m < u < b:
                break
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

    ``eval_fn(u, v)`` must be the (convex, lsc) perspective evaluator, and
    for base dimension n >= 2 invariant under every rotation of u that fixes
    x (any radial base qualifies).  The search then covers only the points
    ``(t * e, v)`` with signed t and e = x/||x|| (the first unit vector when
    x = 0), which is the whole space for n = 1 and contains the prox for
    n >= 2.  The box in (t, v) is centered at (||x||, y) with half-width
    ``radius_factor * (1 + ||(x, y)||)``; a prox point never moves farther
    than the distance to the nearest minimizer, so the box contains it and
    the refined optimum must come out interior, which is asserted.
    """
    x = as_vec(x)
    r = math.hypot(*x)
    e = tuple(c / r for c in x) if r > 0.0 else (1.0,) + (0.0,) * (len(x) - 1)
    y = float(y)
    center = (r, y)
    radius = cfg.radius_factor * (1.0 + math.hypot(*center))

    def objective(w) -> float:
        t, v = w
        value = eval_fn(tuple(t * c for c in e), v)
        if value == math.inf:
            return math.inf
        return gamma * value + 0.5 * ((t - r) ** 2 + (v - y) ** 2)

    axes = [
        [ci - radius + 2.0 * radius * k / (_COARSE_POINTS - 1) for k in range(_COARSE_POINTS)]
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
    for i in range(2):
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
        for i in range(2):
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
    else:
        raise OracleError(
            f"refinement did not settle within max_refine_iters={cfg.max_refine_iters}"
        )

    margin = 1e-6 * radius
    for wi, ci in zip(w, center):
        if radius - abs(wi - ci) < margin:
            raise OracleError(
                "refined optimum sits on the search box boundary; "
                "the box radius does not cover the prox"
            )
    t, v = w
    return tuple(t * c for c in e), v
