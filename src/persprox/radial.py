"""Radial reduction: vector proxes of ``phi1d(||x||)`` from scalar proxes.

For an even scalar ``phi1d`` with 0 interior to its domain, the prox of
the radial lift acts along the ray through ``x``, so one scalar prox at
``||x||`` suffices.  The conjugate of every signed catalog base is such a
lift, of its conjugate profile.
"""

from __future__ import annotations

from math import hypot

from .core import INF, ZERO_NORM, Value, Vec, as_vec, scale, zeros_like


class RadialFunction(Value):
    """The lift ``x -> phi1d(||x||)`` of an even scalar function, a profile
    as the ``catalog`` module's docstring states the contract."""

    __slots__ = ("phi1d",)

    def __init__(self, phi1d):
        for t in (0.25, 1.0, 3.5):
            left, right = phi1d.eval(-t), phi1d.eval(t)
            if left != right:
                raise ValueError(f"phi1d must be even; differs at +-{t}")
        if phi1d.eval(0.0) == INF:
            raise ValueError("phi1d must be finite near 0")
        object.__setattr__(self, "phi1d", phi1d)

    def prox(self, gamma: float, x) -> Vec:
        return radial_prox(self, gamma, x)


def radial_prox(phi: RadialFunction, gamma: float, x) -> Vec:
    """Prox of ``gamma (.) phi`` at ``x``, scaling ``x`` by the scalar one at ``||x||``.

    ``gamma (.) phi`` is ``gamma * phi`` for ``gamma > 0`` and the indicator
    of ``cl dom phi`` for ``gamma == 0``, whose prox is the projection onto
    that closure, as the profile's ``prox(0, .)`` is; a negative weight
    raises ``ValueError``.  Where the scalar prox leaves ``||x||`` unmoved
    the result is ``x`` itself.
    """
    if gamma < 0.0:
        raise ValueError(f"weight must be nonnegative, got {gamma}")
    x = as_vec(x)
    r = hypot(*x)
    if r < ZERO_NORM:
        return zeros_like(x)
    t = phi.phi1d.prox(gamma, r)
    return x if t == r else scale(x, t / r)
