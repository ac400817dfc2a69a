"""Evaluation of perspective functions, their conjugates, and the Fenchel
certificate used to validate prox outputs.

A perspective couples a base function on R^n with a scaling function on a
one-dimensional scale space.  Which closed form applies is decided by the
sign class of the base conjugate, matched at construction against the
convexity side of the scaling.
"""

from __future__ import annotations

import math

from .core import (
    INF,
    BaseFunction,
    CaseKind,
    DimensionMismatch,
    ScalingFunction,
    SignClass,
    Value,
    Vec,
    as_vec,
    dist,
    dot,
    negligible,
    norm,
    scale,
    sub,
)

# the one exception to ``core.negligible``: a ratio y*/c this close
# (relatively) to dom env* is pulled onto it.  The slack absorbs the
# multiplier search's residual, which reaches y* through q, not rounding;
# at ``core.SLACK``, 21 of the 9,600 wide_scale pool calls of seeds 0 and 1
# (power(2)/identity Omega4 outputs) lose their certificate.
_RATIO_SLACK = 1e-9


class PairMismatch(ValueError):
    """Base sign class and scaling convexity side are incompatible."""


class PerspectivePair(Value):
    """A base function, a scaling function, and the base dimension."""

    __slots__ = ("base", "scaling", "n")

    def __init__(self, base: BaseFunction, scaling: ScalingFunction, n: int = 1):
        if n < 1:
            raise ValueError(f"base dimension must be >= 1, got {n}")
        sc, kind = base.sign_class, scaling.case_kind
        if sc is SignClass.NONNEGATIVE_CONJUGATE and kind is not CaseKind.NEG_S_LOWER:
            raise PairMismatch(
                "a nonnegative conjugate needs a scaling whose negation is convex lsc"
            )
        if sc is SignClass.NONPOSITIVE_CONJUGATE and kind is not CaseKind.S_LOWER:
            raise PairMismatch(
                "a nonpositive conjugate needs a convex lsc scaling"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "scaling", scaling)
        object.__setattr__(self, "n", n)

    def check_point(self, x, y) -> tuple[Vec, float]:
        x = as_vec(x)
        if len(x) != self.n:
            raise DimensionMismatch(f"expected a base point of dimension {self.n}, got {len(x)}")
        if type(y) is not float and not isinstance(y, (int, float)):
            y = as_vec(y)
            if len(y) != 1:
                raise DimensionMismatch("the scale space is one-dimensional")
            y = y[0]
        if not math.isfinite(y):
            raise ValueError(f"the scale component must be finite, got {y!r}")
        return x, float(y)


def _in_cl_conv_S(scaling: ScalingFunction, y: float) -> bool:
    return negligible(y - scaling.prox_env(0.0, y), y)


def preperspective_eval(pair: PerspectivePair, x, y) -> float:
    """Raw scaled composition: ``s(y) * phi(x / s(y))`` where ``0 < s(y) < inf``,
    and +inf everywhere else."""
    x, y = pair.check_point(x, y)
    sv = pair.scaling.eval(y)
    if 0.0 < sv < INF:
        return sv * pair.base.eval(scale(x, 1.0 / sv))
    return INF


def perspective_eval(pair: PerspectivePair, x, y) -> float:
    """The closed convex hull of the preperspective, by sign-class case.

    Agrees with the preperspective wherever ``0 < s(y) < inf``; the
    boundary behaviour is governed by the recession of the base.
    """
    x, y = pair.check_point(x, y)
    return _perspective_value(pair, x, y)


def _perspective_value(pair: PerspectivePair, x: Vec, y: float) -> float:
    base, scaling = pair.base, pair.scaling
    sc = base.sign_class
    if sc is SignClass.ZERO_INFTY_CONJUGATE:
        if not _in_cl_conv_S(scaling, y):
            return INF
        return base.eval(x)
    sv = scaling.eval(y)
    if 0.0 < sv < INF:
        return sv * base.eval(scale(x, 1.0 / sv))
    if sc is SignClass.NONNEGATIVE_CONJUGATE:
        return base.rec_eval(x) if sv == 0.0 else INF
    if sv <= 0.0 and _in_cl_conv_S(scaling, y):
        return base.rec_eval(x)
    return INF


def perspective_conj_eval(pair: PerspectivePair, xstar, ystar) -> float:
    """Conjugate of the perspective at ``(x*, y*)``.

    Splits on the value ``c = phi*(x*)``: the support function of the
    closed scale hull when ``c == 0``, a scaled envelope conjugate when
    ``c`` has the sign its class promises, +inf when ``c`` is.
    """
    xstar, ystar = pair.check_point(xstar, ystar)
    return _conj_value(pair, xstar, ystar, None)


def _conj_value(pair: PerspectivePair, xstar, ystar: float, size: float | None) -> float:
    """The conjugate; with the input ``size`` of a certificate, ``phi*(x*)``
    negligible at that size counts as zero and the ratio is clamped."""
    base, scaling = pair.base, pair.scaling
    c = base.conj_eval(xstar)
    sc = base.sign_class
    if sc is SignClass.ZERO_INFTY_CONJUGATE:
        if c != 0.0:
            return INF
        return scaling.support_cl_conv_S(ystar)
    if c == INF:
        return INF
    if c == 0.0 or (size is not None and negligible(c, size)):
        return scaling.support_cl_conv_S(ystar)
    ratio = ystar / c if sc is SignClass.NONNEGATIVE_CONJUGATE else ystar / (-c)
    if size is not None:
        d = scaling.proj_dom_env_conj(ratio)
        if abs(d - ratio) <= _RATIO_SLACK * (1.0 + abs(ratio)):
            ratio = d
    v = scaling.env_conj_eval(ratio)
    return INF if v == INF else abs(c) * v


def prox_fenchel_gap(
    pair: PerspectivePair, gamma: float, x, y, p, q: float
) -> float:
    """Residual of the conjugate-sum identity at a claimed prox ``(p, q)``.

    Evaluates the perspective at ``(p, q)``, its conjugate at the scaled
    displacement, and the pairing between them; the result is zero at the
    exact prox and nonnegative elsewhere.  Rounding slack is sized by the
    input alone, ``size = ||x|| / gamma``, so the check does not depend on
    the path that produced ``(p, q)``: a conjugate argument that distance
    outside ``cl dom phi*`` is pulled onto it, and a conjugate value
    ``phi*(x*)`` within ``core.negligible`` of zero counts as zero.
    Checks ``gamma`` and both points, then runs ``certificate_gap``.
    """
    if not 0.0 < gamma < INF:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x, y = pair.check_point(x, y)
    p, q = pair.check_point(p, q)
    return certificate_gap(pair, gamma, x, y, p, q)


def certificate_gap(
    pair: PerspectivePair, gamma: float, x: Vec, y: float, p: Vec, q: float
) -> float:
    """``prox_fenchel_gap`` without its checks, for a caller that has
    checked ``gamma`` and ``(x, y)`` and assembled ``(p, q)`` itself, as
    ``prox_perspective`` has."""
    size = norm(x) / gamma
    xstar = scale(sub(x, p), 1.0 / gamma)
    ystar = (y - q) / gamma
    proj = pair.base.proj_dom_conj(xstar)
    # the projection returns xstar itself when it is already in the domain
    if proj is not xstar and negligible(dist(proj, xstar), size):
        xstar = proj
    val = _perspective_value(pair, p, q)
    conj = _conj_value(pair, xstar, ystar, size)
    if val == INF or conj == INF:
        return INF
    return val + conj - dot(p, xstar) - q * ystar
