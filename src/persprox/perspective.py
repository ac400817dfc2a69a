"""Evaluation of perspective functions, their conjugates, and the Fenchel
certificate used to validate prox outputs.

A perspective couples a base function on R^n with a scaling function on a
one-dimensional scale space.  Which closed form applies is decided by the
sign class of the base conjugate, matched at construction against the
convexity side of the scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    INF,
    BaseFunction,
    CaseKind,
    DimensionMismatch,
    ScalingFunction,
    SignClass,
    Vec,
    as_vec,
    dist,
    dot,
    norm,
    scale,
    sub,
)

# membership slack for closed convex sets entering indicator branches
_MEMBER_TOL = 1e-12

# conjugate arguments within this relative distance of cl dom phi* are
# pulled onto it before evaluating certificates (absorbs boundary round-off)
_CLAMP_TOL = 1e-9

# certificates treat a base-conjugate value this close to zero as zero,
# mirroring the solver's default classification tolerance; the envelope
# conjugate can be discontinuous there, which would turn a snapped
# classification into a spurious infinite gap
_ZERO_SNAP = 1e-12


class PairMismatch(ValueError):
    """Base sign class and scaling convexity side are incompatible."""


@dataclass(frozen=True)
class PerspectivePair:
    """A base function, a scaling function, and the base dimension."""

    base: BaseFunction
    scaling: ScalingFunction
    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"base dimension must be >= 1, got {self.n}")
        sc, kind = self.base.sign_class, self.scaling.case_kind
        if sc is SignClass.NONNEGATIVE_CONJUGATE and kind is not CaseKind.NEG_S_LOWER:
            raise PairMismatch(
                "a nonnegative conjugate needs a scaling whose negation is convex lsc"
            )
        if sc is SignClass.NONPOSITIVE_CONJUGATE and kind is not CaseKind.S_LOWER:
            raise PairMismatch(
                "a nonpositive conjugate needs a convex lsc scaling"
            )

    def check_point(self, x, y) -> tuple[Vec, float]:
        x = as_vec(x)
        if len(x) != self.n:
            raise DimensionMismatch(f"expected a base point of dimension {self.n}, got {len(x)}")
        if not isinstance(y, (int, float)):
            y = as_vec(y)
            if len(y) != 1:
                raise DimensionMismatch("the scale space is one-dimensional")
            y = y[0]
        if not math.isfinite(y):
            raise ValueError(f"the scale component must be finite, got {y!r}")
        return x, float(y)


def _in_cl_conv_S(scaling: ScalingFunction, y: float) -> bool:
    return abs(y - scaling.proj_cl_conv_S(y)) <= _MEMBER_TOL * (1.0 + abs(y))


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


def linear_perspective_eval(phi: BaseFunction, x, t: float) -> float:
    """Classical perspective with linear scaling: ``t * phi(x/t)`` for
    ``t > 0``, the recession of ``phi`` at ``t == 0``, +inf for ``t < 0``."""
    x = as_vec(x)
    t = float(t)
    if t > 0.0:
        return t * phi.eval(scale(x, 1.0 / t))
    if t == 0.0:
        return phi.rec_eval(x)
    return INF


def perspective_conj_eval(pair: PerspectivePair, xstar, ystar) -> float:
    """Conjugate of the perspective at ``(x*, y*)``.

    Splits on the value ``c = phi*(x*)``: the support function of the
    closed scale hull when ``c == 0``, a scaled envelope conjugate when
    ``c`` has the sign its class promises, +inf when ``c`` is.
    """
    xstar, ystar = pair.check_point(xstar, ystar)
    return _conj_value(pair, xstar, ystar, clamp=False)


def _conj_value(pair: PerspectivePair, xstar, ystar: float, clamp: bool) -> float:
    base, scaling = pair.base, pair.scaling
    c = base.conj_eval(xstar)
    sc = base.sign_class
    if sc is SignClass.ZERO_INFTY_CONJUGATE:
        if c != 0.0:
            return INF
        return scaling.support_cl_conv_S(ystar)
    if c == INF:
        return INF
    if c == 0.0 or (clamp and abs(c) <= _ZERO_SNAP * (1.0 + norm(xstar))):
        return scaling.support_cl_conv_S(ystar)
    ratio = ystar / c if sc is SignClass.NONNEGATIVE_CONJUGATE else ystar / (-c)
    if clamp:
        proj_dom = getattr(scaling, "proj_dom_env_conj", None)
        if proj_dom is not None:
            d = proj_dom(ratio)
            if abs(d - ratio) <= _CLAMP_TOL * (1.0 + abs(ratio)):
                ratio = d
    v = scaling.env_conj_eval(ratio)
    return INF if v == INF else abs(c) * v


def prox_fenchel_gap(
    pair: PerspectivePair, gamma: float, x, y, p, q: float
) -> float:
    """Residual of the conjugate-sum identity at a claimed prox ``(p, q)``.

    Evaluates the perspective at ``(p, q)``, its conjugate at the scaled
    displacement, and the pairing between them; the result is zero at the
    exact prox and nonnegative elsewhere.  The conjugate argument on the
    base side is pulled onto ``cl dom phi*`` when round-off leaves it a
    hair outside.
    """
    if not 0.0 < gamma < INF:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x, y = pair.check_point(x, y)
    p, q = pair.check_point(p, q)
    xstar = scale(sub(x, p), 1.0 / gamma)
    ystar = (y - q) / gamma
    proj = pair.base.proj_dom_conj(xstar)
    if dist(proj, xstar) <= _CLAMP_TOL * (1.0 + norm(xstar)):
        xstar = proj
    val = _perspective_value(pair, p, q)
    conj = _conj_value(pair, xstar, ystar, clamp=True)
    if val == INF or conj == INF:
        return INF
    return val + conj - dot(p, xstar) - q * ystar
