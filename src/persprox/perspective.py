"""Evaluation of perspective functions, their conjugates, and the Fenchel
certificate used to validate prox outputs.

A perspective couples a base function on R^n with a scaling function on a
one-dimensional scale space.  Which closed form applies is decided by the
sign class of the base conjugate, matched at construction against the
convexity side of the scaling.  The conjugate of the perspective is one
rule on the value ``c = phi*(x*)`` (``_conj_value``); the certificate reads
``c`` from the base's conjugate profile at the single norm ``||x*||``, which
it also projects onto the profile's domain where rounding left it outside.
The perspective's value reads the base at one norm too: ``s * phi(p / s)``
is ``s`` times the base's ``eval_norm`` at ``||p|| / s`` (at ``||p / s||``
where only ``||p||`` overflows), with no vector ``p / s`` built.
"""

from __future__ import annotations

import math
from operator import mul

from .core import INF, CaseKind, DimensionMismatch, SignClass, Value, Vec, as_vec, slack_bound

# the one exception to ``core.slack_bound``: a ratio y*/c this close
# (relatively) to dom env* is pulled onto it.  The slack absorbs the
# multiplier search's residual, which reaches y* through q, not rounding;
# at ``core.SLACK``, 21 of the 9,600 wide_scale pool calls of seeds 0 and 1
# (power(2)/identity Omega4 outputs) lose their certificate.
_RATIO_SLACK = 1e-9


class PairMismatch(ValueError):
    """Base sign class and scaling convexity side are incompatible."""


class PerspectivePair(Value):
    """A base function, a scaling function, and the base dimension; derived,
    once per pair: ``_profile``, ``h = base.conj.phi1d``, the profile of
    ``phi*``; ``_drives``, which curve a signed pair's multiplier drives
    (True: the base's, for a nonnegative conjugate; False: the scaling's,
    for a nonpositive one; None: a zero-or-infinity conjugate has no
    multiplier); and ``driven_least``, that curve's least value, ``h(0)``
    or ``env(0)``."""

    _fields = ("base", "scaling", "n")
    __slots__ = _fields + ("_profile", "_drives", "driven_least")

    def __init__(self, base, scaling, n: int = 1):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"base dimension must be an int >= 1, got {n!r}")
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
        h = base.conj.phi1d
        drives = (None if sc is SignClass.ZERO_INFTY_CONJUGATE
                  else sc is SignClass.NONNEGATIVE_CONJUGATE)
        least = None if drives is None else h.eval(0.0) if drives else scaling.env_eval(0.0)
        for name, value in (("_profile", h), ("_drives", drives), ("driven_least", least)):
            object.__setattr__(self, name, value)

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


def check_input(pair: PerspectivePair, gamma: float, x, y) -> tuple[Vec, float]:
    """``pair.check_point(x, y)``, once ``gamma`` is positive and finite
    (else ``ValueError``): the one input check of every entry taking a weight."""
    if not 0.0 < gamma < INF:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return pair.check_point(x, y)


def preperspective_eval(pair: PerspectivePair, x, y) -> float:
    """Raw scaled composition: ``s(y) * phi(x / s(y))`` where ``0 < s(y) < inf``,
    read as the base at the norm ``||x|| / s(y)`` as ``perspective_eval`` reads
    it, and +inf everywhere else."""
    x, y = pair.check_point(x, y)
    sv = pair.scaling.eval(y)
    if 0.0 < sv < INF:
        t = math.hypot(*x) / sv
        if t == INF:  # as _perspective_value reads it
            t = math.hypot(*[c / sv for c in x])
        return sv * pair.base.eval_norm(t)
    return INF


def perspective_eval(pair: PerspectivePair, x, y) -> float:
    """The closed convex hull of the preperspective, by sign-class case.

    Agrees with the preperspective wherever ``0 < s(y) < inf``; the
    boundary behaviour is governed by the recession of the base.
    """
    x, y = pair.check_point(x, y)
    return _perspective_value(pair, x, y)


def _perspective_value(pair: PerspectivePair, x: Vec, y: float) -> float:
    base, scaling, drives = pair.base, pair.scaling, pair._drives
    if drives is not None:
        sv = scaling.eval(y)
        if 0.0 < sv < INF:
            t = math.hypot(*x) / sv
            if t == INF:  # ||x|| overflows, where ||x / s|| may not
                t = math.hypot(*[c / sv for c in x])
            return sv * base.eval_norm(t)
        if drives:
            return base.rec_eval(x) if sv == 0.0 else INF
        if not sv <= 0.0:
            return INF
    # zero-or-infinity conjugates, and s(y) <= 0 for nonpositive: y in cl conv S
    d = y - scaling.prox_env(0.0, y)
    if not abs(d) <= slack_bound(y):
        return INF
    return base.eval_norm(math.hypot(*x)) if drives is None else base.rec_eval(x)


def perspective_conj_eval(pair: PerspectivePair, xstar, ystar) -> float:
    """Conjugate of the perspective at ``(x*, y*)``: ``_conj_value`` at
    ``c = phi*(x*)``, read as the base's profile at ``||x*||``."""
    xstar, ystar = pair.check_point(xstar, ystar)
    return _conj_value(pair, pair._profile.eval(math.hypot(*xstar)), ystar, None)


def _conj_value(pair: PerspectivePair, c: float, ystar: float, size: float | None) -> float:
    """The conjugate at ``(x*, y*)`` from ``c = phi*(x*)``: the support function
    of the closed scale hull when ``c == 0``, a scaled envelope conjugate when
    ``c`` has the sign its class promises, +inf when ``c`` is +inf.  At a certificate's
    input ``size``, ``c`` within its ``core.slack_bound`` is zero; the ratio is clamped."""
    scaling, drives = pair.scaling, pair._drives
    if drives is None:
        if c != 0.0:
            return INF
        return scaling.support_cl_conv_S(ystar)
    if c == INF:
        return INF
    if c == 0.0 or (size is not None and abs(c) <= slack_bound(size)):
        return scaling.support_cl_conv_S(ystar)
    ratio = ystar / c if drives else ystar / (-c)
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
    the path that produced ``(p, q)``: a conjugate argument whose norm lies
    that distance outside ``cl dom h`` (``h`` the base's conjugate profile)
    is pulled onto the domain's boundary along its ray, and a conjugate value
    ``phi*(x*)`` within ``core.slack_bound`` of zero counts as zero.  A dual
    point whose norm overflows, or an input whose ``size`` does, gives +inf.
    Checks ``gamma`` and both points, then runs ``certificate_gap``.
    """
    x, y = check_input(pair, gamma, x, y)
    p, q = pair.check_point(p, q)
    return certificate_gap(pair, gamma, x, y, p, q, math.hypot(*x) / gamma)


def certificate_gap(
    pair: PerspectivePair, gamma: float, x: Vec, y: float, p: Vec, q: float, size: float
) -> float:
    """``prox_fenchel_gap`` without its checks, for a caller that has checked
    ``gamma`` and ``(x, y)``, formed ``size = ||x|| / gamma`` (as ``math.hypot(*x)
    / gamma``) and assembled ``(p, q)`` itself, as ``prox_perspective`` has.  It
    reads ``phi*(x*)`` as the profile ``h = base.conj.phi1d`` at one norm ``rs =
    ||x*||``.  Where ``h(rs)`` is +inf, ``rs`` is projected onto ``cl dom h``
    (``rp = h.prox(0.0, rs)``); within the slack, ``x*`` is rescaled by ``rp / rs``
    and ``phi*`` read as ``h(rp)``.  An overflowed ``rs`` or ``size`` gives +inf."""
    if size == INF:
        return INF
    h = pair._profile
    inv = 1.0 / gamma
    xstar = tuple([(a - b) * inv for a, b in zip(x, p)])
    ystar = (y - q) / gamma
    rs = math.hypot(*xstar)
    c = h.eval(rs)
    if c == INF and rs < INF:
        rp = h.prox(0.0, rs)
        if rs - rp <= slack_bound(size):
            t = rp / rs
            xstar, c = tuple([a * t for a in xstar]), h.eval(rp)
    val = _perspective_value(pair, p, q)
    conj = _conj_value(pair, c, ystar, size)
    if val == INF or conj == INF:
        return INF
    return val + conj - sum(map(mul, p, xstar)) - q * ystar
