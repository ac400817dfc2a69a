"""Concrete base and scaling functions with closed-form prox ingredients.

The scalar conjugate profiles come first (each base's conjugate is the
radial lift of one), then the vector-level base functions, then the
scaling functions.  The scalar equation solvers at the bottom are the only
iterative pieces; the power profile's prox and the root scaling's share one,
``_monomial_log_root``, a Newton in the log of the unknown.

These are the contracts, stated once; the package reads the objects
through these members alone:

- A profile ``h`` is an even convex function of one variable, finite near
  0: ``eval(t)``, ``prox(w, t)`` (the prox of ``w * h``, ``w > 0``) and
  ``proj_cl_dom(t)`` (the projection onto ``cl dom h``, the ``w -> 0``
  member).  A signed base's profile also gives ``inverse``, below.
- A base ``phi`` has ``sign_class``, the ``SignClass`` of ``phi*``;
  ``eval_norm(t)``, its value at any point of norm ``t >= 0``, and
  ``eval(x)``, which is ``eval_norm(||x||)``; ``rec_eval(x)``, its
  recession function; ``conj``, the ``radial.RadialFunction`` of its
  profile (``phi*(x*) = h(||x*||)`` for ``h = conj.phi1d``).  The solver
  runs on ``h`` at ``r = ||x|| / gamma``, the certificate reads ``h`` at
  ``||x*||`` and ``eval_norm`` at ``||p||``.  A zero-or-infinity base also
  gives ``prox_primal(gamma, x)``, the prox of ``gamma * phi``, which its
  decoupled prox calls.
- A scaling ``s`` on the real line has ``case_kind``, a ``CaseKind``, and
  ``eval(y)``.  ``env_eval`` is the convex envelope the solver works with:
  the lower envelope of ``-s`` for NEG_S_LOWER, the upper envelope of
  ``s`` for S_LOWER.  Its closed domain is ``cl S``, convex for both
  kinds.  ``prox_env(w, y)`` is the prox of ``w * envelope``, and at
  ``w == 0`` the projection onto ``cl S = cl conv S``, where ``env_eval``
  equals ``-eval`` or ``eval`` by the kind.  ``env_conj_eval`` is the
  envelope's conjugate, ``support_cl_conv_S`` the support function of
  ``cl S`` and ``proj_dom_env_conj`` the projection onto the closed
  domain of ``env_conj_eval``.  It also gives ``inverse``.
- ``inverse`` runs the prox family ``u = prox_{w f}(t)`` of the profile or
  envelope ``f`` backwards, without a scalar solve, in the role the sign
  class gives ``f``: the outer curve (a nonnegative conjugate's profile, an
  S_LOWER envelope) or the inner one.  The inner ``inverse(t, u)`` returns
  ``(w, w'/w, w''/w, f(u), f'(u), f''(u))`` in ``u`` for the weight ``w``
  landing on ``u`` (at a clamp, where it begins); the outer ``inverse(t,
  v)`` returns ``(u, w, v w', v**2 w'', v u')`` in ``v`` for the point
  ``u`` on the side of ``t`` where ``f`` is ``v``, ``(0, inf, -inf, inf,
  0)`` at or below ``f(0)``, the least value.

The bases' ``conj_eval``, ``prox_conj`` and ``proj_dom_conj``, the lift's
value, prox and projection onto ``cl dom phi*``, lie outside the base
contract: the package calls none of them, and the benchmark's tracer wraps
them by name.
"""

from __future__ import annotations

import math
from .core import (EPS, INF, MIN_NORMAL, MIN_SUBNORMAL, CaseKind, SignClass, Value, Vec, as_vec,
                   norm, scale, zeros_like)
from .radial import RadialFunction, radial_prox
# real_quartic_roots and solve_bracketed are no longer called here; they stay
# module globals because perfbench/tracing.py wraps them in persprox.catalog by name
from .roots import RootFindError, real_quartic_roots, solve_bracketed  # noqa: F401

_LN2 = math.log(2.0)

# ---------------------------------------------------------------------------
# scalar pieces


class PowerScalar(Value):
    """t -> |t|**p / p for p > 1: the conjugate profile of ``PowerBase`` at ``p*``;
    derived, once per exponent, the constants of ``prox`` and ``inverse``."""

    _fields = ("p",)
    __slots__ = _fields + ("_pm1", "_pm1m1", "_inv", "_1mp", "_pm2", "_1m2p", "_2pm2", "_psq")

    def __init__(self, p: float):
        if not 1.0 < p < INF:
            raise ValueError(f"exponent must be finite and exceed 1, got {p}")
        object.__setattr__(self, "p", p)
        # each as the methods wrote it: (p - 1) - 1 is not p - 2 in every rounding
        for name, value in (("_pm1", p - 1.0), ("_pm1m1", (p - 1.0) - 1.0), ("_inv", 1.0 / p),
                            ("_1mp", 1.0 - p), ("_pm2", p - 2.0), ("_1m2p", 1.0 - 2.0 * p),
                            ("_2pm2", 2.0 * (p - 2.0)), ("_psq", p * p)):
            object.__setattr__(self, name, value)

    def eval(self, t: float) -> float:
        try:
            return abs(t) ** self.p / self.p
        except OverflowError:  # the value exceeds the largest double
            return INF

    def prox(self, gamma: float, t: float) -> float:
        """The root ``rho`` in ``[0, |t|]`` of ``rho + gamma*rho**(p-1) = |t|``,
        with the sign of ``t``: ``|t|*u`` for the root of ``u + c*u**(p-1) = 1``,
        ``c = gamma*|t|**(p-2)``, solved in logs (``_monomial_log_root``), then
        one Newton step in ``rho``, from a few rounding units of ``log rho`` to a
        few of ``rho``, where ``gamma*rho**(p-1)`` is finite and rounds to within
        a rounding unit of ``rho``."""
        a = abs(t)
        if gamma == 0.0 or a == 0.0:
            rho = a
        elif self.p == 2.0:
            rho = a / (1.0 + gamma)
        else:
            r1, log_a = self._pm1, math.log(a)
            log_c = math.log(gamma) + self._pm1m1 * log_a
            rho = math.exp(log_a + _monomial_log_root(log_c, r1, 1.0))
            try:
                power = rho ** r1
            except OverflowError:  # beyond the largest double, while gamma * power is about a
                power = INF
            if power < INF and (power >= MIN_NORMAL or gamma * MIN_SUBNORMAL < EPS * rho):
                m = gamma * power
                rho -= (rho - a + m) / (1.0 + r1 * m / rho)
            rho = a if rho > a else rho if rho > 0.0 else 0.0  # exp(log a) may round above a
        return rho if t > 0.0 else -rho if t < 0.0 else 0.0

    def proj_cl_dom(self, t: float) -> float:
        return float(t)

    def inverse(self, r: float, v: float) -> tuple[float, ...]:
        # rho = (p v)**(1/p) has h(rho) = v, and r = rho + w h'(rho) with h'(rho)
        # = p v / rho, so w = (r - rho) rho / (p v); d rho / dv = rho / (p v)
        p = self.p
        g = p * v
        if not g > 0.0:
            return 0.0, INF, -INF, INF, 0.0
        rho = g ** self._inv
        f = rho / g
        c = self._1mp
        return (rho, (r - rho) * f, f * (c * r + self._pm2 * rho) / p,
                c * f * (self._1m2p * r + self._2pm2 * rho) / self._psq, rho / p)


class HuberConjScalar(Value):
    """The conjugate profile of ``HuberBase``: (t**2 - alpha**2) / 2 on [-alpha, alpha];
    derived, alpha**2, once per slope."""

    _fields = ("alpha",)
    __slots__ = _fields + ("_a2",)

    def __init__(self, alpha: float):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_a2", alpha * alpha)

    def eval(self, t: float) -> float:
        return 0.5 * (t * t - self._a2) if abs(t) <= self.alpha else INF

    def prox(self, gamma: float, t: float) -> float:
        return math.copysign(min(abs(t) / (1.0 + gamma), self.alpha), t)

    def proj_cl_dom(self, t: float) -> float:
        return min(t, self.alpha) if t >= 0.0 else max(t, -self.alpha)

    def inverse(self, r: float, rho: float) -> tuple[float, ...]:
        # r = rho (1 + w) below alpha: w = (r - rho) / rho, w' = -r / rho**2,
        # w'' = 2 r / rho**3; at alpha the largest weight that clamps there
        a, rr = self.alpha, r - rho
        return (rr / rho, -r / rho / rr, 2.0 * r / rho / rho / rr,
                0.5 * (rho - a) * (rho + a), rho, 1.0)


class AbsConjScalar(Value):
    """The conjugate profile of ``AbsBase``: the indicator of [-1, 1]."""

    __slots__ = ()

    def eval(self, t: float) -> float:
        return 0.0 if -1.0 <= t <= 1.0 else INF

    def prox(self, gamma: float, t: float) -> float:
        return self.proj_cl_dom(t)

    def proj_cl_dom(self, t: float) -> float:
        return min(max(float(t), -1.0), 1.0)


# ---------------------------------------------------------------------------
# base functions (vector level, by radial lifting)


def _cap_norm(x: Vec, radius: float) -> Vec:
    """Shrink ``x`` onto the ball of ``radius`` when rounding left it an ulp outside."""
    r = norm(x)
    if r <= radius:
        return x
    out = scale(x, radius / r)
    while norm(out) > radius:
        out = scale(out, 1.0 - EPS)
    return out


class PowerBase(Value):
    """phi = ||.||**p / p; ``conj``, ||.||**{p*} / p*, lifts ``PowerScalar(p*)``."""

    __slots__ = ("p", "conj")
    _fields = ("p",)

    sign_class = SignClass.NONNEGATIVE_CONJUGATE

    def __init__(self, p: float):
        if not 1.0 < p < INF:
            raise ValueError(f"exponent must be finite and exceed 1, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "conj", RadialFunction(PowerScalar(p / (p - 1.0))))

    def eval(self, x) -> float:
        return self.eval_norm(norm(x))

    def eval_norm(self, t: float) -> float:
        return t ** self.p / self.p

    def conj_eval(self, xstar) -> float:
        return self.conj.phi1d.eval(norm(xstar))

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return radial_prox(self.conj, gamma, xstar)

    def proj_dom_conj(self, xstar) -> Vec:
        return radial_prox(self.conj, 0.0, xstar)

    def rec_eval(self, x) -> float:
        # supercoercive: recession is 0 at the origin, +inf elsewhere
        return 0.0 if norm(x) == 0.0 else INF


class AbsBase(Value):
    """phi = ||.||; ``conj`` lifts ``AbsConjScalar``; the point methods keep ``_cap_norm``."""

    __slots__ = ()

    sign_class = SignClass.ZERO_INFTY_CONJUGATE
    conj = RadialFunction(AbsConjScalar())

    def eval(self, x) -> float:
        return self.eval_norm(norm(x))

    def eval_norm(self, t: float) -> float:
        return t

    def conj_eval(self, xstar) -> float:
        return self.conj.phi1d.eval(norm(xstar))

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return _cap_norm(as_vec(xstar), 1.0)

    def proj_dom_conj(self, xstar) -> Vec:
        return _cap_norm(as_vec(xstar), 1.0)

    def rec_eval(self, x) -> float:
        return norm(x)

    def prox_primal(self, gamma: float, x) -> Vec:
        x = as_vec(x)
        r = norm(x)
        if r <= gamma:
            return zeros_like(x)
        return scale(x, 1.0 - gamma / r)


class HuberBase(Value):
    """Radial robust loss with slope ``alpha``; ``conj`` lifts ``HuberConjScalar(alpha)``;
    derived, alpha**2, once per slope."""

    __slots__ = ("alpha", "conj", "_a2")
    _fields = ("alpha",)

    sign_class = SignClass.NONPOSITIVE_CONJUGATE

    def __init__(self, alpha: float):
        if not 0.0 < alpha < INF:
            raise ValueError(f"slope must be positive and finite, got {alpha}")
        if alpha * alpha == INF:
            # the conjugate's offset alpha**2 / 2 would be infinite
            raise ValueError(f"slope must have a finite square, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "conj", RadialFunction(HuberConjScalar(alpha)))
        object.__setattr__(self, "_a2", alpha * alpha)

    def eval(self, x) -> float:
        return self.eval_norm(norm(x))

    def eval_norm(self, t: float) -> float:
        # quadratic near 0 with the + alpha**2/2 offset that makes the
        # conjugate vanish on the boundary of its domain, linear in the tails
        a = self.alpha
        return a * t if t > a else 0.5 * (t * t + self._a2)

    def conj_eval(self, xstar) -> float:
        return self.conj.phi1d.eval(norm(xstar))

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return _cap_norm(radial_prox(self.conj, gamma, xstar), self.alpha)

    def proj_dom_conj(self, xstar) -> Vec:
        return _cap_norm(radial_prox(self.conj, 0.0, xstar), self.alpha)

    def rec_eval(self, x) -> float:
        return self.alpha * norm(x)


# ---------------------------------------------------------------------------
# scaling functions (scalar scale space)


class RootScaling(Value):
    """s(y) = y**q on the interval [0, upper], -inf elsewhere (0 < q < 1); derived,
    once per scaling, the constants of ``inverse`` and ``env_conj_eval``."""

    _fields = ("q", "upper")
    __slots__ = _fields + ("_2mq", "_1mq", "_q1mq", "_bq", "_b1mq", "_conj_c", "_conj_k")

    case_kind = CaseKind.NEG_S_LOWER

    def __init__(self, q: float, upper: float = INF):
        if not 0.0 < q < 1.0:
            raise ValueError(f"root exponent must lie in (0, 1), got {q}")
        if not upper > 0.0:
            raise ValueError(f"interval upper end must be positive, got {upper}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "upper", upper)
        # env_conj_eval's value at t < 0 is conj_c * (-t) ** conj_k
        for name, value in (("_2mq", 2.0 - q), ("_1mq", 1.0 - q), ("_q1mq", q * (1.0 - q)),
                            ("_bq", upper ** q),
                            ("_b1mq", upper ** (1.0 - q)),
                            ("_conj_c", (1.0 - q) * q ** (q / (1.0 - q))),
                            ("_conj_k", -q / (1.0 - q))):
            object.__setattr__(self, name, value)

    def eval(self, y: float) -> float:
        if 0.0 <= y <= self.upper:
            return y ** self.q
        return -INF

    def env_eval(self, y: float) -> float:
        if 0.0 <= y <= self.upper:
            return -(y ** self.q)
        return INF

    def env_conj_eval(self, t: float) -> float:
        b = self.upper
        if t >= 0.0:
            return t * b + self._bq if b < INF else INF
        # the maximiser (q / -t) ** (1 / (1 - q)) overflows; its power 1 - q does not
        if self.q / -t > self._b1mq:
            return t * b + self._bq
        try:
            return self._conj_c * (-t) ** self._conj_k
        except OverflowError:  # the value exceeds the largest double
            return INF

    def prox_env(self, weight: float, y: float) -> float:
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        if weight == 0.0:
            # max keeps its first argument on a tie, so -0.0 projects to 0.0
            return min(max(0.0, float(y)), self.upper)
        z = root_scaling_prox_neg(weight, self.q, y)  # may round below y, where -z**q pushes right
        return min(max(z, y), self.upper)

    def inverse(self, y: float, z: float) -> tuple[float, ...]:
        # y = z - q w z**(q-1): w = (z - y) z**(1-q) / q, w'/w = ((2 - q) z -
        # (1 - q) y) / ((z - y) z), w''/w = (1 - q) ((2 - q) z + q y) / ((z - y)
        # z**2); at the upper end the least weight that clamps there
        q = self.q
        zq, zy, a2, a1 = z ** q, z - y, self._2mq, self._1mq
        return (zy * (z / zq) / q, (a2 * z - a1 * y) / zy / z, a1 * (a2 * z + q * y) / zy / z / z,
                -zq, -q * zq / z, self._q1mq * zq / z / z)

    def support_cl_conv_S(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.upper * t if self.upper < INF else INF

    def proj_dom_env_conj(self, t: float) -> float:
        if self.upper < INF:
            return float(t)
        return min(float(t), 0.0)


class SqrtScaling(Value):
    """s(y) = sqrt(beta + y^2), positive everywhere, so its upper envelope is itself;
    derived, sqrt(beta), once per scaling."""

    _fields = ("beta",)
    __slots__ = _fields + ("_sb",)

    case_kind = CaseKind.S_LOWER

    def __init__(self, beta: float):
        if not 0.0 < beta < INF:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_sb", math.sqrt(beta))

    def eval(self, y: float) -> float:
        return math.sqrt(self.beta + y * y)

    def env_eval(self, y: float) -> float:
        return math.sqrt(self.beta + y * y)

    def env_conj_eval(self, t: float) -> float:
        if abs(t) <= 1.0:
            return -self._sb * math.sqrt(1.0 - t * t)
        return INF

    def prox_env(self, weight: float, y: float) -> float:
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        if weight == 0.0:
            return float(y)
        return sqrt_scaling_prox(self.beta, weight, y)

    def inverse(self, y: float, v: float) -> tuple[float, ...]:
        # |z| = sqrt(v**2 - beta) on the side of y, and y - z = w z / v: w =
        # (|y| - |z|) v / |z|, w' = -1 - |y| beta / |z|**3, w'' = 3 |y| beta v /
        # |z|**5; a value at or below sqrt(beta) is the pole
        sb = self._sb
        d = (v - sb) * (v + sb)
        if not d > 0.0:
            return 0.0, INF, -INF, INF, 0.0
        a, ay = math.sqrt(d), abs(y)
        k = ay * self.beta / a / a / a
        return (math.copysign(a, y), (ay - a) * v / a, -v * (1.0 + k), 3.0 * k * v * v * v / a / a,
                math.copysign(v * v / a, y))

    def support_cl_conv_S(self, t: float) -> float:
        return 0.0 if t == 0.0 else INF

    def proj_dom_env_conj(self, t: float) -> float:
        return min(max(float(t), -1.0), 1.0)


class IdentityScaling(Value):
    """The linear scale s(y) = y, optionally capped to the interval [0, upper]."""

    __slots__ = ("upper",)

    case_kind = CaseKind.NEG_S_LOWER

    def __init__(self, upper: float = INF):
        if not upper > 0.0:
            raise ValueError(f"interval upper end must be positive, got {upper}")
        object.__setattr__(self, "upper", upper)

    def eval(self, y: float) -> float:
        if self.upper == INF:
            return float(y)
        return float(y) if 0.0 <= y <= self.upper else -INF

    def env_eval(self, y: float) -> float:
        if 0.0 <= y <= self.upper:
            return -float(y)
        return INF

    def env_conj_eval(self, t: float) -> float:
        if t <= -1.0:
            return 0.0
        return self.upper * (t + 1.0) if self.upper < INF else INF

    def prox_env(self, weight: float, y: float) -> float:
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        return min(max(y + weight, 0.0), self.upper)

    def inverse(self, y: float, z: float) -> tuple[float, ...]:
        # z = y + w inside [0, upper]: w = z - y, the largest that clamps at 0,
        # the least that clamps at the upper end
        return z - y, 1.0 / (z - y), 0.0, -z, -1.0, 0.0

    def support_cl_conv_S(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.upper * t if self.upper < INF else INF

    def proj_dom_env_conj(self, t: float) -> float:
        if self.upper < INF:
            return float(t)
        return min(float(t), -1.0)


# ---------------------------------------------------------------------------
# scalar equation solvers


def root_scaling_prox_neg(mu: float, q: float, y: float) -> float:
    """The unique ``z > 0`` with ``y = z - q*mu*z**(q-1)``, the prox of ``mu*(-psi)``
    at ``y`` for ``psi`` the q-th root on the nonnegative half line, by
    ``_monomial_log_root`` at ``k = q - 1``; 0 only below the smallest double."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"root exponent must lie in (0, 1), got {q}")
    if mu <= 0.0:
        raise ValueError(f"weight must be positive, got {mu}")
    return math.exp(_monomial_log_root(math.log(q) + math.log(mu), q - 1.0, y))


def _monomial_log_root(log_c: float, k: float, y: float) -> float:
    """``log z`` for the root ``z > 0`` of ``z + sgn(k)*c*z**k = y``, ``c =
    exp(log_c)``, for ``k > 0`` at ``y = 1`` (the power profile's prox,
    scaled) or ``-1 < k < 0`` (the root scaling's): Newton on the increasing
    ``F(t) = exp(t) + sgn(k)*m(t) - y``, ``m(t) = exp(log_c + k*t)``, in ``t =
    log z``, which forms no power of ``z``, from near the dominant-balance end
    of a bracket.  It bisects when a step leaves the bracket, and stops once a
    step is within four rounding units of ``t`` and of ``F``, or at the end of
    smaller ``|F|`` once no double lies inside the bracket (``F`` cancels to a
    few ulps of ``|y|``)."""
    a, sign = (k, 1.0) if k > 0.0 else (-k, -1.0)
    if k > 0.0:
        # each term alone is at most 1: t_hi, where the lesser is 1, bounds the root,
        # and above t_lo the larger is at least 1/2.  F(t_hi) is the other term r; a
        # Newton step on log(exp(t) + m(t)) = 0, third order in r, starts below t_hi
        if log_c <= 0.0:  # exp(t_hi) is 1, m(t_hi) is r
            t_hi, r = 0.0, math.exp(log_c)
            s = 1.0 + k * r
        else:  # m(t_hi) is 1, exp(t_hi) is r
            t_hi = -log_c / k
            r = math.exp(t_hi)
            s = r + k
        t, t_lo = t_hi, t_hi - (_LN2 if k >= 1.0 else _LN2 / k)
        if r > 4.0 * EPS * (abs(log_c) + 1.0):  # F(t_hi) > 0 beyond its rounding
            t -= math.log1p(r) * (1.0 + r) / s
    elif y >= 0.0:
        # F < 0 at log y and at the root for y == 0, where exp(t) == m(t); above
        # both, exp(t) >= y, m, so z = y + m <= 2 e^t_lo
        t_bal = log_c / (1.0 + a)
        t = t_lo = max(math.log(y), t_bal) if y > 0.0 else t_bal
        t_hi = t_lo + _LN2
    else:
        # F > 0 at the balance and where m == -y; below both, m >= exp(t), -y, so m(z) <= 2 m(t_hi)
        t = t_hi = min(log_c / (1.0 + a), (log_c - math.log(-y)) / a)
        t_lo = t_hi - _LN2 / a
    f_lo, f_hi = -INF, INF  # not evaluated yet
    exp, ay, four_eps = math.exp, abs(y), 4.0 * EPS
    for _ in range(200):
        ez = exp(t)
        m = exp(log_c + k * t)
        f = ez + sign * m - y
        dfdt = ez + a * m
        dt = f / dfdt
        if abs(dt) <= four_eps * (abs(t) + (ez + m + ay) / dfdt):
            return t - dt
        if f > 0.0:
            t_hi, f_hi = t, f
        else:
            t_lo, f_lo = t, f
        t -= dt
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
            if t in (t_lo, t_hi):  # no double lies strictly inside the bracket
                return t_lo if -f_lo < f_hi else t_hi
    raise RootFindError(
        "no convergence of Newton in log z", math.exp(t_lo), math.exp(t_hi), f_lo, f_hi,
    )


def sqrt_scaling_prox(beta: float, mu: float, y: float) -> float:
    """Prox of ``mu * sqrt(beta + (.)**2)`` at ``y``, by monotone Newton.

    The prox point is ``sign(y) * r`` for the root ``r`` in ``[0, |y|]`` of
    ``g(r) = r - |y| + mu*r/sqrt(beta + r**2)``.  On ``r >= 0``, ``g`` is
    strictly increasing (``g' = 1 + mu*beta/(beta + r**2)**1.5``) and
    concave (``g'' = -3*mu*beta*r/(beta + r**2)**2.5``), so every tangent
    lies above ``g``: a Newton step from any point lands where ``g <= 0``,
    and from a point with ``g <= 0`` the iterates rise monotonically to the
    root and never overshoot.  ``r0 = max(0, |y| - mu)`` has ``g(r0) <= 0``.
    The start is ``r0``, except where ``beta`` is small against ``mu``: far
    above ``sqrt(beta)`` the root balances ``r - (|y| - mu)`` against
    ``mu*beta/(2 r**2)``, and where that balance puts it above ``r0`` and
    ``2 sqrt(beta)`` the iteration starts there instead (from ``r0`` it
    would gain only a factor of about 1.5 per step); if that start lies
    above the root, the first step lands below it.  Clamping to
    ``[r0, |y|]`` only absorbs rounding.  The loop stops once a step is
    within four rounding units of ``r`` and of ``g`` (or of the smallest
    subnormal), and returns the point after that step.  The returned point
    lies between the last evaluated one and the root (unless the loop
    stops at a start above the root, which is then within those four
    units of it), so the stationarity residual there, checked against
    ``1e-10 * (1 + |y| + mu)``, bounds the one returned.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if mu < 0.0:
        raise ValueError(f"weight must be nonnegative, got {mu}")
    a = abs(y)
    r = r0 = max(0.0, a - mu)
    if mu * mu > 256.0 * beta:  # else the balance below stays under 2 sqrt(beta)
        # the positive root of r**3 - (a - mu) r**2 = mu*beta/2, within a
        # factor 1.5: its cube root term, capped by the square root term when a < mu
        c = 0.5 * mu * beta
        guess = c ** (1.0 / 3.0)
        if a < mu:
            guess = min(guess, math.sqrt(c / (mu - a)))
        if guess > r0 and guess > 2.0 * math.sqrt(beta):
            r = min(guess, a)
    sqrt = math.sqrt
    for _ in range(200):
        ss = beta + r * r
        w = mu / sqrt(ss)
        wr = w * r
        g = r - a + wr
        dg = 1.0 + w * beta / ss
        dr = g / dg
        # four rounding units, or four of the smallest subnormal below 2**-1022
        converged = abs(dr) <= 4.0 * (EPS * (r + (r + a + wr) / dg) + MIN_SUBNORMAL)
        r -= dr
        if r < r0:  # max(r, r0), then min(r, a), a NaN kept
            r = r0
        if r > a:
            r = a
        if converged:
            break
    else:
        raise RootFindError(
            "no convergence of Newton on the stationarity equation", r0, a, -INF, INF,
        )
    if abs(g) > 1e-10 * (1.0 + a + mu):
        raise RootFindError(f"stationarity residual {g!r}", r0, a, -INF, INF)
    return math.copysign(r, y) if r > 0.0 else 0.0


# ---------------------------------------------------------------------------
# construction by name (CLI configuration surface)

def _real(value) -> float:
    """``value`` as a float: an int or a float (an int beyond the largest
    double is infinite, as JSON's ``1e400`` is), or a string that names an
    infinity (the CLI writes ``"+inf"`` and ``"-inf"``); ``TypeError`` for
    anything else, a bool or a finite numeric string included."""
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            number = 0.0
        if math.isinf(number):
            return number
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return INF if value > 0 else -INF
    raise TypeError(f"expected a number, got {value!r}")


def _number(value, name: str, default: float | None = None) -> float:
    """The parameter ``name`` as a float (``_real``), ``default`` when it is
    absent (None) and has one; otherwise ``ValueError`` naming it."""
    if value is None:
        if default is None:
            raise ValueError(f"missing parameter {name!r}")
        return default
    try:
        return _real(value)
    except TypeError:
        raise ValueError(f"parameter {name!r} must be a number, got {value!r}") from None


def _interval_upper(params) -> float:
    if "interval" in params:
        interval = params["interval"]
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise ValueError(f"parameter 'interval' must be [0, upper], got {interval!r}")
        if _number(interval[0], "interval") != 0.0:
            raise ValueError("interval must start at 0")
        return _number(interval[1], "interval", INF)
    return _number(params.get("upper"), "upper", INF)


_BASES = {
    "power": lambda params: PowerBase(p=_number(params.get("p"), "p")),
    "huber": lambda params: HuberBase(alpha=_number(params.get("alpha"), "alpha", 1.0)),
    "abs": lambda params: AbsBase(),
}

_SCALINGS = {
    "root": lambda params: RootScaling(q=_number(params.get("q"), "q"), upper=_interval_upper(params)),
    "sqrt": lambda params: SqrtScaling(beta=_number(params.get("beta"), "beta", 1.0)),
    "identity-interval": lambda params: IdentityScaling(upper=_interval_upper(params)),
}


def make_base(name: str, params: dict | None = None):
    """The catalog base ``name`` with ``params``; ``ValueError`` for an
    unknown name or a missing or non-numeric parameter."""
    try:
        factory = _BASES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown base function {name!r}; choose from {sorted(_BASES)}") from None
    return factory(params or {})


def make_scaling(name: str, params: dict | None = None):
    """The catalog scaling ``name`` with ``params``; see ``make_base``."""
    try:
        factory = _SCALINGS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown scaling function {name!r}; choose from {sorted(_SCALINGS)}") from None
    return factory(params or {})
