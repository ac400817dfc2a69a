"""Concrete base and scaling functions with closed-form prox ingredients.

Scalar building blocks come first (powers, absolute value, interval
indicators and supports, the robust-loss pair), then the vector-level base
functions built by radial lifting, then the scaling functions.  The scalar
equation solvers at the bottom are the only iterative pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import INF, CaseKind, SignClass, Vec, as_vec, norm, scale, zeros_like
from .radial import RadialFunction, radial_prox
# real_quartic_roots and solve_bracketed are no longer called here; they stay
# module globals because perfbench/tracing.py wraps them in persprox.catalog by name
from .roots import RootFindError, real_quartic_roots, solve_bracketed  # noqa: F401

_EPS = 2.0 ** -52  # machine epsilon

# ---------------------------------------------------------------------------
# scalar pieces


def _solve_power(r: float, w: float, a: float) -> float:
    """Solve ``rho + w * rho**(r-1) = a`` for ``rho`` in [0, a] (a > 0, w > 0)."""
    lo, hi = 0.0, a
    # each term alone bounds the root; the monomial cap is nearly exact for
    # large exponents, where Newton from a loose start is only linear
    log_cap = (math.log(a) - math.log(w)) / (r - 1.0)
    if log_cap < 700.0:
        hi = min(hi, math.exp(log_cap))
    rho = min(a / (1.0 + w), hi)  # exact for r == 2
    if rho <= 0.0 or rho >= hi:
        rho = 0.5 * hi
    for _ in range(120):
        g = rho + w * rho ** (r - 1.0) - a
        if g > 0.0:
            hi = rho
        else:
            lo = rho
        if abs(g) <= 1e-15 * (1.0 + a):
            break
        d = 1.0 + w * (r - 1.0) * rho ** (r - 2.0)
        nxt = rho - g / d if math.isfinite(d) and d > 0.0 else 0.5 * (lo + hi)
        if not (lo < nxt < hi) or not math.isfinite(nxt):
            nxt = 0.5 * (lo + hi)
        if nxt == rho:
            break
        rho = nxt
    return rho


def _power_prox(r: float, w: float, t: float) -> float:
    """Prox of ``w * |.|**r / r`` at ``t`` (r > 1, w >= 0)."""
    a = abs(t)
    if w == 0.0 or a == 0.0:
        rho = a
    elif r == 2.0:
        rho = a / (1.0 + w)
    else:
        rho = _solve_power(r, w, a)
    return math.copysign(rho, t) if t != 0.0 else 0.0


@dataclass(frozen=True)
class PowerScalar:
    """t -> |t|**p / p for p > 1; self-dual family under p <-> p/(p-1)."""

    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.p}")

    @property
    def pstar(self) -> float:
        return self.p / (self.p - 1.0)

    def eval(self, t: float) -> float:
        return abs(t) ** self.p / self.p

    def prox(self, gamma: float, t: float) -> float:
        return _power_prox(self.p, gamma, t)

    def proj_cl_dom(self, t: float) -> float:
        return float(t)

    def conj_eval(self, t: float) -> float:
        return abs(t) ** self.pstar / self.pstar

    def support_cl_dom(self, t: float) -> float:
        return 0.0 if t == 0.0 else INF

    def conjugate(self) -> "PowerScalar":
        return PowerScalar(self.pstar)


@dataclass(frozen=True)
class AbsScalar:
    """t -> |t|; prox is the soft threshold."""

    def eval(self, t: float) -> float:
        return abs(t)

    def prox(self, gamma: float, t: float) -> float:
        return math.copysign(max(abs(t) - gamma, 0.0), t)

    def proj_cl_dom(self, t: float) -> float:
        return float(t)

    def conj_eval(self, t: float) -> float:
        return 0.0 if abs(t) <= 1.0 else INF

    def support_cl_dom(self, t: float) -> float:
        return 0.0 if t == 0.0 else INF

    def conjugate(self) -> "IntervalIndicator":
        return IntervalIndicator(-1.0, 1.0)


@dataclass(frozen=True)
class IntervalIndicator:
    """Indicator of [lo, hi]; prox is the clamp, independent of the weight."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def eval(self, t: float) -> float:
        return 0.0 if self.lo <= t <= self.hi else INF

    def prox(self, gamma: float, t: float) -> float:
        return min(max(float(t), self.lo), self.hi)

    def proj_cl_dom(self, t: float) -> float:
        return min(max(float(t), self.lo), self.hi)

    def conj_eval(self, t: float) -> float:
        return _interval_support(self.lo, self.hi, t)

    def support_cl_dom(self, t: float) -> float:
        return _interval_support(self.lo, self.hi, t)

    def conjugate(self) -> "SupportInterval":
        return SupportInterval(self.lo, self.hi)


@dataclass(frozen=True)
class SupportInterval:
    """Support function of [lo, hi]; prox by Moreau against the clamp."""

    lo: float
    hi: float

    def eval(self, t: float) -> float:
        return _interval_support(self.lo, self.hi, t)

    def prox(self, gamma: float, t: float) -> float:
        return t - min(max(float(t), gamma * self.lo), gamma * self.hi)

    def proj_cl_dom(self, t: float) -> float:
        lo_dom = -INF if self.lo > -INF else 0.0
        hi_dom = INF if self.hi < INF else 0.0
        return min(max(float(t), lo_dom), hi_dom)

    def conj_eval(self, t: float) -> float:
        return 0.0 if self.lo <= t <= self.hi else INF

    def conjugate(self) -> IntervalIndicator:
        return IntervalIndicator(self.lo, self.hi)


def _interval_support(lo: float, hi: float, t: float) -> float:
    if t > 0.0:
        return hi * t if hi < INF else INF
    if t < 0.0:
        return lo * t if lo > -INF else INF
    return 0.0


@dataclass(frozen=True)
class HuberScalar:
    """Quadratic-near-zero, linear-in-the-tails loss with slope ``alpha``.

    The quadratic branch carries the ``+ alpha**2 / 2`` offset that makes
    the conjugate vanish exactly on the boundary of its domain.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"slope must be positive, got {self.alpha}")

    def eval(self, t: float) -> float:
        a = self.alpha
        return a * abs(t) if abs(t) > a else 0.5 * (t * t + a * a)

    def prox(self, gamma: float, t: float) -> float:
        a = self.alpha
        if abs(t) <= a * (1.0 + gamma):
            return t / (1.0 + gamma)
        return t - math.copysign(gamma * a, t)

    def proj_cl_dom(self, t: float) -> float:
        return float(t)

    def conj_eval(self, t: float) -> float:
        a = self.alpha
        return 0.5 * (t * t - a * a) if abs(t) <= a else INF

    def support_cl_dom(self, t: float) -> float:
        return 0.0 if t == 0.0 else INF

    def conjugate(self) -> "HuberConjScalar":
        return HuberConjScalar(self.alpha)


@dataclass(frozen=True)
class HuberConjScalar:
    """(t**2 - alpha**2)/2 on [-alpha, alpha], +inf outside."""

    alpha: float

    def eval(self, t: float) -> float:
        a = self.alpha
        return 0.5 * (t * t - a * a) if abs(t) <= a else INF

    def prox(self, gamma: float, t: float) -> float:
        return math.copysign(min(abs(t) / (1.0 + gamma), self.alpha), t)

    def proj_cl_dom(self, t: float) -> float:
        return math.copysign(min(abs(t), self.alpha), t)

    def conj_eval(self, t: float) -> float:
        return HuberScalar(self.alpha).eval(t)

    def support_cl_dom(self, t: float) -> float:
        return self.alpha * abs(t)

    def conjugate(self) -> HuberScalar:
        return HuberScalar(self.alpha)


# ---------------------------------------------------------------------------
# base functions (vector level, by radial lifting)


def _cap_norm(x: Vec, radius: float) -> Vec:
    """Shrink ``x`` onto the ball of ``radius`` when rounding left it an ulp outside."""
    r = norm(x)
    if r <= radius:
        return x
    out = scale(x, radius / r)
    while norm(out) > radius:
        out = scale(out, 1.0 - 2.3e-16)
    return out


@dataclass(frozen=True)
class PowerBase:
    """phi = ||.||**p / p with conjugate ||.||**{p*} / p*."""

    p: float

    sign_class = SignClass.NONNEGATIVE_CONJUGATE

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.p}")

    @property
    def pstar(self) -> float:
        return self.p / (self.p - 1.0)

    @cached_property
    def _primal(self) -> RadialFunction:
        return RadialFunction(PowerScalar(self.p))

    @cached_property
    def _conj(self) -> RadialFunction:
        return RadialFunction(PowerScalar(self.pstar))

    def eval(self, x) -> float:
        return norm(x) ** self.p / self.p

    def conj_eval(self, xstar) -> float:
        return norm(xstar) ** self.pstar / self.pstar

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return radial_prox(self._conj, gamma, xstar)

    def proj_dom_conj(self, xstar) -> Vec:
        return as_vec(xstar)

    def rec_eval(self, x) -> float:
        # supercoercive: recession is 0 at the origin, +inf elsewhere
        return 0.0 if norm(x) == 0.0 else INF

    def prox_primal(self, gamma: float, x) -> Vec:
        return radial_prox(self._primal, gamma, x)


@dataclass(frozen=True)
class AbsBase:
    """phi = ||.||; conjugate is the indicator of the unit ball."""

    sign_class = SignClass.ZERO_INFTY_CONJUGATE

    def eval(self, x) -> float:
        return norm(x)

    def conj_eval(self, xstar) -> float:
        return 0.0 if norm(xstar) <= 1.0 else INF

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return self.proj_dom_conj(xstar)

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


@dataclass(frozen=True)
class HuberBase:
    """Radial robust loss with slope ``alpha``; conjugate range is [-alpha^2/2, 0]."""

    alpha: float

    sign_class = SignClass.NONPOSITIVE_CONJUGATE

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"slope must be positive, got {self.alpha}")

    @cached_property
    def _scalar(self) -> HuberScalar:
        return HuberScalar(self.alpha)

    def eval(self, x) -> float:
        return self._scalar.eval(norm(x))

    def conj_eval(self, xstar) -> float:
        r = norm(xstar)
        a = self.alpha
        return 0.5 * (r * r - a * a) if r <= a else INF

    def prox_conj(self, gamma: float, xstar) -> Vec:
        xstar = as_vec(xstar)
        r = norm(xstar)
        if r == 0.0:
            return xstar
        out = scale(xstar, min(r / (1.0 + gamma), self.alpha) / r)
        return _cap_norm(out, self.alpha)

    def proj_dom_conj(self, xstar) -> Vec:
        return _cap_norm(as_vec(xstar), self.alpha)

    def rec_eval(self, x) -> float:
        return self.alpha * norm(x)

    def prox_primal(self, gamma: float, x) -> Vec:
        x = as_vec(x)
        r = norm(x)
        if r == 0.0:
            return x
        return scale(x, self._scalar.prox(gamma, r) / r)


# ---------------------------------------------------------------------------
# scaling functions (scalar scale space)


@dataclass(frozen=True)
class RootScaling:
    """s(y) = y**q on the interval [0, upper], -inf elsewhere (0 < q < 1)."""

    q: float
    upper: float = INF

    case_kind = CaseKind.NEG_S_LOWER

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"root exponent must lie in (0, 1), got {self.q}")
        if not self.upper > 0.0:
            raise ValueError(f"interval upper end must be positive, got {self.upper}")

    def eval(self, y: float) -> float:
        if 0.0 <= y <= self.upper:
            return y ** self.q
        return -INF

    def env_eval(self, y: float) -> float:
        if 0.0 <= y <= self.upper:
            return -(y ** self.q)
        return INF

    def env_conj_eval(self, t: float) -> float:
        q, b = self.q, self.upper
        if t >= 0.0:
            return t * b + b ** q if b < INF else INF
        zstar = (q / (-t)) ** (1.0 / (1.0 - q))
        if zstar <= b:
            return (1.0 - q) * q ** (q / (1.0 - q)) * (-t) ** (-q / (1.0 - q))
        return t * b + b ** q

    def prox_env(self, weight: float, y: float) -> float:
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        if weight == 0.0:
            return self.proj_cl_S(y)
        z = root_scaling_prox_neg(weight, 1.0, self.q, y)
        return min(z, self.upper)

    def proj_cl_S(self, y: float) -> float:
        return min(max(float(y), 0.0), self.upper)

    def proj_cl_conv_S(self, y: float) -> float:
        return self.proj_cl_S(y)

    def support_cl_conv_S(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.upper * t if self.upper < INF else INF

    def proj_dom_env_conj(self, t: float) -> float:
        if self.upper < INF:
            return float(t)
        return min(float(t), 0.0)


@dataclass(frozen=True)
class SqrtScaling:
    """s(y) = sqrt(beta + y^2), positive everywhere, so its upper envelope is itself."""

    beta: float

    case_kind = CaseKind.S_LOWER

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def eval(self, y: float) -> float:
        return math.sqrt(self.beta + y * y)

    def env_eval(self, y: float) -> float:
        return math.sqrt(self.beta + y * y)

    def env_conj_eval(self, t: float) -> float:
        if abs(t) <= 1.0:
            return -math.sqrt(self.beta) * math.sqrt(1.0 - t * t)
        return INF

    def prox_env(self, weight: float, y: float) -> float:
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        if weight == 0.0:
            return float(y)
        return sqrt_scaling_prox(self.beta, weight, y)

    def proj_cl_S(self, y: float) -> float:
        return float(y)

    def proj_cl_conv_S(self, y: float) -> float:
        return float(y)

    def support_cl_conv_S(self, t: float) -> float:
        return 0.0 if t == 0.0 else INF

    def proj_dom_env_conj(self, t: float) -> float:
        return min(max(float(t), -1.0), 1.0)


@dataclass(frozen=True)
class IdentityScaling:
    """The linear scale s(y) = y, optionally capped to the interval [0, upper]."""

    upper: float = INF

    case_kind = CaseKind.NEG_S_LOWER

    def __post_init__(self):
        if not self.upper > 0.0:
            raise ValueError(f"interval upper end must be positive, got {self.upper}")

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

    def proj_cl_S(self, y: float) -> float:
        return min(max(float(y), 0.0), self.upper)

    def proj_cl_conv_S(self, y: float) -> float:
        return self.proj_cl_S(y)

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


def power_prox_conj(p: float, gamma: float, xi: float, xnorm: float) -> float:
    """The unique ``rho >= 0`` with ``xnorm = rho*gamma + xi*rho**(p*-1)``.

    Equivalently the prox of ``(xi/gamma) * |.|**{p*}/p*`` at ``xnorm/gamma``;
    the left side is strictly increasing in ``rho``, so the solution is
    pinned by monotone iteration to residual ``1e-12 * (1 + xnorm)``.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if xi < 0.0:
        raise ValueError(f"conjugate weight must be nonnegative, got {xi}")
    if xnorm < 0.0:
        raise ValueError(f"norm must be nonnegative, got {xnorm}")
    if not p > 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    pstar = p / (p - 1.0)
    return _power_prox(pstar, xi / gamma, xnorm / gamma)


def root_scaling_prox_neg(mu: float, gamma: float, q: float, y: float) -> float:
    """The unique ``z > 0`` with ``y = z - q*gamma*mu*z**(q-1)``.

    This is the prox of ``gamma*mu*(-psi)`` at ``y`` for ``psi`` the q-th
    root on the nonnegative half line.  Newton on the increasing
    ``F(t) = exp(t) - w(t) - y`` in ``t = log z``, with
    ``w(t) = exp(log(q*gamma*mu) + (q-1)*t)``, starts from the
    dominant-balance end of a bracket of width ``log 2`` (``y >= 0``) or
    ``log 2 / (1-q)`` (``y < 0``), bisects when a step leaves the bracket,
    and stops once a step is within four rounding units of ``t`` and of
    ``F``.  No power of ``z`` is taken, so nothing underflows; the result
    ``exp(t)`` is 0 only for a root below the smallest double.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"root exponent must lie in (0, 1), got {q}")
    if mu <= 0.0 or gamma <= 0.0:
        raise ValueError(f"weights must be positive, got mu={mu}, gamma={gamma}")
    a = 1.0 - q
    log_c = math.log(q) + math.log(gamma) + math.log(mu)
    t_bal = log_c / (1.0 + a)  # the root at y == 0, where exp(t) == w(t)
    if y >= 0.0:
        # F < 0 at log y and at t_bal; above both, exp(t) >= y, w, so z = y + w <= 2 e^t_lo
        t = t_lo = max(math.log(y), t_bal) if y > 0.0 else t_bal
        t_hi = t_lo + math.log(2.0)
    else:
        # F > 0 at t_bal and where w == -y; below both, w >= exp(t), -y, so w(z) <= 2 w(t_hi)
        t = t_hi = min(t_bal, (log_c - math.log(-y)) / a)
        t_lo = t_hi - math.log(2.0) / a
    f_lo, f_hi = -INF, INF  # not evaluated yet
    for _ in range(200):
        ez = math.exp(t)
        w = math.exp(log_c - a * t)
        f = ez - w - y
        dfdt = ez + a * w
        dt = f / dfdt
        if abs(dt) <= 4.0 * _EPS * (abs(t) + (ez + w + abs(y)) / dfdt):
            return math.exp(t - dt)
        if f > 0.0:
            t_hi, f_hi = t, f
        else:
            t_lo, f_lo = t, f
        t -= dt
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
    raise RootFindError(
        "no convergence of Newton in log z", math.exp(t_lo), math.exp(t_hi), f_lo, f_hi,
    )


def sqrt_scaling_prox(beta: float, mu: float, y: float) -> float:
    """Prox of ``mu * sqrt(beta + (.)**2)`` at ``y``, by monotone Newton.

    The prox point is ``sign(y) * r`` for the root ``r`` in ``[0, |y|]`` of
    ``g(r) = r - |y| + mu*r/sqrt(beta + r**2)``.  On ``r >= 0``, ``g`` is
    strictly increasing (``g' = 1 + mu*beta/(beta + r**2)**1.5``) and
    concave (``g'' = -3*mu*beta*r/(beta + r**2)**2.5``), so every tangent
    lies above ``g`` and a Newton step from a point with ``g <= 0`` lands
    again where ``g <= 0``: from ``r0 = max(0, |y| - mu)``, where
    ``g(r0) <= 0``, the iterates rise monotonically to the root and never
    overshoot.  Clamping to ``[r0, |y|]`` only absorbs rounding.  The loop
    stops once a step is within four rounding units of ``r`` and of ``g``,
    and returns the point after that step.  The returned point lies between
    the last evaluated one and the root, so the stationarity residual there,
    checked against ``1e-10 * (1 + |y| + mu)``, bounds the one returned.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if mu < 0.0:
        raise ValueError(f"weight must be nonnegative, got {mu}")
    a = abs(y)
    r = r0 = max(0.0, a - mu)
    for _ in range(200):
        ss = beta + r * r
        w = mu / math.sqrt(ss)
        g = r - a + w * r
        dg = 1.0 + w * beta / ss
        dr = g / dg
        converged = abs(dr) <= 4.0 * _EPS * (r + (r + a + w * r) / dg)
        r = min(max(r - dr, r0), a)
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

_BASES = {
    "power": lambda params: PowerBase(p=float(params["p"])),
    "huber": lambda params: HuberBase(alpha=float(params.get("alpha", 1.0))),
    "abs": lambda params: AbsBase(),
}


def _interval_upper(params) -> float:
    if "interval" in params:
        lo, hi = params["interval"]
        if float(lo) != 0.0:
            raise ValueError("interval must start at 0")
        return INF if hi is None else float(hi)
    upper = params.get("upper")
    return INF if upper is None else float(upper)


_SCALINGS = {
    "root": lambda params: RootScaling(q=float(params["q"]), upper=_interval_upper(params)),
    "sqrt": lambda params: SqrtScaling(beta=float(params.get("beta", 1.0))),
    "identity-interval": lambda params: IdentityScaling(upper=_interval_upper(params)),
}


def make_base(name: str, params: dict | None = None):
    try:
        factory = _BASES[name]
    except KeyError:
        raise ValueError(f"unknown base function {name!r}; choose from {sorted(_BASES)}")
    return factory(params or {})


def make_scaling(name: str, params: dict | None = None):
    try:
        factory = _SCALINGS[name]
    except KeyError:
        raise ValueError(f"unknown scaling function {name!r}; choose from {sorted(_SCALINGS)}")
    return factory(params or {})
