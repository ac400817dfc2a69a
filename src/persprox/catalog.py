"""Concrete base and scaling functions with closed-form prox ingredients.

The scalar conjugate profiles come first (each signed base's conjugate is
the radial lift of one), then the vector-level base functions, then the
scaling functions.  The scalar equation solvers at the bottom are the only
iterative pieces.
"""

from __future__ import annotations

import math
from .core import INF, CaseKind, SignClass, Value, Vec, as_vec, norm, scale, zeros_like
from .radial import RadialFunction, radial_prox
# real_quartic_roots and solve_bracketed are no longer called here; they stay
# module globals because perfbench/tracing.py wraps them in persprox.catalog by name
from .roots import RootFindError, real_quartic_roots, solve_bracketed  # noqa: F401

_EPS = 2.0 ** -52  # machine epsilon
_TINY = 2.0 ** -1074  # smallest subnormal

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
    if 0.5 * hi == 0.0:
        # the root is within the smallest subnormal of 0, its nearest double
        # (a start at rho = 0 would take 0.0 ** (r - 2) with r < 2 below)
        return 0.0
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


class PowerScalar(Value):
    """t -> |t|**p / p for p > 1: the conjugate profile of ``PowerBase`` at ``p*``."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 1.0 < p < INF:
            raise ValueError(f"exponent must be finite and exceed 1, got {p}")
        object.__setattr__(self, "p", p)

    def eval(self, t: float) -> float:
        try:
            return abs(t) ** self.p / self.p
        except OverflowError:  # the value exceeds the largest double
            return INF

    def prox(self, gamma: float, t: float) -> float:
        a = abs(t)
        if gamma == 0.0 or a == 0.0:
            rho = a
        elif self.p == 2.0:
            rho = a / (1.0 + gamma)
        else:
            rho = _solve_power(self.p, gamma, a)
        return rho if t > 0.0 else -rho if t < 0.0 else 0.0

    def proj_cl_dom(self, t: float) -> float:
        return float(t)

    def slope(self, gamma: float, t: float, rho: float) -> float:
        # -g'**2 / (1 + gamma * g'') at |rho|, g' = |rho|**(p - 1), g'' = (p - 1) * g' / |rho|
        rho = abs(rho)
        if rho == 0.0:
            return 0.0
        d1 = rho ** (self.p - 1.0)
        return -d1 * d1 / (1.0 + gamma * (self.p - 1.0) * d1 / rho)


class HuberConjScalar(Value):
    """The conjugate profile of ``HuberBase``: (t**2 - alpha**2) / 2 on [-alpha, alpha]."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        object.__setattr__(self, "alpha", alpha)

    def eval(self, t: float) -> float:
        a = self.alpha
        return 0.5 * (t * t - a * a) if abs(t) <= a else INF

    def prox(self, gamma: float, t: float) -> float:
        return math.copysign(min(abs(t) / (1.0 + gamma), self.alpha), t)

    def proj_cl_dom(self, t: float) -> float:
        return min(t, self.alpha) if t >= 0.0 else max(t, -self.alpha)

    def slope(self, gamma: float, t: float, rho: float) -> float:
        # -h'**2 / (1 + gamma * h'') = -rho**2 / (1 + gamma), 0 on the clamp at alpha
        return 0.0 if abs(rho) >= self.alpha else -rho * rho / (1.0 + gamma)


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


class PowerBase(Value):
    """phi = ||.||**p / p with conjugate ||.||**{p*} / p*.

    ``conj`` is the radial lift of the conjugate profile ``PowerScalar(p*)``.
    """

    __slots__ = ("p", "conj")
    _fields = ("p",)

    sign_class = SignClass.NONNEGATIVE_CONJUGATE

    def __init__(self, p: float):
        if not 1.0 < p < INF:
            raise ValueError(f"exponent must be finite and exceed 1, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "conj", RadialFunction(PowerScalar(p / (p - 1.0))))

    def eval(self, x) -> float:
        return norm(x) ** self.p / self.p

    def conj_eval(self, xstar) -> float:
        return self.conj.eval(xstar)

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return radial_prox(self.conj, gamma, xstar)

    def proj_dom_conj(self, xstar) -> Vec:
        return radial_prox(self.conj, 0.0, xstar)

    def rec_eval(self, x) -> float:
        # supercoercive: recession is 0 at the origin, +inf elsewhere
        return 0.0 if norm(x) == 0.0 else INF


class AbsBase(Value):
    """phi = ||.||; conjugate is the indicator of the unit ball."""

    __slots__ = ()

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


class HuberBase(Value):
    """Radial robust loss with slope ``alpha``; ``conj`` lifts ``HuberConjScalar(alpha)``."""

    __slots__ = ("alpha", "conj")
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

    def eval(self, x) -> float:
        # quadratic near 0 with the + alpha**2/2 offset that makes the
        # conjugate vanish on the boundary of its domain, linear in the tails
        r = norm(x)
        a = self.alpha
        return a * r if r > a else 0.5 * (r * r + a * a)

    def conj_eval(self, xstar) -> float:
        return self.conj.eval(xstar)

    def prox_conj(self, gamma: float, xstar) -> Vec:
        return _cap_norm(radial_prox(self.conj, gamma, xstar), self.alpha)

    def proj_dom_conj(self, xstar) -> Vec:
        return _cap_norm(radial_prox(self.conj, 0.0, xstar), self.alpha)

    def rec_eval(self, x) -> float:
        return self.alpha * norm(x)


# ---------------------------------------------------------------------------
# scaling functions (scalar scale space)


class RootScaling(Value):
    """s(y) = y**q on the interval [0, upper], -inf elsewhere (0 < q < 1)."""

    __slots__ = ("q", "upper")

    case_kind = CaseKind.NEG_S_LOWER

    def __init__(self, q: float, upper: float = INF):
        if not 0.0 < q < 1.0:
            raise ValueError(f"root exponent must lie in (0, 1), got {q}")
        if not upper > 0.0:
            raise ValueError(f"interval upper end must be positive, got {upper}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "upper", upper)

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
        # the maximiser (q / -t) ** (1 / (1 - q)) overflows; its power 1 - q does not
        if q / -t > b ** (1.0 - q):
            return t * b + b ** q
        try:
            return (1.0 - q) * q ** (q / (1.0 - q)) * (-t) ** (-q / (1.0 - q))
        except OverflowError:  # the value exceeds the largest double
            return INF

    def prox_env(self, weight: float, y: float) -> float:
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        if weight == 0.0:
            # max keeps its first argument on a tie, so -0.0 projects to 0.0
            return min(max(0.0, float(y)), self.upper)
        z = root_scaling_prox_neg(weight, 1.0, self.q, y)
        return min(z, self.upper)

    def env_slope(self, weight: float, y: float, z: float) -> float:
        # h(z) = -z**q: -h'(z)**2 / (1 + weight * h''(z)) with u = q * z**q =
        # -z * h'(z), so no power of z overflows: -u**2 / (z**2 + weight * (1 - q) * u);
        # 0 where z is clamped to the upper end or underflowed, NaN at weight 0 and z = 0
        if z >= self.upper:
            return 0.0
        if z == 0.0:
            return 0.0 if weight > 0.0 else math.nan
        q = self.q
        u = q * z ** q
        if z > 1.0:  # h'(z) = -u / z <= q
            c = u / z
            return -c * c / (1.0 + weight * (1.0 - q) * c / z)
        return -u * u / (z * z + weight * (1.0 - q) * u)

    def support_cl_conv_S(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.upper * t if self.upper < INF else INF

    def proj_dom_env_conj(self, t: float) -> float:
        if self.upper < INF:
            return float(t)
        return min(float(t), 0.0)


class SqrtScaling(Value):
    """s(y) = sqrt(beta + y^2), positive everywhere, so its upper envelope is itself."""

    __slots__ = ("beta",)

    case_kind = CaseKind.S_LOWER

    def __init__(self, beta: float):
        if not 0.0 < beta < INF:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        object.__setattr__(self, "beta", beta)

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

    def env_slope(self, weight: float, y: float, z: float) -> float:
        # h = sqrt(beta + z**2), s = h(z): h' = z / s, h'' = beta / s**3 = k**2 / s
        # with k = sqrt(beta) / s; hypot keeps s finite for huge z
        sb = math.sqrt(self.beta)
        s = math.hypot(sb, z)
        t, k = z / s, sb / s
        return -t * t / (1.0 + weight * k * k / s)

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

    def env_slope(self, weight: float, y: float, z: float) -> float:
        # -1 where y + weight lies inside [0, upper], 0 where it is clamped
        return -1.0 if 0.0 < z < self.upper else 0.0

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


def root_scaling_prox_neg(mu: float, gamma: float, q: float, y: float) -> float:
    """The unique ``z > 0`` with ``y = z - q*gamma*mu*z**(q-1)``.

    This is the prox of ``gamma*mu*(-psi)`` at ``y`` for ``psi`` the q-th
    root on the nonnegative half line.  Newton on the increasing
    ``F(t) = exp(t) - w(t) - y`` in ``t = log z``, with
    ``w(t) = exp(log(q*gamma*mu) + (q-1)*t)``, starts from the
    dominant-balance end of a bracket of width ``log 2`` (``y >= 0``) or
    ``log 2 / (1-q)`` (``y < 0``), bisects when a step leaves the bracket,
    and stops once a step is within four rounding units of ``t`` and of
    ``F``, or at the end of smaller ``|F|`` once no double lies inside the
    bracket (``F`` cancels to a few ulps of ``|y|``).  No power of ``z`` is taken, so nothing underflows; the result
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
            if t in (t_lo, t_hi):  # no double lies strictly inside the bracket
                return math.exp(t_lo if -f_lo < f_hi else t_hi)
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
    for _ in range(200):
        ss = beta + r * r
        w = mu / math.sqrt(ss)
        g = r - a + w * r
        dg = 1.0 + w * beta / ss
        dr = g / dg
        # four rounding units, or four of the smallest subnormal below 2**-1022
        converged = abs(dr) <= 4.0 * (_EPS * (r + (r + a + w * r) / dg) + _TINY)
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

def _number(value, name: str, default: float | None = None) -> float:
    """The parameter ``name`` as a float, ``default`` when it is absent
    (None) and has one; otherwise ``ValueError`` naming it."""
    if value is None:
        if default is None:
            raise ValueError(f"missing parameter {name!r}")
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
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
