"""Test-side references: the scaled prox family, its certificates, and the
scalar functions and primal proxes that only the tests use.

``gamma (.) f`` means ``gamma * f`` for ``gamma > 0`` and the indicator of
``cl dom f`` for ``gamma == 0``, so its prox interpolates between the prox
of ``gamma * f`` and the projection onto ``cl dom f``.  Every object here
gives both through ``prox(gamma, .)``, as the package's profiles and
scalings do: its prox at weight 0 is the projection.  The Moreau identity
(criterion 5), the monotone value curves (criterion 6) and the unit tests
check the package's prox ingredients against what is built here from
them.  The ``general_*`` helpers are the vector helpers of
``persprox.core`` with only their general path, the reference for the
tuple fast paths; ``sub``, which only the tests use, is here too.  The
brute-force prox oracle at the end is the ground truth of criterion 3 and
of ``tests/test_oracle.py``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from persprox import (
    INF,
    CaseLabel,
    DimensionMismatch,
    HuberBase,
    IdentityScaling,
    PerspectivePair,
    PowerBase,
    ProxResult,
    RadialFunction,
    RootFindError,
    RootScaling,
    SignClass,
    SqrtScaling,
    Vec,
    prox_fenchel_gap,
    prox_perspective,
    radial_prox,
)
from persprox import catalog, perspective
from persprox.core import ZERO_NORM, as_vec, dot, norm, scale, slack_bound

# identity checks use absolute 1e-12 plus relative 1e-10 * (1 + magnitude)
ABS_TOL = 1e-12
REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# the scaled prox family and its certificates


def scaled_prox(f, gamma: float, x):
    """Prox of ``gamma (.) f`` at ``x``, ``f.prox(gamma, x)``: the projection onto
    ``cl dom f`` at 0."""
    if gamma < 0.0:
        raise ValueError(f"weight must be nonnegative, got {gamma}")
    return f.prox(gamma, x)


def moreau_decompose(f, gamma: float, x):
    """Split ``x = p + gamma * d`` with ``p`` the prox of ``gamma*f`` and
    ``d`` the prox of ``f*/gamma``, both computed independently.

    ``f`` must expose ``conjugate()`` returning a prox-capable conjugate.
    """
    if gamma <= 0.0:
        raise ValueError(f"weight must be positive, got {gamma}")
    conj_of = getattr(f, "conjugate", None)
    if conj_of is None:
        raise ValueError(f"{f!r} does not expose a conjugate prox")
    fstar = conj_of()
    p = f.prox(gamma, x)
    d = fstar.prox(1.0 / gamma, scale(x, 1.0 / gamma))
    return p, d


def prox_characterization_gap(f, gamma: float, x, p, probes=()) -> float:
    """Fenchel residual certifying ``p`` as the prox of ``gamma (.) f`` at ``x``.

    Returns ``(g(.)f)(p) + (g(.)f)*(x-p) - <p, x-p>``; nonnegative, and
    below round-off exactly at the prox.  When the conjugate of ``f`` is
    not evaluable the variational inequality is sampled over ``probes``
    (points of the ambient space) instead, giving only a lower bound.
    """
    if gamma < 0.0:
        raise ValueError(f"weight must be nonnegative, got {gamma}")
    w = sub(x, p)
    val = _scaled_value(f, gamma, p)
    conj = _scaled_conj_value(f, gamma, w)
    if conj is not None:
        if val == INF or conj == INF:
            return INF
        return val + conj - dot(p, w)
    # fallback: sup over probes of <y - p, x - p> + (g(.)f)(p) - (g(.)f)(y)
    lb = 0.0
    for y in probes:
        fy = _scaled_value(f, gamma, y)
        if fy == INF:
            continue
        lb = max(lb, dot(sub(y, p), w) + val - fy)
    return lb


def _scaled_value(f, gamma: float, p) -> float:
    if gamma == 0.0:
        inside = norm(sub(p, f.prox(0.0, p))) <= ABS_TOL + REL_TOL * (1.0 + norm(p))
        return 0.0 if inside else INF
    v = f.eval(p)
    return INF if v == INF else gamma * v


def _scaled_conj_value(f, gamma: float, w) -> float | None:
    if gamma == 0.0:
        support = getattr(f, "support_cl_dom", None)
        return None if support is None else support(w)
    conj_eval = getattr(f, "conj_eval", None)
    if conj_eval is None:
        return None
    v = conj_eval(scale(w, 1.0 / gamma))
    return INF if v == INF else gamma * v


def prox_value_curve(f, x, gammas) -> list[float]:
    """Values ``f(prox of gamma (.) f at x)`` along ascending ``gammas``.

    The curve is nonincreasing and continuous in the weight.
    """
    gammas = list(gammas)
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("weights must be sorted ascending")
    return [f.eval(scaled_prox(f, g, x)) for g in gammas]


def fenchel_young_gap(f, x, xstar) -> float:
    """Return ``f(x) + f*(x*) - <x, x*>``.

    Nonnegative for any proper ``f``; zero exactly when ``x*`` is a
    subgradient of ``f`` at ``x``.  ``f`` must expose ``eval`` and
    ``conj_eval``.
    """
    inner = dot(x, xstar)  # raises on dimension mismatch before any eval
    val = f.eval(x)
    conj = f.conj_eval(xstar)
    if val == INF or conj == INF:
        return INF
    return val + conj - inner


def vector_lift_certificate_gap(pair, gamma: float, x, y: float, p, q: float) -> float:
    """``perspective.certificate_gap`` as it read ``phi*`` through the base's
    vector methods: ``proj_dom_conj`` at every ``x*``, then ``conj_eval``.

    The reference for the profile path, which gives the same gap bit for
    bit wherever ``||x*||`` lies in the domain of the base's conjugate
    profile.  Where rounding leaves ``x*`` outside it, the profile path
    pulls the norm in and rescales ``x*`` once, while this one projects the
    vector (``huber`` and ``abs`` then cap it onto the ball), so the two
    gaps differ by rounding.  ``(x, y)`` and ``(p, q)`` are checked points.
    """
    size = norm(x) / gamma
    xstar = scale(sub(x, p), 1.0 / gamma)
    ystar = (y - q) / gamma
    proj = pair.base.proj_dom_conj(xstar)
    # the projection returns xstar itself when it is already in the domain
    if proj is not xstar and norm(sub(proj, xstar)) <= slack_bound(size):
        xstar = proj
    val = perspective._perspective_value(pair, p, q)
    conj = perspective._conj_value(pair, pair.base.conj_eval(xstar), ystar, size)
    if val == INF or conj == INF:
        return INF
    return val + conj - dot(p, xstar) - q * ystar


def linear_perspective_eval(phi, x, t: float) -> float:
    """Classical perspective with linear scaling: ``t * phi(x/t)`` for
    ``t > 0``, the recession of ``phi`` at ``t == 0``, +inf for ``t < 0``."""
    x = as_vec(x)
    t = float(t)
    if t > 0.0:
        return t * phi.eval(scale(x, 1.0 / t))
    if t == 0.0:
        return phi.rec_eval(x)
    return INF


def radial_prox_value(phi: RadialFunction, gamma: float, x) -> float:
    """Value of ``phi`` at the radial prox, computed on the scalar side."""
    r = norm(as_vec(x))
    if r < ZERO_NORM:  # radial_prox's zero-vector guard
        return phi.phi1d.eval(0.0)
    return phi.phi1d.eval(scaled_prox(phi.phi1d, gamma, r))


# ---------------------------------------------------------------------------
# the scaling identity of the signed catalog pairs


def multiplier_residual(pair, gamma: float, x, y: float):
    """The multiplier residual ``T(eta) = inner(outer(eta)) + eta`` of a
    signed pair at ``(x, y)``, composed forwards: the outer prox at weight
    ``eta``, then the inner prox at the outer value as its weight, from the
    public ``prox``/``eval`` of the base's conjugate profile (at ``r =
    ||x/gamma||``, weights over ``gamma``, the projection at weight 0) and
    ``prox_env``/``env_eval`` of the scaling (weights times ``gamma``).
    The base curve is the outer one for a nonnegative conjugate, the scale
    curve for a nonpositive one.  Both curves are nonincreasing, so ``T' >=
    1`` and the multiplier is the root in ``[0, -T(0)]``; the package
    searches the same root on the inner curve point instead."""
    x, y = pair.check_point(x, y)
    h, scaling = pair.base.conj.phi1d, pair.scaling
    r = norm(x) / gamma

    def base_curve(v):
        return h.eval(h.prox(v / gamma, r))

    def scale_curve(v):
        return scaling.env_eval(scaling.prox_env(gamma * v, y))

    if pair.base.sign_class is SignClass.NONNEGATIVE_CONJUGATE:
        outer, inner = base_curve, scale_curve
    else:
        outer, inner = scale_curve, base_curve
    return lambda eta: inner(outer(eta)) + eta


def rescaled_pair(pair, lam: float):
    """``(k, pair_lam)`` with ``f(lam * z) = lam**k * f_lam(z)``, where ``f`` and
    ``f_lam`` are the perspectives of ``pair`` and ``pair_lam``; None for a pair
    with no law here (an abs base).  The laws:

    - power(p)/root(q, b): k = p + q - pq, and the upper end becomes b/lam;
    - power(p)/identity: k = 1, and the upper end becomes upper/lam;
    - huber(alpha)/sqrt(beta): k = 1, and beta becomes beta/lam**2.
    """
    base, scaling = pair.base, pair.scaling
    if isinstance(base, PowerBase) and isinstance(scaling, RootScaling):
        k = base.p + scaling.q - base.p * scaling.q
        twin = RootScaling(scaling.q, scaling.upper / lam)
    elif isinstance(base, PowerBase) and isinstance(scaling, IdentityScaling):
        k, twin = 1.0, IdentityScaling(scaling.upper / lam)
    elif isinstance(base, HuberBase) and isinstance(scaling, SqrtScaling):
        k, twin = 1.0, SqrtScaling(scaling.beta / (lam * lam))
    else:
        return None
    return k, PerspectivePair(base, twin, pair.n)


def identity_gap(pair, gamma: float, x, y: float, out=None) -> float | None:
    """``||out - lam * twin|| / lam`` at ``lam = ||(x, y)||``, for ``out`` the prox
    of ``gamma * f`` at ``(x, y)`` (computed here unless given) and ``twin`` that
    of ``gamma * lam**(k - 2) * f_lam`` at ``(x, y) / lam`` (``rescaled_pair``).
    The identity ``prox_{gamma f}(lam z) = lam * prox_{gamma lam**(k-2) f_lam}(z)``
    is exact algebra, as the quadratic term scales by ``lam**2``, so the gap is
    0 at the exact prox.  None for a pair with no law, or where either call raises."""
    lam = math.hypot(*x, y)
    law = rescaled_pair(pair, lam)
    if law is None:
        return None
    k, twin_pair = law
    try:
        if out is None:
            out = prox_perspective(pair, gamma, x, y)
        twin = prox_perspective(twin_pair, gamma * lam ** (k - 2.0),
                                tuple([c / lam for c in x]), y / lam)
    except (ArithmeticError, RootFindError):
        return None
    diff = [a - lam * b for a, b in zip(out.p, twin.p)]
    return math.hypot(*diff, out.q - lam * twin.q) / lam


# ---------------------------------------------------------------------------
# scalar functions with their conjugates


class PowerScalar(catalog.PowerScalar):
    """The package's ``|t|**p / p`` with its conjugate side: the family is
    self-dual under ``p <-> p/(p-1)``."""

    @property
    def pstar(self) -> float:
        return self.p / (self.p - 1.0)

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

    def conj_eval(self, t: float) -> float:
        return _interval_support(self.lo, self.hi, t)

    def support_cl_dom(self, t: float) -> float:
        return _interval_support(self.lo, self.hi, t)

    def conjugate(self) -> "SupportInterval":
        return SupportInterval(self.lo, self.hi)


@dataclass(frozen=True)
class SupportInterval:
    """Support function of a bounded [lo, hi], finite everywhere; prox by
    Moreau against the clamp."""

    lo: float
    hi: float

    def __post_init__(self):
        if not -INF < self.lo <= self.hi < INF:
            raise ValueError(f"need a bounded nonempty interval, got [{self.lo}, {self.hi}]")

    def eval(self, t: float) -> float:
        return _interval_support(self.lo, self.hi, t)

    def prox(self, gamma: float, t: float) -> float:
        return t - min(max(float(t), gamma * self.lo), gamma * self.hi)

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
    """Quadratic-near-zero, linear-in-the-tails loss with slope ``alpha``:
    the profile of ``HuberBase``.

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

    def conj_eval(self, t: float) -> float:
        a = self.alpha
        return 0.5 * (t * t - a * a) if abs(t) <= a else INF

    def support_cl_dom(self, t: float) -> float:
        return 0.0 if t == 0.0 else INF

    def conjugate(self) -> "HuberConjScalar":
        return HuberConjScalar(self.alpha)


class HuberConjScalar(catalog.HuberConjScalar):
    """The package's conjugate profile of ``HuberBase``, (t**2 - alpha**2)/2
    on [-alpha, alpha] and +inf outside, with its conjugate side."""

    def conj_eval(self, t: float) -> float:
        return HuberScalar(self.alpha).eval(t)

    def support_cl_dom(self, t: float) -> float:
        return self.alpha * abs(t)

    def conjugate(self) -> HuberScalar:
        return HuberScalar(self.alpha)


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
    return catalog.PowerScalar(p / (p - 1.0)).prox(xi / gamma, xnorm / gamma)


# ---------------------------------------------------------------------------
# primal proxes of the catalog bases, and prox-capable providers


def prox_primal(base, gamma: float, x):
    """Prox of ``gamma * phi`` for a catalog base: the radial lift of its
    scalar profile for the power and Huber bases, the base's own for abs."""
    if isinstance(base, PowerBase):
        return radial_prox(RadialFunction(PowerScalar(base.p)), gamma, x)
    if isinstance(base, HuberBase):
        return radial_prox(RadialFunction(HuberScalar(base.alpha)), gamma, x)
    return base.prox_primal(gamma, x)


def case_ii_prox(pair, gamma: float, x, y) -> ProxResult:
    """Decoupled prox for zero-or-infinity conjugates: base prox in ``x``,
    projection onto the closed scale hull in ``y``."""
    x, y = pair.check_point(x, y)
    if pair.base.sign_class is not SignClass.ZERO_INFTY_CONJUGATE:
        raise ValueError("the decoupled prox needs a zero-or-infinity conjugate")
    p, q = pair.base.prox_primal(gamma, x), pair.scaling.prox_env(0.0, y)
    gap = prox_fenchel_gap(pair, gamma, x, y, p, q)
    return ProxResult(p, q, 0.0, CaseLabel.CASE_II, 0, gap)


@dataclass(frozen=True)
class EnvelopeProvider:
    """Adapter exposing a scaling function's envelope as a prox-capable object."""

    scaling: object

    def eval(self, y: float) -> float:
        return self.scaling.env_eval(y)

    def prox(self, gamma: float, y: float) -> float:
        return self.scaling.prox_env(gamma, y)

    def conj_eval(self, t: float) -> float:
        return self.scaling.env_conj_eval(t)

    def support_cl_dom(self, t: float) -> float:
        # support of cl S and of cl conv S coincide
        return self.scaling.support_cl_conv_S(t)


@dataclass(frozen=True)
class ConjugateProvider:
    """The conjugate ``phi*`` of a base function as a prox-capable object."""

    base: object

    def eval(self, x):
        return self.base.conj_eval(x)

    def prox(self, gamma: float, x):
        return self.base.prox_conj(gamma, x)

    def conj_eval(self, x):
        return self.base.eval(x)

    def conjugate(self):
        return PrimalProvider(self.base)


@dataclass(frozen=True)
class PrimalProvider:
    """A catalog base function ``phi`` as a prox-capable object.

    Assumes ``dom phi`` is the whole space (true of every catalog base).
    """

    base: object

    def eval(self, x):
        return self.base.eval(x)

    def prox(self, gamma: float, x):
        return prox_primal(self.base, gamma, x)

    def conj_eval(self, x):
        return self.base.conj_eval(x)

    def support_cl_dom(self, x):
        return 0.0 if norm(x) == 0.0 else INF

    def conjugate(self):
        return ConjugateProvider(self.base)


# ---------------------------------------------------------------------------
# the vector helpers of persprox.core without their tuple fast paths


def general_as_vec(x):
    if isinstance(x, (int, float)):
        entries = (float(x),)
    else:
        entries = tuple([float(c) for c in x])
    if not entries:
        raise ValueError("a vector needs at least one entry")
    for c in entries:
        if not math.isfinite(c):
            raise ValueError(f"vector entries must be finite, got {c!r}")
    return entries


def general_norm(x) -> float:
    if isinstance(x, (int, float)):
        return abs(float(x))
    return math.hypot(*x)


def general_dot(x, y) -> float:
    xs = isinstance(x, (int, float))
    ys = isinstance(y, (int, float))
    if xs and ys:
        return float(x) * float(y)
    if xs or ys or len(x) != len(y):
        raise DimensionMismatch(f"incompatible operands: {x!r} vs {y!r}")
    return sum([a * b for a, b in zip(x, y)])


def sub(x, y):
    """``x - y``, entrywise for two vectors."""
    if type(x) is not tuple and isinstance(x, (int, float)):
        return float(x) - float(y)
    if len(x) != len(y):
        raise DimensionMismatch(f"incompatible operands: {x!r} vs {y!r}")
    return tuple(map(operator.sub, x, y))


def general_scale(x, a: float):
    if isinstance(x, (int, float)):
        return float(x) * a
    return tuple([c * a for c in x])


def general_check_point(n: int, x, y):
    """``PerspectivePair.check_point`` for base dimension ``n``, on the general path."""
    x = general_as_vec(x)
    if len(x) != n:
        raise DimensionMismatch(f"expected a base point of dimension {n}, got {len(x)}")
    if not isinstance(y, (int, float)):
        y = general_as_vec(y)
        if len(y) != 1:
            raise DimensionMismatch("the scale space is one-dimensional")
        y = y[0]
    if not math.isfinite(y):
        raise ValueError(f"the scale component must be finite, got {y!r}")
    return x, float(y)

# ---------------------------------------------------------------------------
# the brute-force prox oracle
#
# An independent ground truth for prox computations on the product space,
# by coarse grid scan plus cyclic coordinate-wise golden-section refinement.
# Convexity of the objective makes every coordinate slice unimodal, which
# is all golden section needs; +inf values off the domain are handled by
# anchoring the search on a finite point.
#
# The search runs in the plane of x's ray and the scale axis, whatever the
# base dimension.  That is exact when the evaluator is invariant under
# every rotation of the base space that fixes x, as the perspective of a
# radial base is: the prox is unique, so it commutes with those rotations
# and lies in their fixed plane.  The oracle uses no region formula of the
# solver.  Its tolerances are absolute: they do not scale with ||(x, y)||
# or gamma.


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
