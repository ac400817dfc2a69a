"""Prox of a scaled perspective function.

The computation dispatches on the sign class of the base conjugate.  The
zero-or-infinity class decouples into a base prox and a scale projection.
The signed classes work with two nonincreasing value curves of a weight
``v >= 0`` (weight 0 meaning projection):

- the base curve ``B(v) = phi*(prox_{(v/gamma) phi*}(x/gamma))``;
- the scale curve ``S(v) = env(prox_{gamma v env}(y))``, with ``env`` the
  scaling's convex envelope.

The multiplier ``eta`` drives B for a nonnegative conjugate (case i) and
S for a nonpositive one (case iii); the other curve takes the driven
curve's value, so ``T(eta) = inner(outer(eta)) + eta`` in both cases.
One pass tests the regions the same way in both cases and assembles the
prox where a closed form applies: region 1 when both curves vanish at
weight 0, region 2 when the inner curve vanishes at the outer curve's
weight-0 value, region 3 when the outer curve vanishes at minus the inner
curve's weight-0 value (that value is ``eta``).  Region 4 finds the root
of ``T`` by a monotone one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import INF, SignClass, Vec, negligible, norm, scale
from .perspective import PerspectivePair, prox_fenchel_gap
from .roots import RootFindError, solve_bracketed


class CaseLabel(Enum):
    OMEGA1 = "Omega1"
    OMEGA2 = "Omega2"
    OMEGA3 = "Omega3"
    OMEGA4 = "Omega4"
    XI1 = "Xi1"
    XI2 = "Xi2"
    XI3 = "Xi3"
    XI4 = "Xi4"
    CASE_II = "CaseII"


@dataclass(frozen=True)
class RootConfig:
    """Tolerances of the multiplier root-find; region tests use ``core.negligible``."""

    eta_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        for name in ("eta_tol", "residual_tol"):
            value = getattr(self, name)
            if not 0.0 < value < INF:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class ProxResult:
    """Prox point plus diagnostics.

    ``eta`` is the coupling multiplier (0 on the closed-form regions with
    vanishing scale value), ``root_iterations`` counts root-finder steps,
    and ``certificate_gap`` is the Fenchel residual of the output, checked
    independently of the path that produced it.
    """

    p: Vec
    q: float
    eta: float
    label: CaseLabel
    root_iterations: int
    certificate_gap: float


DEFAULT_CONFIG = RootConfig()

# region labels of the signed cases, keyed by "the multiplier drives B"
_LABELS = {
    True: (CaseLabel.OMEGA1, CaseLabel.OMEGA2, CaseLabel.OMEGA3, CaseLabel.OMEGA4),
    False: (CaseLabel.XI1, CaseLabel.XI2, CaseLabel.XI3, CaseLabel.XI4),
}

# multiplier brackets wider than this are narrowed in log space before Brent
_WIDE_BRACKET = 2.0 ** 32


def _pull_back(x: Vec, gamma: float, xg: Vec, d: Vec) -> Vec:
    """``x - gamma * d`` with exact zeros where ``d`` left ``x/gamma`` unmoved.

    Componentwise ``gamma * (x_i / gamma)`` rounds away from ``x_i``, which
    would leave one-ulp junk where the difference is exactly zero in real
    arithmetic (and the recession indicator in the certificate rejects any
    nonzero junk).
    """
    return tuple([
        0.0 if di == gi and gi != 0.0 else xi - gamma * di
        for xi, gi, di in zip(x, xg, d)
    ])


def _curves(pair: PerspectivePair, gamma: float, x: Vec, y: float, base_drives: bool):
    """``(x/gamma, outer, inner)``: the curve the multiplier drives and the
    other one, each as a ``(point, value)`` pair of functions; the curve at
    weight ``v`` is ``value(point(v))``.
    """
    base, scaling = pair.base, pair.scaling
    xg = scale(x, 1.0 / gamma)

    # bound through default arguments, which are cheaper to set up than
    # closure cells on a path that runs once per prox call
    def b_point(v: float, base=base, gamma=gamma, xg=xg) -> Vec:
        # the prox of (v/gamma) phi*, the projection onto cl dom phi* at 0
        w = v / gamma
        return base.prox_conj(w, xg) if w != 0.0 else base.proj_dom_conj(xg)

    def s_point(v: float, prox_env=scaling.prox_env, gamma=gamma, y=y) -> float:
        return prox_env(gamma * v, y)

    b, s = (b_point, base.conj_eval), (s_point, scaling.env_eval)
    return (xg, b, s) if base_drives else (xg, s, b)


def _signed_pass(pair, gamma: float, x: Vec, y: float, base_drives: bool):
    """The region tests, and the closed-form points where they select one.

    Returns ``(x/gamma, outer, inner, region, outer point, inner point,
    eta)``.  Region 4, the root region, has no points, and its last entry is
    ``T(0)`` where the tests computed it (else None).  Zero tests are
    ``core.negligible`` at the size of the curve's argument: ``x/gamma``
    for B, ``y`` for S.  A conjugate value of +inf at the projected point
    is not zero, so it defers to the root region, whose prox calls never
    leave the conjugate domain.
    """
    xg, outer, inner = _curves(pair, gamma, x, y, base_drives)
    (o_point, o_value), (i_point, i_value) = outer, inner
    o_ref, i_ref = (norm(xg), y) if base_drives else (y, norm(xg))
    o_pt = o_point(0.0)
    o0 = o_value(o_pt)
    i_pt = i_point(0.0)
    i0 = i_value(i_pt)
    o_zero, i_zero = negligible(o0, o_ref), negligible(i0, i_ref)
    if o_zero and i_zero:
        return xg, outer, inner, 1, o_pt, i_pt, 0.0
    t0 = None
    if not o_zero and 0.0 < o0 < INF:
        i_pt2 = i_point(o0)
        t0 = i_value(i_pt2)
        if negligible(t0, i_ref):
            return xg, outer, inner, 2, o_pt, i_pt2, 0.0
    if not i_zero and 0.0 < -i0 < INF:
        o_pt3 = o_point(-i0)
        if negligible(o_value(o_pt3), o_ref):
            return xg, outer, inner, 3, o_pt3, i_pt, -i0
    return xg, outer, inner, 4, None, None, t0


def _classify(pair, gamma, x, y, sign_class: SignClass) -> CaseLabel:
    x, y = pair.check_point(x, y)
    if pair.base.sign_class is not sign_class:
        raise ValueError(f"this classification needs a {sign_class.value} conjugate")
    base_drives = sign_class is SignClass.NONNEGATIVE_CONJUGATE
    return _LABELS[base_drives][_signed_pass(pair, gamma, x, y, base_drives)[3] - 1]


def classify_case_i(pair: PerspectivePair, gamma: float, x, y) -> CaseLabel:
    """Region of an input for a nonnegative-conjugate pair: the label of the
    pass ``prox_perspective`` runs on it."""
    return _classify(pair, gamma, x, y, SignClass.NONNEGATIVE_CONJUGATE)


def classify_case_iii(pair: PerspectivePair, gamma: float, x, y) -> CaseLabel:
    """Region of an input for a nonpositive-conjugate pair; see
    ``classify_case_i``."""
    return _classify(pair, gamma, x, y, SignClass.NONPOSITIVE_CONJUGATE)


def _solve_eta(
    T: Callable[[float], float],
    cfg: RootConfig,
    eta_hi: float | None,
    trace: Callable[[int, float, float, float, float], None] | None,
    t0: float | None,
) -> tuple[float, int]:
    if t0 is None:
        t0 = T(0.0)
    if t0 >= 0.0:
        return 0.0, 0
    hi = eta_hi if eta_hi is not None else max(1.0, -t0) + cfg.eta_tol
    fhi = T(hi)
    bracket_evals = 0
    while fhi < 0.0 and bracket_evals < 60:
        hi *= 2.0
        fhi = T(hi)
        bracket_evals += 1
    if fhi < 0.0:
        raise RootFindError("could not bracket the multiplier", 0.0, hi, t0, fhi)
    # -T(0) can exceed the root by many orders of magnitude (about 1e67
    # against 1e-3 for power(1.05)/root(0.5)); Brent's secant points then sit
    # on hi and it only bisects, so a wide bracket is bisected in log space
    # first, with eta_tol standing in for a lower end of 0, until hi <= 2 lo
    lo, flo = 0.0, t0
    if hi > _WIDE_BRACKET:
        while hi > 2.0 * max(lo, cfg.eta_tol):
            mid = math.sqrt(max(lo, cfg.eta_tol) * hi)
            fmid = T(mid)
            bracket_evals += 1
            if fmid < 0.0:
                lo, flo = mid, fmid
            else:
                hi, fhi = mid, fmid
    res = solve_bracketed(
        T, lo, hi, flo, fhi,
        xtol=cfg.eta_tol, ftol=cfg.residual_tol, max_iter=cfg.max_iter,
        trace=trace,
    )
    return res.root, res.iterations + bracket_evals


def _residual(pair, gamma, x, y, base_drives: bool) -> Callable[[float], float]:
    x, y = pair.check_point(x, y)
    _, (o_point, o_value), (i_point, i_value) = _curves(pair, gamma, x, y, base_drives)

    def T(eta: float) -> float:
        return i_value(i_point(o_value(o_point(eta)))) + eta

    return T


def make_residual_case_i(pair: PerspectivePair, gamma: float, x, y) -> Callable[[float], float]:
    """The strictly increasing map ``T(eta) = S(B(eta)) + eta`` whose root is
    the case-(i) multiplier; both curves are nonincreasing, so their
    composition is nondecreasing."""
    return _residual(pair, gamma, x, y, True)


def make_residual_case_iii(pair: PerspectivePair, gamma: float, x, y) -> Callable[[float], float]:
    """Case-(iii) multiplier residual ``T(eta) = B(S(eta)) + eta``."""
    return _residual(pair, gamma, x, y, False)


def solve_eta_case_i(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG, *, eta_hi: float | None = None,
    trace=None, t0: float | None = None,
) -> tuple[float, int]:
    """Multiplier for the case-(i) root region: the unique ``eta >= 0``
    with ``T(eta) = 0``.

    The default bracket is ``[0, max(1, -T(0)) + eta_tol]``, valid because
    the composed curve term of ``T`` is nondecreasing; a doubling fallback
    guards round-off, and a bracket whose upper end exceeds 2**32 is
    bisected in log ``eta``, keeping a point where ``T < 0`` as its lower
    end, until the ends are within a factor 2 (of ``eta_tol`` for a lower
    end of 0).  Pass ``eta_hi`` to start from a different bracket, and
    ``t0`` when ``T(0)`` is already known.
    """
    return _solve_eta(make_residual_case_i(pair, gamma, x, y), cfg, eta_hi, trace, t0)


def solve_eta_case_iii(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG, *, eta_hi: float | None = None,
    trace=None, t0: float | None = None,
) -> tuple[float, int]:
    """Multiplier for the case-(iii) root region; see ``solve_eta_case_i``."""
    return _solve_eta(make_residual_case_iii(pair, gamma, x, y), cfg, eta_hi, trace, t0)


def prox_perspective(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG,
) -> ProxResult:
    """Prox of ``gamma * (perspective of base with scaling)`` at ``(x, y)``.

    Validates the input once, dispatches on the sign class of the base
    conjugate, resolves the region and assembles the prox in one pass over
    the two value curves (contract calls only), and attaches the Fenchel
    certificate of the output.
    """
    if not 0.0 < gamma < INF:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x, y = pair.check_point(x, y)
    sc = pair.base.sign_class
    if sc is SignClass.ZERO_INFTY_CONJUGATE:
        # decoupled: the base prox in x, the projection onto cl conv S in y
        p, q = pair.base.prox_primal(gamma, x), pair.scaling.prox_env(0.0, y)
        label, eta, iters = CaseLabel.CASE_II, 0.0, 0
    else:
        base_drives = sc is SignClass.NONNEGATIVE_CONJUGATE
        xg, outer, inner, region, o_pt, i_pt, eta = _signed_pass(pair, gamma, x, y, base_drives)
        iters = 0
        if region == 4:
            solve = solve_eta_case_i if base_drives else solve_eta_case_iii
            eta, iters = solve(pair, gamma, x, y, cfg, t0=eta)
            # the outer curve at eta; of the inner curve only its point
            o_pt = outer[0](eta)
            i_pt = inner[0](outer[1](o_pt))
        label = _LABELS[base_drives][region - 1]
        b_pt, q = (o_pt, i_pt) if base_drives else (i_pt, o_pt)
        p = _pull_back(x, gamma, xg, b_pt)
    gap = prox_fenchel_gap(pair, gamma, x, y, p, q)
    return ProxResult(p, q, eta, label, iters, gap)
