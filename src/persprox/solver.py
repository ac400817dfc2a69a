"""Prox of a scaled perspective function.

The computation dispatches on the sign class of the base conjugate.  The
zero-or-infinity class decouples into a base prox and a scale projection.
The signed classes classify the input into one of four regions: three
carry closed forms, the fourth couples the base and scaling proxes
through a scalar multiplier found by a monotone one-dimensional
root-find.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import INF, SignClass, Vec, norm, scale
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
    """Tolerances for classification and the multiplier root-find."""

    eta_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_iter: int = 200
    classify_tol: float = 1e-12

    def __post_init__(self):
        if min(self.eta_tol, self.residual_tol, self.classify_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
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


def _is_zero(value: float, tol: float, ref: float) -> bool:
    return abs(value) <= tol * (1.0 + abs(ref))


def _prox_conj_scaled(base, weight: float, xg: Vec) -> Vec:
    """Prox of ``weight (.) phi*``: projection onto cl dom phi* at weight 0."""
    if weight == 0.0:
        return base.proj_dom_conj(xg)
    return base.prox_conj(weight, xg)


def _pull_back(x: Vec, gamma: float, xg: Vec, d: Vec) -> Vec:
    """``x - gamma * d`` with exact zeros where ``d`` left ``x/gamma`` unmoved.

    Componentwise ``gamma * (x_i / gamma)`` rounds away from ``x_i``, which
    would leave one-ulp junk where the difference is exactly zero in real
    arithmetic (and the recession indicator in the certificate rejects any
    nonzero junk).
    """
    return tuple(
        0.0 if di == gi and gi != 0.0 else xi - gamma * di
        for xi, gi, di in zip(x, xg, d)
    )


def classify_case_i(pair: PerspectivePair, gamma: float, x, y, cfg: RootConfig = DEFAULT_CONFIG) -> CaseLabel:
    """Region of an input for a nonnegative-conjugate pair.

    Zero tests use ``cfg.classify_tol`` scaled by the magnitude of the
    quantity's argument; a conjugate value of +inf at the projected point
    defers to the root-find region, whose prox calls never leave the
    conjugate domain.
    """
    x, y = pair.check_point(x, y)
    base, scaling = pair.base, pair.scaling
    if base.sign_class is not SignClass.NONNEGATIVE_CONJUGATE:
        raise ValueError("classification by scale regions needs a nonnegative conjugate")
    xg = scale(x, 1.0 / gamma)
    ref_x = norm(xg)
    c0 = base.conj_eval(base.proj_dom_conj(xg))
    s_proj = scaling.eval(scaling.proj_cl_S(y))
    c0_zero = c0 != INF and _is_zero(c0, cfg.classify_tol, ref_x)
    s_zero = _is_zero(s_proj, cfg.classify_tol, y)
    if c0_zero and s_zero:
        return CaseLabel.OMEGA1
    if not c0_zero and c0 != INF:
        q2 = scaling.prox_env(gamma * c0, y)
        if _is_zero(scaling.eval(q2), cfg.classify_tol, y):
            return CaseLabel.OMEGA2
    if not s_zero and s_proj != INF:
        rho = base.prox_conj(s_proj / gamma, xg)
        if _is_zero(base.conj_eval(rho), cfg.classify_tol, ref_x):
            return CaseLabel.OMEGA3
    return CaseLabel.OMEGA4


def classify_case_iii(pair: PerspectivePair, gamma: float, x, y, cfg: RootConfig = DEFAULT_CONFIG) -> CaseLabel:
    """Region of an input for a nonpositive-conjugate pair (mirror of the
    nonnegative classification with base and scaling roles swapped)."""
    x, y = pair.check_point(x, y)
    base, scaling = pair.base, pair.scaling
    if base.sign_class is not SignClass.NONPOSITIVE_CONJUGATE:
        raise ValueError("this classification needs a nonpositive conjugate")
    xg = scale(x, 1.0 / gamma)
    ref_x = norm(xg)
    c0 = base.conj_eval(base.proj_dom_conj(xg))
    sv = scaling.env_eval(scaling.proj_cl_conv_S(y))
    sv_zero = _is_zero(sv, cfg.classify_tol, y)
    c0_zero = c0 != INF and _is_zero(c0, cfg.classify_tol, ref_x)
    if sv_zero and c0_zero:
        return CaseLabel.XI1
    if not sv_zero and sv != INF:
        u = base.prox_conj(sv / gamma, xg)
        if _is_zero(base.conj_eval(u), cfg.classify_tol, ref_x):
            return CaseLabel.XI2
    if c0 != INF and not c0_zero and c0 < 0.0:
        q3 = scaling.prox_env(gamma * (-c0), y)
        if _is_zero(scaling.env_eval(q3), cfg.classify_tol, y):
            return CaseLabel.XI3
    return CaseLabel.XI4


def _solve_eta(
    T: Callable[[float], float],
    cfg: RootConfig,
    eta_hi: float | None,
    trace: Callable[[int, float, float, float, float], None] | None,
) -> tuple[float, int]:
    t0 = T(0.0)
    if t0 >= 0.0:
        return 0.0, 0
    hi = eta_hi if eta_hi is not None else max(1.0, -t0) + cfg.eta_tol
    fhi = T(hi)
    doublings = 0
    while fhi < 0.0 and doublings < 60:
        hi *= 2.0
        fhi = T(hi)
        doublings += 1
    if fhi < 0.0:
        raise RootFindError("could not bracket the multiplier", 0.0, hi, t0, fhi)
    res = solve_bracketed(
        T, 0.0, hi, t0, fhi,
        xtol=cfg.eta_tol, ftol=cfg.residual_tol, max_iter=cfg.max_iter,
        trace=trace,
    )
    return res.root, res.iterations + doublings


def make_residual_case_i(pair: PerspectivePair, gamma: float, x, y) -> Callable[[float], float]:
    """The strictly increasing map whose root is the case-(i) multiplier.

    Composes the base-side value curve (conjugate value at its scaled
    prox) with the scaling-side value curve and adds the identity; both
    curves are nonincreasing, which makes the sum strictly increasing.
    """
    x, y = pair.check_point(x, y)
    base, scaling = pair.base, pair.scaling
    xg = scale(x, 1.0 / gamma)

    def T(eta: float) -> float:
        rho = _prox_conj_scaled(base, eta / gamma, xg)
        mu = base.conj_eval(rho)
        return scaling.env_eval(scaling.prox_env(gamma * mu, y)) + eta

    return T


def make_residual_case_iii(pair: PerspectivePair, gamma: float, x, y) -> Callable[[float], float]:
    """Case-(iii) mirror of the multiplier residual."""
    x, y = pair.check_point(x, y)
    base, scaling = pair.base, pair.scaling
    xg = scale(x, 1.0 / gamma)

    def T(eta: float) -> float:
        w = scaling.env_eval(scaling.prox_env(gamma * eta, y)) / gamma
        u = _prox_conj_scaled(base, w, xg)
        return base.conj_eval(u) + eta

    return T


def solve_eta_case_i(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG, *, eta_hi: float | None = None,
    trace=None,
) -> tuple[float, int]:
    """Multiplier for the case-(i) root region: the unique ``eta >= 0``
    with ``T(eta) = 0``.

    The default bracket is ``[0, max(1, -T(0)) + eta_tol]``, valid because
    the composed curve term of ``T`` is nondecreasing; a doubling fallback
    guards round-off.  Pass ``eta_hi`` to start from a different bracket.
    """
    return _solve_eta(make_residual_case_i(pair, gamma, x, y), cfg, eta_hi, trace)


def solve_eta_case_iii(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG, *, eta_hi: float | None = None,
    trace=None,
) -> tuple[float, int]:
    """Multiplier for the case-(iii) root region; see ``solve_eta_case_i``."""
    return _solve_eta(make_residual_case_iii(pair, gamma, x, y), cfg, eta_hi, trace)


def case_ii_prox(pair: PerspectivePair, gamma: float, x, y) -> ProxResult:
    """Decoupled prox for zero-or-infinity conjugates: base prox in ``x``,
    projection onto the closed scale hull in ``y``."""
    x, y = pair.check_point(x, y)
    base, scaling = pair.base, pair.scaling
    if base.sign_class is not SignClass.ZERO_INFTY_CONJUGATE:
        raise ValueError("the decoupled prox needs a zero-or-infinity conjugate")
    prox_primal = getattr(base, "prox_primal", None)
    if prox_primal is not None:
        p = prox_primal(gamma, x)
    else:
        xg = scale(x, 1.0 / gamma)
        p = _pull_back(x, gamma, xg, base.prox_conj(1.0 / gamma, xg))
    q = scaling.proj_cl_conv_S(y)
    gap = prox_fenchel_gap(pair, gamma, x, y, p, q)
    return ProxResult(p, q, 0.0, CaseLabel.CASE_II, 0, gap)


def prox_perspective(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG,
) -> ProxResult:
    """Prox of ``gamma * (perspective of base with scaling)`` at ``(x, y)``.

    Dispatches on the sign class of the base conjugate, resolves the
    region, assembles the prox from contract calls only, and attaches the
    Fenchel certificate of the output.
    """
    if not 0.0 < gamma < INF:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x, y = pair.check_point(x, y)
    sc = pair.base.sign_class
    if sc is SignClass.ZERO_INFTY_CONJUGATE:
        return case_ii_prox(pair, gamma, x, y)
    if sc is SignClass.NONNEGATIVE_CONJUGATE:
        p, q, eta, label, iters = _prox_case_i(pair, gamma, x, y, cfg)
    else:
        p, q, eta, label, iters = _prox_case_iii(pair, gamma, x, y, cfg)
    gap = prox_fenchel_gap(pair, gamma, x, y, p, q)
    return ProxResult(p, q, eta, label, iters, gap)


def _prox_case_i(pair, gamma, x, y, cfg):
    base, scaling = pair.base, pair.scaling
    xg = scale(x, 1.0 / gamma)
    label = classify_case_i(pair, gamma, x, y, cfg)
    if label is CaseLabel.OMEGA1:
        p = _pull_back(x, gamma, xg, base.proj_dom_conj(xg))
        return p, scaling.proj_cl_S(y), 0.0, label, 0
    if label is CaseLabel.OMEGA2:
        d = base.proj_dom_conj(xg)
        p = _pull_back(x, gamma, xg, d)
        q = scaling.prox_env(gamma * base.conj_eval(d), y)
        return p, q, 0.0, label, 0
    if label is CaseLabel.OMEGA3:
        eta = scaling.eval(scaling.proj_cl_S(y))
        rho = base.prox_conj(eta / gamma, xg)
        p = _pull_back(x, gamma, xg, rho)
        return p, scaling.proj_cl_S(y), eta, label, 0
    eta, iters = solve_eta_case_i(pair, gamma, x, y, cfg)
    rho = _prox_conj_scaled(base, eta / gamma, xg)
    p = _pull_back(x, gamma, xg, rho)
    q = scaling.prox_env(gamma * base.conj_eval(rho), y)
    return p, q, eta, label, iters


def _prox_case_iii(pair, gamma, x, y, cfg):
    base, scaling = pair.base, pair.scaling
    xg = scale(x, 1.0 / gamma)
    label = classify_case_iii(pair, gamma, x, y, cfg)
    if label is CaseLabel.XI1:
        p = _pull_back(x, gamma, xg, base.proj_dom_conj(xg))
        return p, scaling.proj_cl_conv_S(y), 0.0, label, 0
    if label is CaseLabel.XI2:
        sv = scaling.env_eval(scaling.proj_cl_conv_S(y))
        u = base.prox_conj(sv / gamma, xg)
        p = _pull_back(x, gamma, xg, u)
        return p, scaling.proj_cl_conv_S(y), 0.0, label, 0
    if label is CaseLabel.XI3:
        d = base.proj_dom_conj(xg)
        eta = -base.conj_eval(d)
        p = _pull_back(x, gamma, xg, d)
        q = scaling.prox_env(gamma * eta, y)
        return p, q, eta, label, 0
    eta, iters = solve_eta_case_iii(pair, gamma, x, y, cfg)
    q = scaling.prox_env(gamma * eta, y)
    w = scaling.env_eval(q) / gamma
    u = _prox_conj_scaled(base, w, xg)
    p = _pull_back(x, gamma, xg, u)
    return p, q, eta, label, iters
