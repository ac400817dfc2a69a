"""Prox of a scaled perspective function.

The computation dispatches on the sign class of the base conjugate.  The
zero-or-infinity class decouples into a base prox and a scale projection.
The signed classes work with two nonincreasing value curves of a weight
``v >= 0`` (weight 0 meaning projection):

- the base curve ``B(v) = phi*(prox_{(v/gamma) phi*}(x/gamma))``, run on
  radii as ``h(prox_{(v/gamma) h}(r))``: ``phi*`` is the radial lift of
  its profile ``h`` (``base.conj.phi1d``) and ``r = ||x/gamma||``;
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
of ``T`` by a monotone one-dimensional search.  Both curves are
nonincreasing, so ``T' >= 1``: the root lies in ``[0, -T(0)]`` and within
``|T(eta)|`` of every evaluated ``eta``.  The profile's ``slope`` and the
scaling's ``env_slope`` make ``T' = 1 + inner' * outer'`` exact, so the
search takes Newton steps, with bisection as their safeguard.  The pass
hands the search its curves, and ``T(0)`` with its curve points where it
computed them.  Every curve point is a float; the base point is built
once, at assembly, as ``x/gamma`` scaled by ``rho / r`` for the profile
radius ``rho``.

Classification, the residual and the search are each written once and
read the case from the sign class; the case-(iii) names are aliases of
the case-(i) ones, and a zero-or-infinity pair makes them raise
``ValueError``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .core import INF, Record, SignClass, Value, Vec, negligible, norm, scale
# prox_fenchel_gap only for the benchmark's tracer, which wraps it by this name
from .perspective import PerspectivePair, certificate_gap, prox_fenchel_gap
from .roots import solve_bracketed


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


class RootConfig(Value):
    """Tolerances of the multiplier search; region tests use ``core.negligible``.

    The Newton-bisection search stops once ``|T(eta)| <= min(residual_tol,
    eta_tol / 2)``: since ``T' >= 1`` the root is then within ``eta_tol /
    2`` of ``eta``.  It also stops once its bracket is within ``eta_tol``
    (plus two rounding units of ``eta``) and ``|T(eta)| <= residual_tol``,
    or when no double lies inside a bracket whose ends it evaluated.
    ``max_iter`` bounds its ``T`` evaluations.

    An immutable value (``core.Value``): equal settings compare and hash
    equal, and it pickles, so ``validate --workers`` can send it.
    """

    __slots__ = ("eta_tol", "residual_tol", "max_iter")

    def __init__(self, eta_tol: float = 1e-12, residual_tol: float = 1e-10, max_iter: int = 200):
        for name, value in (("eta_tol", eta_tol), ("residual_tol", residual_tol)):
            if not 0.0 < value < INF:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        object.__setattr__(self, "eta_tol", eta_tol)
        object.__setattr__(self, "residual_tol", residual_tol)
        object.__setattr__(self, "max_iter", max_iter)


class ProxResult(Record):
    """Prox point plus diagnostics.

    ``eta`` is the coupling multiplier (0 on the closed-form regions with
    vanishing scale value), ``root_iterations`` counts the evaluations of
    ``T`` the multiplier search made (``T(0)``, the lower end of its
    bracket, is not one of them; 0 off the root region), and
    ``certificate_gap`` is the Fenchel residual of the output, checked
    independently of the path that produced it.

    A plain per-call record (``core.Record``), fresh from every call, without
    the assignment guard that would cost each call more than the record.
    """

    __slots__ = ("p", "q", "eta", "label", "root_iterations", "certificate_gap")

    def __init__(self, p: Vec, q: float, eta: float, label: CaseLabel,
                 root_iterations: int, certificate_gap: float):
        self.p = p
        self.q = q
        self.eta = eta
        self.label = label
        self.root_iterations = root_iterations
        self.certificate_gap = certificate_gap


DEFAULT_CONFIG = RootConfig()

# region labels of the signed cases, keyed by "the multiplier drives B"
_LABELS = {
    True: (CaseLabel.OMEGA1, CaseLabel.OMEGA2, CaseLabel.OMEGA3, CaseLabel.OMEGA4),
    False: (CaseLabel.XI1, CaseLabel.XI2, CaseLabel.XI3, CaseLabel.XI4),
}


def _pull_back(x: Vec, gamma: float, xg: Vec, d: Vec) -> Vec:
    """``x - gamma * d`` with exact zeros where ``d`` left ``x/gamma`` unmoved:
    ``gamma * (x_i / gamma)`` rounds away from ``x_i``, and the recession
    indicator in the certificate rejects the one-ulp junk that would leave.
    """
    return tuple([
        0.0 if di == gi and gi != 0.0 else xi - gamma * di
        for xi, gi, di in zip(x, xg, d)
    ])


def _curves(pair: PerspectivePair, gamma: float, x: Vec, y: float, base_drives: bool):
    """``(base_drives, (x/gamma, r), outer, inner)`` at a checked ``(x, y)``:
    the curve the multiplier drives and the other, each a ``(point, value)``
    pair of functions on floats, the curve at weight ``v`` being ``value(point(v))``.
    """
    scaling = pair.scaling
    h = pair.base.conj.phi1d
    xg = scale(x, 1.0 / gamma)
    r = norm(xg)
    if r == INF:  # x/gamma overflowed
        raise ValueError(f"x/gamma must be finite, with a finite norm; got {xg!r}")

    # bound through default arguments, which are cheaper to set up than
    # closure cells on a path that runs once per prox call
    def b_point(v: float, h=h, gamma=gamma, r=r) -> float:
        # the prox of (v/gamma) h, the projection onto cl dom h at 0
        w = v / gamma
        return h.prox(w, r) if w != 0.0 else h.proj_cl_dom(r)

    def s_point(v: float, prox_env=scaling.prox_env, gamma=gamma, y=y) -> float:
        return prox_env(gamma * v, y)

    b, s = (b_point, h.eval), (s_point, scaling.env_eval)
    return (True, (xg, r), b, s) if base_drives else (False, (xg, r), s, b)


def _signed_pass(curves, y: float):
    """The region tests on the ``_curves`` of an input, and the closed-form
    points where they select one.

    Returns ``(region, outer point, inner point, eta)``.  In region 4, the
    root region, the last entry is instead the ``SearchRecord`` entry of
    ``T(0)`` where the tests computed it (else None).  Zero tests are
    ``core.negligible`` at the size of the curve's argument: ``r`` for B,
    ``y`` for S.  An outer value of +inf at weight 0 is a finite one beyond
    the largest double, which no test or search can use: ``OverflowError``.
    """
    base_drives, (_, r), (o_point, o_value), (i_point, i_value) = curves
    o_ref, i_ref = (r, y) if base_drives else (y, r)
    o_pt = o_point(0.0)
    o0 = o_value(o_pt)
    if o0 == INF:
        raise OverflowError("the outer curve value at weight 0 overflows")
    i_pt = i_point(0.0)
    i0 = i_value(i_pt)
    o_zero, i_zero = negligible(o0, o_ref), negligible(i0, i_ref)
    if o_zero and i_zero:
        return 1, o_pt, i_pt, 0.0
    entry = None
    if not o_zero and o0 > 0.0:
        i_pt2 = i_point(o0)
        t0 = i_value(i_pt2)
        if negligible(t0, i_ref):
            return 2, o_pt, i_pt2, 0.0
        entry = (o_pt, i_pt2, o0, t0)
    if not i_zero and 0.0 < -i0 < INF:
        o_pt3 = o_point(-i0)
        if negligible(o_value(o_pt3), o_ref):
            return 3, o_pt3, i_pt, -i0
    return 4, None, None, entry


def _base_drives(pair) -> bool:
    """Whether the multiplier drives B (case i) rather than S (case iii)."""
    sc = pair.base.sign_class
    if sc is SignClass.ZERO_INFTY_CONJUGATE:
        raise ValueError("a zero-or-infinity conjugate decouples: it has no multiplier")
    return sc is SignClass.NONNEGATIVE_CONJUGATE


def classify_case_i(pair: PerspectivePair, gamma: float, x, y) -> CaseLabel:
    """Region of an input for a signed pair, case (i) or (iii) by the sign
    class of its base conjugate: the label of the pass ``prox_perspective``
    runs on it.  A zero-or-infinity pair raises ``ValueError``."""
    x, y = pair.check_point(x, y)
    base_drives = _base_drives(pair)
    region = _signed_pass(_curves(pair, gamma, x, y, base_drives), y)[0]
    return _LABELS[base_drives][region - 1]


class SearchRecord:
    """Side record of one multiplier search.

    ``points[eta] = (outer point, inner point, outer value, T(eta))``, all
    floats, for each ``eta`` at which ``T`` was evaluated: the outer point
    is the profile radius ``prox_{(eta/gamma) h}(r)`` in case (i) and the
    scale point in case (iii), the inner point the other one, at the outer
    value as its weight.  The search takes ``T(0)`` from the entry at 0
    when one is there.  ``slope(eta)`` is ``T'(eta)`` at such an ``eta``
    (NaN where a curve slope is not defined); ``make_residual_case_i`` sets
    it, and builds ``curves``, the ``_curves`` of the checked input, when
    the record has none.
    """

    __slots__ = ("points", "slope", "curves")

    def __init__(self, points: dict | None = None, curves: tuple | None = None):
        self.points = {} if points is None else points
        self.slope: Callable[[float], float] | None = None
        self.curves = curves


def make_residual_case_i(pair: PerspectivePair, gamma: float, x, y,
                         record: SearchRecord | None = None) -> Callable[[float], float]:
    """The strictly increasing map ``T(eta) = inner(outer(eta)) + eta`` whose
    root is the multiplier: ``S(B(eta)) + eta`` in case (i), ``B(S(eta)) +
    eta`` in case (iii), by the sign class as in ``classify_case_i``.

    Each evaluation stores its curve points in ``record.points`` (a fresh
    ``SearchRecord`` when none is given), and ``record.slope`` gives ``T'``
    at those points.  ``T`` runs on ``record.curves`` when they are set,
    without checking ``(x, y)`` again: they must be this input's.
    """
    if record is None:
        record = SearchRecord()
    if record.curves is None:
        x, y = pair.check_point(x, y)
        record.curves = _curves(pair, gamma, x, y, _base_drives(pair))
    base_drives, (_, r), (o_point, o_value), (i_point, i_value) = record.curves
    points = record.points
    b_slope, s_slope = pair.base.conj.phi1d.slope, pair.scaling.env_slope

    # T' = 1 + inner' * outer', the curves' slopes in v being the profile's and
    # the scaling's scaled by 1/gamma (B) and gamma (S); 1 where outer is flat
    def slope(eta: float) -> float:
        o_pt, i_pt, weight, _ = points[eta]
        if base_drives:
            ds = b_slope(eta / gamma, r, o_pt)
            return 1.0 + s_slope(gamma * weight, y, i_pt) * ds if ds else 1.0
        ds = s_slope(gamma * eta, y, o_pt)
        return 1.0 + b_slope(weight / gamma, r, i_pt) * ds if ds else 1.0

    def T(eta: float) -> float:
        o_pt = o_point(eta)
        weight = o_value(o_pt)
        if weight == INF:  # as in _signed_pass, where it is computed first
            raise OverflowError(f"the outer curve value at eta={eta!r} overflows")
        i_pt = i_point(weight)
        t = i_value(i_pt) + eta
        points[eta] = (o_pt, i_pt, weight, t)
        return t

    record.slope = slope
    return T


def solve_eta_case_i(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG, *,
    trace=None, record: SearchRecord | None = None,
) -> tuple[float, int]:
    """Multiplier for the root region of a signed pair, case (i) or (iii)
    by the sign class as in ``classify_case_i``: the unique ``eta >= 0``
    with ``T(eta) = 0``, and the number of ``T`` evaluations it took.

    ``roots.solve_bracketed`` searches ``[0, -T(0)]`` by Newton steps from
    the slopes ``make_residual_case_*`` gives ``record``, safeguarded by
    bisection, and stops as ``RootConfig`` states.  ``T(0)``, not counted,
    comes from ``record.points[0.0]`` when that entry is there.  ``trace(it,
    lo, hi, eta, T(eta))`` gets every other evaluated ``eta`` and the
    bracket it was chosen in.  The ``record`` entry at the returned ``eta``
    holds the points the prox is assembled from.
    """
    make = make_residual_case_i if _base_drives(pair) else make_residual_case_iii
    record = SearchRecord() if record is None else record
    T = make(pair, gamma, x, y, record)
    entry = record.points.get(0.0)
    t0 = T(0.0) if entry is None else entry[3]
    if t0 >= 0.0:
        return 0.0, 0
    res = solve_bracketed(T, record.slope, t0, xtol=cfg.eta_tol, ftol=cfg.residual_tol,
                          max_iter=cfg.max_iter, trace=trace)
    return res.root, res.iterations


# the same functions under their case-(iii) names; the root region of each
# case calls its own solve_eta_case_* and make_residual_case_* globals
classify_case_iii = classify_case_i
make_residual_case_iii = make_residual_case_i
solve_eta_case_iii = solve_eta_case_i


def prox_perspective(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG,
) -> ProxResult:
    """Prox of ``gamma * (perspective of base with scaling)`` at ``(x, y)``.

    Validates the input once, at its entry; nothing under it checks it
    again.  Dispatches on the sign class of the base conjugate, resolves
    the region and assembles the prox in one pass over the two value
    curves (scalar profile and scaling calls; the root region's search
    reuses them), and attaches the Fenchel certificate (``certificate_gap``).
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
        curves = _curves(pair, gamma, x, y, base_drives)
        region, o_pt, i_pt, eta = _signed_pass(curves, y)
        iters = 0
        if region == 4:
            # the search runs on the pass's curves, and T(0) and its
            # points come from the pass where it computed them
            record = SearchRecord(None if eta is None else {0.0: eta}, curves)
            solve = solve_eta_case_i if base_drives else solve_eta_case_iii
            eta, iters = solve(pair, gamma, x, y, cfg, record=record)
            # the points of the search's evaluation of T at eta
            o_pt, i_pt = record.points[eta][:2]
        label = _LABELS[base_drives][region - 1]
        rho, q = (o_pt, i_pt) if base_drives else (i_pt, o_pt)
        # the base point, built once: x/gamma itself where rho == r
        xg, r = curves[1]
        p = _pull_back(x, gamma, xg, xg if rho == r else scale(xg, rho / r))
    gap = certificate_gap(pair, gamma, x, y, p, q)
    return ProxResult(p, q, eta, label, iters, gap)
