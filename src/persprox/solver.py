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
of ``T`` by a monotone one-dimensional search.  Both curves are
nonincreasing, so ``T' >= 1``: the root lies in ``[0, -T(0)]`` and within
``|T(eta)|`` of every evaluated ``eta``.  Each curve's slope comes from its
contract (``conj_slope``, ``env_slope``), so ``T' = 1 + inner' * outer'``
is exact and the search takes Newton steps, with bisection as their
safeguard.  Where the pass computed ``T(0)``, it hands it to the search,
with its curve points, as the search record's entry at 0.

Classification, the residual and the search are each written once and
read the case from the sign class; the case-(iii) names are aliases of
the case-(i) ones, and a zero-or-infinity pair makes them raise
``ValueError``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .core import INF, Record, SignClass, Value, Vec, negligible, norm, scale
from .perspective import PerspectivePair, prox_fenchel_gap
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

    A plain per-call record (``core.Record``): every call builds a fresh
    one and shares it with nobody, so it has no assignment guard, which
    would cost each call more than the record itself.
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

    Returns ``(x/gamma, region, outer point, inner point, eta)``.  In
    region 4, the root region, the last entry is instead the
    ``SearchRecord`` entry of ``T(0)`` where the tests computed it (else
    None): the outer point at 0, the inner point at the outer value, that
    value and ``T(0)``.  Zero tests are ``core.negligible`` at the size of
    the curve's argument: ``x/gamma`` for B, ``y`` for S.  A conjugate
    value of +inf at the projected point is not zero, so it defers to the
    root region, whose prox calls never leave the conjugate domain.
    """
    xg, (o_point, o_value), (i_point, i_value) = _curves(pair, gamma, x, y, base_drives)
    o_ref, i_ref = (norm(xg), y) if base_drives else (y, norm(xg))
    o_pt = o_point(0.0)
    o0 = o_value(o_pt)
    i_pt = i_point(0.0)
    i0 = i_value(i_pt)
    o_zero, i_zero = negligible(o0, o_ref), negligible(i0, i_ref)
    if o_zero and i_zero:
        return xg, 1, o_pt, i_pt, 0.0
    entry = None
    if not o_zero and 0.0 < o0 < INF:
        i_pt2 = i_point(o0)
        t0 = i_value(i_pt2)
        if negligible(t0, i_ref):
            return xg, 2, o_pt, i_pt2, 0.0
        entry = (o_pt, i_pt2, o0, t0)
    if not i_zero and 0.0 < -i0 < INF:
        o_pt3 = o_point(-i0)
        if negligible(o_value(o_pt3), o_ref):
            return xg, 3, o_pt3, i_pt, -i0
    return xg, 4, None, None, entry


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
    return _LABELS[base_drives][_signed_pass(pair, gamma, x, y, base_drives)[1] - 1]


class SearchRecord:
    """Side record of one multiplier search.

    ``points[eta] = (outer point, inner point, outer value, T(eta))`` for
    each ``eta`` at which ``T`` was evaluated: the outer point is the base
    point ``prox_{(eta/gamma) phi*}(x/gamma)`` in case (i) and the scale
    point in case (iii), the inner point the other one, at the outer value
    as its weight.  The search takes ``T(0)`` from the entry at 0 when one
    is there.  ``slope(eta)`` is ``T'(eta)`` at such an ``eta``, from the
    curves' contract slopes (NaN where one is not defined);
    ``make_residual_case_i`` sets it.
    """

    __slots__ = ("points", "slope")

    def __init__(self, points: dict | None = None):
        self.points = {} if points is None else points
        self.slope: Callable[[float], float] | None = None


def make_residual_case_i(pair: PerspectivePair, gamma: float, x, y,
                         record: SearchRecord | None = None) -> Callable[[float], float]:
    """The strictly increasing map ``T(eta) = inner(outer(eta)) + eta`` whose
    root is the multiplier: ``S(B(eta)) + eta`` in case (i), ``B(S(eta)) +
    eta`` in case (iii), by the sign class as in ``classify_case_i``.  Both
    curves are nonincreasing, so their composition is nondecreasing and
    ``T' >= 1``.

    Each evaluation stores its curve points in ``record.points`` (a fresh
    ``SearchRecord`` when none is given), and ``record.slope`` is set to
    the function giving ``T'`` at those points.
    """
    x, y = pair.check_point(x, y)
    base_drives = _base_drives(pair)
    xg, (o_point, o_value), (i_point, i_value) = _curves(pair, gamma, x, y, base_drives)
    if record is None:
        record = SearchRecord()
    points = record.points
    base, scaling = pair.base, pair.scaling

    # T' = 1 + inner' * outer', the curves' slopes in v being their contract
    # slopes scaled by 1/gamma (B) and gamma (S); 1 where the outer one is flat
    def slope(eta: float) -> float:
        o_pt, i_pt, weight, _ = points[eta]
        if base_drives:
            ds = base.conj_slope(eta / gamma, xg, o_pt)
            return 1.0 + scaling.env_slope(gamma * weight, y, i_pt) * ds if ds else 1.0
        ds = scaling.env_slope(gamma * eta, y, o_pt)
        return 1.0 + base.conj_slope(weight / gamma, xg, i_pt) * ds if ds else 1.0

    def T(eta: float) -> float:
        o_pt = o_point(eta)
        weight = o_value(o_pt)
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

    ``roots.solve_bracketed`` searches ``[0, -T(0)]`` with Newton steps
    from the exact slopes that the case's ``make_residual_case_*`` gives
    ``record``, and bisections where a Newton step fails, and stops as
    ``RootConfig`` states.  ``T(0)`` is not counted: it comes from
    ``record.points[0.0]`` when that entry is there, and is evaluated first
    otherwise.  ``trace(it, lo, hi, eta, T(eta))`` gets every evaluated
    ``eta`` but 0 and the bracket it was chosen in.  The ``record`` entry
    at the returned ``eta`` holds the points the prox is assembled from.
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
        xg, region, o_pt, i_pt, eta = _signed_pass(pair, gamma, x, y, base_drives)
        iters = 0
        if region == 4:
            # T(0) and its points come from the pass where it computed them
            record = SearchRecord(None if eta is None else {0.0: eta})
            solve = solve_eta_case_i if base_drives else solve_eta_case_iii
            eta, iters = solve(pair, gamma, x, y, cfg, record=record)
            # the points of the search's evaluation of T at eta
            o_pt, i_pt = record.points[eta][:2]
        label = _LABELS[base_drives][region - 1]
        b_pt, q = (o_pt, i_pt) if base_drives else (i_pt, o_pt)
        p = _pull_back(x, gamma, xg, b_pt)
    gap = prox_fenchel_gap(pair, gamma, x, y, p, q)
    return ProxResult(p, q, eta, label, iters, gap)
