"""Prox of a scaled perspective function.

The computation dispatches on the sign class of the base conjugate.  The
zero-or-infinity class decouples into a base prox and a scale projection.
The signed classes work with two nonincreasing value curves of a weight
``v >= 0``: the base curve ``B(v) = h(prox_{(v/gamma) h}(r))`` on the
radius ``r = ||x|| / gamma``, ``h`` the profile of ``phi*``
(``base.conj.phi1d``), and the scale curve ``S(v) = env(prox_{gamma v
env}(y))``, ``env`` the scaling's convex envelope; each prox at weight 0
is the projection onto the closed domain.

The multiplier ``eta`` drives B for a nonnegative conjugate (case i) and
S for a nonpositive one (case iii); the other curve takes the driven
curve's value, so ``T(eta) = inner(outer(eta)) + eta`` in both cases.
One pass tests the regions and assembles the prox where a closed form
applies: region 1 when both curves vanish at weight 0, region 2 when the
inner curve vanishes at the outer curve's weight-0 value, region 3 when
the outer curve vanishes at minus the inner curve's weight-0 value (that
value is ``eta``).  Region 4 searches the root on the inner curve point
``u`` (``z`` in case i, ``rho`` in case iii) in ``log|u - pole|``: the
contracts' ``inverse`` runs both proxes backwards, so ``T(u)`` takes no
scalar solve; one list (``_search_state``) carries the search from the
pass to the prox.  The case-(iii) names are aliases of the case-(i) ones,
and a zero-or-infinity pair makes them raise ``ValueError``.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import EPS, INF, Record, Value, Vec, slack_bound
# prox_fenchel_gap only for the benchmark's tracer, which wraps it by this name
from .perspective import PerspectivePair, certificate_gap, check_input, prox_fenchel_gap
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
    """Tolerances of the multiplier search; region tests use ``core.slack_bound``.

    The search on the inner curve point ``u`` (``T(u)`` is ``T(eta)`` at
    the ``eta`` of ``u``; ``T' >= 1``) stops once ``|T| <= min(residual_tol,
    eta_tol / 2)`` at ``u`` or, by the curvature, at the ``eta`` a Newton
    step from ``u`` reports; else once the ends' bounds on the multiplier
    are within ``eta_tol`` plus four rounding units, or no double lies
    between them (at entry, within the four units alone).  A multiplier
    the inverse map rounds off by over a share of that stop is finished on
    the forward ``T(eta)`` alike.  ``max_iter`` bounds the evaluations of
    each.  An immutable ``core.Value``; derived, that residual stop
    ``min(residual_tol, eta_tol / 2)``, once per configuration.
    """

    _fields = ("eta_tol", "residual_tol", "max_iter")
    __slots__ = _fields + ("_residual_stop",)

    def __init__(self, eta_tol: float = 1e-12, residual_tol: float = 1e-10, max_iter: int = 200):
        for name, value in (("eta_tol", eta_tol), ("residual_tol", residual_tol)):
            if not 0.0 < value < INF:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter <= 0:
            raise ValueError(f"max_iter must be a positive int, got {max_iter!r}")
        for name, value in (("eta_tol", eta_tol), ("residual_tol", residual_tol),
                            ("max_iter", max_iter)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_residual_stop", min(residual_tol, 0.5 * eta_tol))


class ProxResult(Record):
    """Prox point plus diagnostics.

    ``eta`` is the coupling multiplier (0 on the closed-form regions with
    vanishing scale value), ``root_iterations`` counts the search's
    evaluations of ``T(u)`` (not ``T(0)``; 0 for a root found at entry or
    off the root region), and ``certificate_gap`` is the Fenchel residual of
    the output, checked independently of the path that produced it.

    A plain per-call record (``core.Record``), without the assignment guard
    that would cost each call more than the record.
    """

    __slots__ = ("p", "q", "eta", "label", "root_iterations", "certificate_gap")

    def __init__(self, p: Vec, q: float, eta: float, label: CaseLabel,
                 root_iterations: int, certificate_gap: float):
        self.p, self.q = p, q
        self.eta, self.label = eta, label
        self.root_iterations, self.certificate_gap = root_iterations, certificate_gap


DEFAULT_CONFIG = RootConfig()

# g = log(eta) - log(-v) steps too while |T| > _LOG_FORM * |v| (near linear
# in s where eta spans decades, it loses its digits near the root); Newton
# steps under _NEAR of eta keep the curvature estimate and first-order curve
# points; eta's rounding may take _ROUNDING_SHARE of the stop distance
_LOG_FORM, _NEAR, _ROUNDING_SHARE = 0.1, EPS ** 0.5, 1.0 / 16.0

# region labels of the signed cases, keyed by "the multiplier drives B", and
# the decoupled one, read once here: on CPython 3.11 reading a member through
# its Enum class takes about five times as long as a plain class attribute
_LABELS = {
    True: (CaseLabel.OMEGA1, CaseLabel.OMEGA2, CaseLabel.OMEGA3, CaseLabel.OMEGA4),
    False: (CaseLabel.XI1, CaseLabel.XI2, CaseLabel.XI3, CaseLabel.XI4),
}
_CASE_II = CaseLabel.CASE_II


def _curves(pair: PerspectivePair, gamma: float, r: float, y: float, base_drives: bool):
    """``(base_drives, least, outer, inner)``, ``least`` the outer curve's least
    value, each curve ``(f, prox, value, t, k)``: for B the profile ``h``, its
    ``prox``, ``eval``, ``t = ||x|| / gamma`` and ``k = 1/gamma``, for S the scaling,
    ``prox_env``, ``env_eval``, ``t = y`` and ``k = gamma``.  Curve weight ``v`` is
    prox weight ``v * k`` (``_point``); ``f.inverse`` runs the prox backwards."""
    h, scaling = pair._profile, pair.scaling
    b = h, h.prox, h.eval, r, 1.0 / gamma
    s = scaling, scaling.prox_env, scaling.env_eval, y, gamma
    return (True, pair.driven_least, b, s) if base_drives else (False, pair.driven_least, s, b)


def _point(curve: tuple, v: float) -> float:
    """A ``_curves`` curve's point at weight ``v``: its prox at ``t`` of weight ``v * k``."""
    return curve[1](v * curve[4], curve[3])


def _radius(x: Vec, gamma: float) -> float:
    """``||x|| / gamma``, or where that overflows ``||x/gamma||``; ``ValueError`` if infinite."""
    r = math.hypot(*x) / gamma
    if r == INF:
        xg = tuple([c * (1.0 / gamma) for c in x])
        r = math.hypot(*xg)
        if r == INF:
            raise ValueError(f"x/gamma must be finite, with a finite norm; got {xg!r}")
    return r


def _signed_pass(pair: PerspectivePair, gamma: float, x: Vec, y: float, base_drives: bool,
                 size: float):
    """``(region, outer point, inner point, eta, r)`` at a checked ``(x, y)`` with
    ``size = ||x|| / gamma`` (as ``math.hypot(*x) / gamma``), by direct contract
    calls up to region 2; ``r`` is ``size``, or ``_radius`` where it overflows.  In
    region 4 ``eta`` is the search state (``_search_state``).  Zero tests use
    ``core.slack_bound`` at ``r`` for B, ``y`` for S; an outer value of +inf at
    weight 0 raises ``OverflowError``."""
    r = size if size < INF else _radius(x, gamma)
    h, scaling = pair._profile, pair.scaling
    b_pt = h.prox(0.0, r)
    b0 = h.eval(b_pt)
    s_pt = scaling.prox_env(0.0, y)
    s0 = scaling.env_eval(s_pt)
    b_tol, s_tol = slack_bound(r), slack_bound(y)
    if base_drives:
        o_pt, o0, o_ref, o_tol, i_pt, i0, i_tol = b_pt, b0, r, b_tol, s_pt, s0, s_tol
    else:
        o_pt, o0, o_ref, o_tol, i_pt, i0, i_tol = s_pt, s0, y, s_tol, b_pt, b0, b_tol
    if o0 == INF:
        raise OverflowError("the outer curve value at weight 0 overflows")
    o_zero, i_zero = abs(o0) <= o_tol, abs(i0) <= i_tol
    if o_zero and i_zero:
        return 1, o_pt, i_pt, 0.0, r
    entry = None
    if not o_zero and o0 > 0.0:  # the inner curve's point at weight o0, as _point forms it
        if base_drives:
            pt = scaling.prox_env(o0 * gamma, y)
            t0 = scaling.env_eval(pt)
        else:
            pt = h.prox(o0 * (1.0 / gamma), r)
            t0 = h.eval(pt)
        if abs(t0) <= i_tol:
            return 2, o_pt, pt, 0.0, r
        entry = pt, t0
    curves = _curves(pair, gamma, r, y, base_drives)
    outer = curves[2]
    # region 3 needs -i0 past the weight where the outer value falls to the
    # zero bound (the inverse's; +inf where it never does), less a margin
    if (not i_zero and 0.0 < -i0 < INF
            and -i0 >= outer[0].inverse(o_ref, o_tol)[1] / outer[4] * (1.0 - _NEAR)):
        o_pt3 = _point(outer, -i0)
        if abs(outer[2](o_pt3)) <= o_tol:
            return 3, o_pt3, i_pt, -i0, r
    return 4, None, None, _search_state(curves, o0, entry, (i_pt, i0)), r


def _base_drives(pair) -> bool:
    """Whether the multiplier drives B (case i) rather than S (case iii)."""
    drives = pair._drives
    if drives is None:
        raise ValueError("a zero-or-infinity conjugate decouples: it has no multiplier")
    return drives


def classify_case_i(pair: PerspectivePair, gamma: float, x, y) -> CaseLabel:
    """Region of an input for a signed pair, case (i) or (iii) by the sign
    class of its base conjugate: the label of the pass ``prox_perspective``
    runs on it.  A zero-or-infinity pair raises ``ValueError``."""
    x, y = check_input(pair, gamma, x, y)
    base_drives = _base_drives(pair)
    region = _signed_pass(pair, gamma, x, y, base_drives, math.hypot(*x) / gamma)[0]
    return _LABELS[base_drives][region - 1]


def _search_state(curves: tuple, o0: float, start: tuple | None, zero: tuple | None) -> list:
    """One multiplier search's state, ``[slot, curves, u0, T(0), pole, at_c]``,
    on ``curves`` from the outer weight-0 value ``o0`` and the ``(inner
    point, value)`` at weight ``o0`` and at 0 (or None): ``u0`` is the inner
    point at ``eta = 0``, ``T(0)`` the inner value there, ``pole`` the inner
    point as ``eta`` grows without bound (at the outer curve's least value)
    and ``at_c`` minus the inner value there, the root's bound from that end.
    The slot, which ``T`` and ``roots.solve_bracketed`` share, holds the
    entry of the point ``T`` evaluated last (``make_residual_case_i``), and
    the prox's curve points ``(outer, inner)`` once the search returns."""
    least, inner = curves[1], curves[3]
    if start is None:
        u0 = _point(inner, o0)
        start = u0, inner[2](u0)
    u0, t0 = start
    if least == o0:
        c, v = u0, t0
    elif least == 0.0 and zero:
        c, v = zero
    else:
        c = _point(inner, least)
        v = inner[2](c)
    return [None, curves, u0, t0, c, -v]


def _direct_state(pair: PerspectivePair, gamma: float, x, y) -> list:
    """The search state of a search called without the region pass."""
    x, y = check_input(pair, gamma, x, y)
    curves = _curves(pair, gamma, _radius(x, gamma), y, _base_drives(pair))
    outer = curves[2]
    return _search_state(curves, outer[2](_point(outer, 0.0)), None, None)


def make_residual_case_i(pair: PerspectivePair, gamma: float, x, y, state: list | None = None):
    """``T(u) = inner value + eta`` on the inner curve point ``u`` (``z`` in
    case i, ``rho`` in case iii) through the contracts' ``inverse``, on the
    curves and pole of ``state`` (built here for a direct call).  Each
    evaluation leaves ``(T_s, T_ss, g, g_s, g_ss, -v, err, v, eta, eta_s, o,
    o_s, rnd)`` in the state's slot: what ``roots.solve_bracketed`` reads
    (derivatives in ``s = log|u - pole|`` of ``T`` and of ``g = log(eta) -
    log(-v)``, which has the root and sign of ``T``; ``-v``, a bound on the
    root; ``|T|`` predicted after a Newton step in ``eta``), then ``v``,
    ``eta``, the outer point ``o`` and their derivatives, and that step's
    rounding.  ``T`` reads default arguments, not closure cells; it is
    evaluated at ``u0``, uncounted, before it is returned."""
    state = _direct_state(pair, gamma, x, y) if state is None else state
    _, (_, _, outer, inner), u0, _, c, _ = state

    def T(u: float, inner=inner[0].inverse, outer=outer[0].inverse, t_in=inner[3],
          t_out=outer[3], k=outer[4], c=c, slot=state, log=math.log, nan=math.nan) -> float:
        d = u - c  # d/ds = d * d/du
        w, r1, r2, v, v1, v2 = inner(t_in, u)
        o_pt, ow, m1, m2, o1 = outer(t_out, w * k)
        eta = ow / k
        t = v + eta
        r1, r2 = r1 * d, (r2 * d + r1) * d
        v1, v2 = v1 * d, (v2 * d + v1) * d
        e1 = m1 * r1 / k
        e2 = (m2 * r1 * r1 + m1 * r2) / k
        t1, t2 = v1 + e1, v2 + e2
        err = rnd = g = g1 = g2 = nan
        if abs(t) > -_LOG_FORM * v and 0.0 < eta < INF:  # far from the root: g
            l1 = m1 / ow * r1
            g1 = v1 / v
            g = log(eta) - log(-v)
            g2 = m2 / ow * r1 * r1 + m1 / ow * r2 - l1 * l1 - v2 / v + g1 * g1
            g1 = l1 - g1
        elif t1 and o1 and w * r1 and e1 and abs(t * e1) <= _NEAR * abs(t1 * eta):
            # T''_eta delta**2 / 2 after the step delta = t e1 / t1
            err = 0.5 * abs(t2 * e1 - t1 * e2) * t * t / abs(t1 * t1 * e1)
            # that step's eta rounds off with four units of the outer point
            # and of the inner prox equation, read forwards
            a_in, a_u = abs(t_in), abs(u)
            rnd = 4.0 * EPS * (abs(m1 / k * o_pt / o1 * v1 / t1)
                               + abs((a_u if a_u > a_in else a_in) * d / (w * r1) * e1 / t1))
        slot[0] = (t1, t2, g, g1, g2, -v, err, v, eta, e1, o_pt, o1 * r1, rnd)
        return t

    T(u0)
    return T


def _forward(curves: tuple, eta: float) -> tuple:
    """``(T(eta), outer point, inner point)``: the outer prox at ``eta``, the inner at its value."""
    outer, inner = curves[2], curves[3]
    o_pt = _point(outer, eta)
    i_pt = _point(inner, outer[2](o_pt))
    return inner[2](i_pt) + eta, o_pt, i_pt


def _finish(state: list, eta: float, slope: float, cfg: RootConfig) -> float:
    """The multiplier, and the prox's curve points in the state's slot, from
    Newton steps of slope ``slope`` (``1 / T'``) on the forward ``T(eta)``
    from ``eta``, bisecting a bracket they leave, to the search's stops."""
    curves = state[1]
    stop, ends, best = cfg._residual_stop, [None, None], None
    for _ in range(cfg.max_iter):
        t, o_pt, i_pt = _forward(curves, eta)
        if best is None or abs(t) < best[0]:
            best = abs(t), eta, (o_pt, i_pt)
        if abs(t) <= stop:
            break
        ends[t > 0.0] = eta
        nxt = eta - t * slope
        if None not in ends:
            a, b = ends
            if b - a <= cfg.eta_tol + 4.0 * EPS * abs(b):
                break
            if not (b if b < a else a) < nxt < (b if b > a else a):
                nxt = a + 0.5 * (b - a)
        if nxt == eta or nxt in ends:
            break
        eta = nxt
    _, eta, state[0] = best
    return eta


def solve_eta_case_i(
    pair: PerspectivePair, gamma: float, x, y,
    cfg: RootConfig = DEFAULT_CONFIG, *,
    trace=None, state: list | None = None,
) -> tuple[float, int]:
    """Multiplier for the root region of a signed pair, case (i) or (iii)
    as in ``classify_case_i``, and the number of ``T`` evaluations it took.

    The entry rule runs first, on the pass's ``state`` (``_search_state``,
    built here for a direct call): ``eta`` is 0 where ``T(0) >= 0``, else
    ``-T(0)`` where ``u0`` is the pole or the bounds ``-T(0)``, ``at_c``
    meet the width stop less ``eta_tol``, from one forward ``T(eta)`` (in
    the last case where it meets the residual stop).  Otherwise
    ``roots.solve_bracketed`` searches the inner points between ``u0`` (its
    entry left in the slot by ``make_residual_case_i``) and the pole.  Where
    ``T(u0) >= 0``, ``u0`` sits on a clamp of the inner curve holding the
    root ``-v``: one counted evaluation.  ``eta`` is a Newton step from the
    root's entry, kept between the ends' bounds; where it misses the stop,
    or its rounding exceeds ``_ROUNDING_SHARE`` of the stop distance (the
    inverse map forms ``eta`` from an outer point that hardly moves),
    ``_finish`` runs on the forward ``T(eta)``, uncounted; the prox's curve
    points are left in the slot.  ``trace(it, lo, hi, eta, T(eta))`` gets
    each counted evaluation and its bracket, as multipliers, and an entry
    rule's result as iteration 0.
    """
    state = _direct_state(pair, gamma, x, y) if state is None else state
    _, curves, u0, t0, c, at_c = state
    kept = t0 >= 0.0 or u0 == c
    if kept or abs(at_c + t0) <= 4.0 * EPS * -t0:  # the width stop, less eta_tol
        eta = 0.0 if 0.0 > -t0 else -t0
        t, o_pt, i_pt = _forward(curves, eta)
        if kept or abs(t) <= cfg._residual_stop:
            state[0] = o_pt, i_pt
            if trace is not None:
                trace(0, min(eta, at_c), max(eta, at_c), eta, t)
            return eta, 0
    T = (make_residual_case_i if curves[0] else make_residual_case_iii)(pair, gamma, x, y, state)
    v, eta0 = state[0][7:9]
    if v + eta0 >= 0.0 and T(u0) >= 0.0:  # on a clamp, T = eta + v: root -v
        if trace is not None:
            trace(1, 0.0, eta0, -v, 0.0)
        return _finish(state, -v, 0.0, cfg), 1
    report = None
    if trace is not None:
        etas = {u0: 0.0, c: INF}

        def report(it, lo, hi, u, t, trace=trace):
            etas[u] = state[0][8]
            trace(it, min(etas[lo], etas[hi]), max(etas[lo], etas[hi]), etas[u], t)
    res = solve_bracketed(T, state, u0, v + eta0, c, xtol=cfg.eta_tol, ftol=cfg.residual_tol,
                          max_iter=cfg.max_iter, at_c=at_c, trace=report)
    root, hi = res.root, res.bound if res.bound == res.bound else at_c  # NaN: the pole's
    t1, _, _, _, _, lo, err, v, eta, e1, o_pt, o_s, rnd = res.entry
    lo, hi = hi if hi < lo else lo, hi if hi > lo else lo
    t, slope = res.residual, e1 / t1 if t1 else 0.0  # 1 / T'(eta), T' >= 1
    eta -= t * slope
    if not lo <= eta <= hi:
        eta = lo if lo > -v else -v
        eta = hi if hi < eta else eta
    if (err <= cfg._residual_stop
            and rnd <= _ROUNDING_SHARE * (0.5 * cfg.eta_tol + 4.0 * EPS * eta)):
        # the curve points there, moved to eta to first order in s
        ds = -t / t1 if t1 else 0.0
        state[0] = o_pt + o_s * ds, root + (root - c) * ds
        return eta, res.iterations
    return _finish(state, eta, slope, cfg), res.iterations


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

    Validates the input once, at its entry.  Dispatches on the sign class
    of the base conjugate, resolves the region and assembles the prox in
    one pass over the two value curves (the search reuses them), and
    attaches the Fenchel certificate (``certificate_gap``), both sized by
    one ``||x|| / gamma``.
    """
    x, y = check_input(pair, gamma, x, y)
    size = math.hypot(*x) / gamma
    base_drives = pair._drives
    if base_drives is None:
        # decoupled: the base prox in x, the projection onto cl conv S in y
        p, q = pair.base.prox_primal(gamma, x), pair.scaling.prox_env(0.0, y)
        label, eta, iters = _CASE_II, 0.0, 0
    else:
        region, o_pt, i_pt, eta, r = _signed_pass(pair, gamma, x, y, base_drives, size)
        iters = 0
        if region == 4:  # on the pass's search state
            state = eta
            solve = solve_eta_case_i if base_drives else solve_eta_case_iii
            eta, iters = solve(pair, gamma, x, y, cfg, state=state)
            o_pt, i_pt = state[0]
        label = _LABELS[base_drives][region - 1]
        rho, q = (o_pt, i_pt) if base_drives else (i_pt, o_pt)
        # along the ray; exactly 0 where a x_i == x_i, as the certificate's recession test needs
        a = 1.0 if rho == r else rho / r
        p = tuple([xi - xi * a for xi in x])
    gap = certificate_gap(pair, gamma, x, y, p, q, size)
    return ProxResult(p, q, eta, label, iters, gap)
