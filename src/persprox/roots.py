"""Scalar root finding, and a closed-form quartic solver nothing calls.

``solve_bracketed`` is a Halley-Newton-secant-bisection search on a bracket
with one evaluated end, for ``solver``'s multiplier residual.
``real_quartic_roots`` (Ferrari, in ``quartic``) is a reference utility:
no code path of the package calls it.
"""

from __future__ import annotations

import math

from .core import EPS, LOG_MAX, Record

INF, NAN = math.inf, math.nan
_WIDE_RATIO = 16.0  # ends whose distances to the pole differ more bisect in its log


class RootFindError(RuntimeError):
    """Root finder could not bracket or converge; carries diagnostics."""

    def __init__(self, message: str, lo: float, hi: float, flo: float, fhi: float):
        super().__init__(f"{message} (bracket [{lo!r}, {hi!r}], values [{flo!r}, {fhi!r}])")
        self.lo, self.hi, self.flo, self.fhi = lo, hi, flo, fhi


class RootResult(Record):
    """Root, ``fn`` there, the evaluations made, the root's entry and the
    other end's bound (NaN where it returned NaN): a plain record per search."""

    __slots__ = ("root", "residual", "iterations", "entry", "bound")

    def __init__(self, root: float, residual: float, iterations: int, entry: tuple, bound: float):
        self.root, self.residual, self.iterations = root, residual, iterations
        self.entry, self.bound = entry, bound


def _target(f: float, f1: float, f2: float, b: float, c: float, lo: float, hi: float,
            toward: float) -> float:
    """``solve_bracketed``'s Halley, else Newton target from ``b`` for ``f``
    with derivatives ``f1``, ``f2`` in ``s``; NaN where neither lands inside."""
    if not (f1 != 0.0 and -INF < f1 < INF and -INF < f < INF):
        return NAN
    newton = -f / f1
    k = -0.5 * newton * f2 / f1
    step = newton / (1.0 - k) if -0.5 <= k <= 0.5 else newton
    tol = 2.0 * EPS * (b if b > 0.0 else -b)
    while True:
        if step < LOG_MAX:
            t = c + (b - c) * math.exp(step)
            if t == c:
                t = math.nextafter(c, b)
            if -tol < t - b < tol:
                t = b + toward * tol
            if lo < t < hi:
                return t
        if step == newton:
            return NAN
        step = newton


def solve_bracketed(fn, slot: list, b: float, fb: float, c: float, *, xtol: float,
                    ftol: float, max_iter: int, at_c: float = NAN, trace=None) -> RootResult:
    """Root of ``fn``, which changes sign once between ``b``, where ``fb =
    fn(b)`` is known and finite, and ``c``, never evaluated, beyond which it
    has the other sign (or a pole).

    Steps are taken in ``s = log|x - c|``, which keeps every point on the
    side of ``c``.  Each ``fn(x)`` leaves in ``slot[0]`` (holding ``b``'s at
    entry) ``x``'s entry, which starts ``(f_s, f_ss, g, g_s, g_ss, e,
    err)``: ``fn``'s first two derivatives in ``s``; a second function with
    the root and sign of ``fn`` and its two (NaN where none); ``e``, a bound
    on the root from the side of ``x`` (``x`` where NaN; ``at_c`` for
    ``c``); and ``err``, ``|fn|`` as predicted at the point the caller
    reports from ``x``.  The search keeps its ends' entries, so after an
    evaluation that returns NaN ``b``'s own stay in use.  From ``b``,
    the end evaluated last, each function gives Halley's step where ``|k|
    <= 1/2`` (``k = f f_ss / (2 f_s**2)``) and it stays inside, else
    Newton's; a target on ``c`` becomes its neighbour double, a move under
    two rounding units of ``b`` that long.  The search takes the target
    moving farthest; failing both, the Illinois secant between evaluated
    ends, then a bisection, in ``s`` while the ends' distances to ``c``
    differ by over ``_WIDE_RATIO`` and ``c`` is not an end.  A NaN ``fn``
    counts as the side of ``c``.

    It stops at ``b`` once ``|fn(b)|`` or ``err`` is at most ``min(ftol,
    xtol/2)``; and at the evaluated end of smaller ``|fn|`` once the ends'
    bounds are within ``xtol`` plus four rounding units (without bounds, the
    ends within ``xtol``) or no double lies inside.  ``iterations`` counts
    calls of ``fn``, and ``trace(it, lo, hi, x, fn(x))`` gets each
    evaluated ``x`` and its bracket, with ``x``'s entry in the slot.
    """
    if not -INF < fb < INF or b == c:
        raise RootFindError("no sign change on bracket", b, c, fb, NAN)
    far, ffar, efar, fsec = c, NAN, at_c, NAN  # fsec: ffar, halved each time far is kept
    db, dfar = slot[0], None  # the ends' entries
    fstop, it = min(ftol, 0.5 * xtol), 0
    while True:
        if -fstop <= fb <= fstop or db[6] <= fstop:
            return RootResult(b, fb, it, db, efar)
        e = db[5]
        mid = b + 0.5 * (far - b)
        width = abs(efar - e) <= 4.0 * EPS * abs(e) + xtol if e == e else abs(far - b) <= xtol
        if width or mid == b or mid == far:
            if abs(ffar) < abs(fb):  # never true of an end not evaluated
                return RootResult(far, ffar, it, dfar, e)
            return RootResult(b, fb, it, db, efar)
        if it >= max_iter:
            raise RootFindError(f"no convergence in {max_iter} iterations", b, far, fb, ffar)
        lo, hi, toward = (b, far, 1.0) if b < far else (far, b, -1.0)
        x = _target(fb, db[0], db[1], b, c, lo, hi, toward)
        if db[2] == db[2]:
            t = _target(db[2], db[3], db[4], b, c, lo, hi, toward)
            if t == t and not abs(x - b) >= abs(t - b):  # also when x is NaN
                x = t
        if x != x:
            if -INF < fsec < INF:  # the secant, Illinois-weighted
                x = b - fb * (far - b) / (fsec - fb)
                tol = 2.0 * EPS * abs(b)
                if -tol < x - b < tol:
                    x = b + toward * tol
            if not lo < x < hi:
                gap_b, gap_far = abs(b - c), abs(far - c)
                x = mid
                if _WIDE_RATIO * gap_b < gap_far or _WIDE_RATIO * gap_far < gap_b:
                    x = c + (b - c) * math.sqrt(gap_far / gap_b)  # c itself where far is c
                    if not lo < x < hi:
                        x = mid
        fx = fn(x)
        it += 1
        if trace is not None:  # [lo, hi] is the bracket x was chosen in
            trace(it, lo, hi, x, fx)
        if fx != fx:
            far, ffar, efar, fsec, dfar = x, NAN, NAN, NAN, slot[0]
        elif (fx > 0.0) == (fb > 0.0):
            b, fb, db = x, fx, slot[0]
            fsec *= 0.5  # the end kept again weighs half in the next secant
        else:
            far, ffar, efar, fsec, dfar, b, fb, db = b, fb, e, fb, db, x, fx, slot[0]


def real_quartic_roots(
    b: float, c: float, d: float, e: float, near_real_tol: float = 1e-13
) -> list[float]:
    """Real roots of the monic quartic ``x^4 + b x^3 + c x^2 + d x + e``:
    ``quartic.real_quartic_roots``, whose module loads on the first call,
    so a prox process, which never calls it, does not compile it."""
    from . import quartic

    return quartic.real_quartic_roots(b, c, d, e, near_real_tol)
