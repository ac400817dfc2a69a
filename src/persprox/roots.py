"""Scalar root finding, and a closed-form quartic solver nothing calls.

``solve_bracketed`` is a Halley-Newton-bisection search for the root of a
function of slope at least 1, the multiplier residual ``T`` of ``solver``,
which reads the first and second derivative from one call.
``real_quartic_roots`` (Ferrari, in ``quartic``) is a reference utility:
no code path of the package calls it.
"""

from __future__ import annotations

import math

from .core import EPS, MIN_NORMAL, Record

INF, NAN = math.inf, math.nan

# a bracket whose ends differ by more than this factor is split in log space,
# with the smallest normal double standing in for a lower end of 0
_WIDE_RATIO = 16.0


class RootFindError(RuntimeError):
    """Root finder could not bracket or converge; carries diagnostics."""

    def __init__(self, message: str, lo: float, hi: float, flo: float, fhi: float):
        super().__init__(f"{message} (bracket [{lo!r}, {hi!r}], values [{flo!r}, {fhi!r}])")
        self.lo, self.hi, self.flo, self.fhi = lo, hi, flo, fhi


class RootResult(Record):
    """Root, ``fn`` there, and the evaluations made: a plain record per search."""

    __slots__ = ("root", "residual", "iterations")

    def __init__(self, root: float, residual: float, iterations: int):
        self.root = root
        self.residual = residual
        self.iterations = iterations


def solve_bracketed(fn, derivatives, f0: float, *, xtol: float, ftol: float,
                    max_iter: int, trace=None) -> RootResult:
    """Root of ``fn`` from ``f0 = fn(0) <= 0``, where ``fn(u) - fn(v) >= u - v``
    for ``u > v``, and ``derivatives(x)`` is ``(fn'(x), fn''(x))`` at an
    evaluated ``x``; a NaN ``fn''`` (from a caller that has none) keeps
    every step Newton's.

    The root lies in ``[0, -f0]``, whose upper end is not evaluated, and
    within ``|fn(x)|`` of each evaluated ``x``, the bound to which the
    bracket shrinks (widened by two rounding units).  Each step, from
    ``b``, the end evaluated last, is a Newton step ``s = -fn(b)/fn'(b)``
    where ``fn'(b)`` is positive and finite and the step moves towards
    the far end without passing it (nor 3/4 of the way to an evaluated
    end), and a bisection otherwise: in log space while the ends differ by
    more than a factor 16, ``xtol`` (or the smallest normal double)
    standing in for a lower end of 0, and there no step lands below the
    geometric midpoint.  A Newton step longer than the width tolerance
    that stops short of the far end becomes Halley's, ``s / (1 - k)`` with
    ``k = fn(b) * fn''(b) / (2 * fn'(b)**2)``, where ``|k| <= 1/2`` and
    that step obeys the same limits; otherwise the Newton step stays.
    ``derivatives`` is not called once the width is met.  A step shorter
    than the width tolerance becomes that tolerance.

    It stops at ``b`` once ``fn(b) == 0``, or once ``|fn(b)| <= min(ftol,
    xtol/2)`` (the root is then within ``xtol/2`` of ``b``).  Once the
    half-width is at most ``2*eps*|b| + xtol/2`` it stops at whichever
    evaluated end has the smaller ``|fn|``, if that is at most ``ftol``;
    while only the width is met it evaluates a far end never evaluated,
    and bisects otherwise.  With no double strictly inside a bracket of
    evaluated ends it stops at the end of smaller ``|fn|``, the root to
    float resolution, whatever its residual.  The rounding of ``fn`` can
    break the bound of an end never evaluated: an evaluation there with
    the wrong sign replaces it by the last evaluated point beyond, or else
    by its own bound.

    ``iterations`` counts calls of ``fn``; ``trace(it, lo, hi, x, fn(x))``
    gets each evaluated ``x`` and the bracket it was chosen in.
    """
    if not f0 <= 0.0:
        raise RootFindError("no sign change on bracket", 0.0, -f0, f0, NAN)
    lo, hi, flo, fhi = 0.0, -f0, f0, NAN
    b, fb = lo, flo
    # the last points evaluated below and above the root (the upper end
    # until one is), which replace an end whose bound rounding broke
    neg, fneg, pos, fpos = lo, flo, hi, fhi
    fstop = min(ftol, 0.5 * xtol)
    half_xtol = 0.5 * xtol
    floor = max(xtol, MIN_NORMAL)
    two_eps = 2.0 * EPS
    sqrt, copysign = math.sqrt, math.copysign
    it = 0
    while True:
        if fb < 0.0:
            far, ffar = hi, fhi
        else:
            far, ffar = lo, flo
        xm = 0.5 * (far - b)
        axm = abs(xm)
        afb = abs(fb)
        tol = two_eps * abs(b) + half_xtol
        width_met = axm <= tol
        if fb == 0.0 or afb <= fstop:
            return RootResult(b, fb, it)
        if width_met:
            if abs(ffar) <= ftol and abs(ffar) < afb:  # never true of a NaN
                return RootResult(far, ffar, it)
            if afb <= ftol:
                return RootResult(b, fb, it)
        # b + xm at b or far: no double lies strictly inside the bracket,
        # whose width is then met unless tol is 0
        mid = b + xm
        edge = mid == b or mid == far
        if edge and (ffar == ffar or afb <= ftol):
            if abs(ffar) < afb:
                return RootResult(far, ffar, it)
            return RootResult(b, fb, it)
        if it >= max_iter:
            raise RootFindError(f"no convergence in {max_iter} iterations", lo, hi, flo, fhi)
        if ffar != ffar and (edge or width_met):
            # fn(b) misses ftol next to an end never evaluated: evaluate it
            # rather than trust its bound or creep towards it
            x = far
        else:
            # the Newton step, or NaN where it is not taken
            db, d2b = (NAN, NAN) if width_met else derivatives(b)
            step = -fb / db if 0.0 < db < INF else NAN
            reach = 2.0 * axm if ffar != ffar else 1.5 * axm - 0.5 * tol
            if not ((step > 0.0) == (xm > 0.0) and abs(step) <= reach):
                step = NAN
            low = lo if lo > floor else floor
            wide = hi > _WIDE_RATIO * low
            if wide:
                # no step lands below the geometric midpoint of a wide bracket
                gm = sqrt(low) * sqrt(hi)
                least = gm - b
            if wide and not step >= least:
                # the log-space bisection lands on its midpoint itself, since
                # b + (gm - b) can round to an end of the bracket
                x = gm
            else:
                if step != step:
                    step = xm
                elif tol < abs(step) < 2.0 * axm:
                    # Halley's step, where the curvature shifts Newton's by at
                    # most a factor 2 and keeps it in reach and above gm
                    k = -0.5 * step * d2b / db  # T T'' / (2 T'**2)
                    if -0.5 <= k <= 0.5:
                        halley = step / (1.0 - k)
                        if abs(halley) <= reach and (not wide or halley >= least):
                            step = halley
                # a step shorter than tol becomes tol, which stays inside the
                # bracket unless the width is met, when it is the bisection
                x = b + (step if width_met or abs(step) > tol else copysign(tol, xm))
        b = x
        fb = fn(b)
        it += 1
        if trace is not None:  # [lo, hi] is the bracket b was chosen in
            trace(it, lo, hi, b, fb)
        # the bound, widened by the rounding of fn(b) near b
        bound = b - fb
        slack = EPS * (abs(b) + abs(bound))
        if fb < 0.0:
            lo = neg = b
            flo = fneg = fb
            if b >= hi:  # fn's rounding put the root past an end never evaluated
                hi, fhi = (pos, fpos) if pos > b else (INF, NAN)
            if bound + slack < hi:
                hi, fhi = bound + slack, NAN
        elif fb > 0.0:
            hi = pos = b
            fhi = fpos = fb
            if b <= lo:
                lo, flo = (neg, fneg) if neg < b else (-INF, NAN)
            if bound - slack > lo:
                lo, flo = bound - slack, NAN


def real_quartic_roots(
    b: float, c: float, d: float, e: float, near_real_tol: float = 1e-13
) -> list[float]:
    """Real roots of the monic quartic ``x^4 + b x^3 + c x^2 + d x + e``:
    ``quartic.real_quartic_roots``, whose module loads on the first call,
    so a prox process, which never calls it, does not compile it."""
    from . import quartic

    return quartic.real_quartic_roots(b, c, d, e, near_real_tol)
