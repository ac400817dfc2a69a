"""Scalar root finding and the closed-form quartic solver.

``solve_bracketed`` is a Newton-bisection search for the root of a function
of slope at least 1, the multiplier residual ``T`` of ``solver``.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import Record

_EPS = 2.0 ** -52  # machine epsilon
NAN = math.nan

# a bracket whose ends differ by more than this factor is split in log space,
# with the smallest normal double standing in for a lower end of 0
_WIDE_RATIO = 16.0
_TINY = 2.0 ** -1022


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


def solve_bracketed(
    fn: Callable[[float], float],
    slope: Callable[[float], float],
    f0: float,
    *,
    xtol: float,
    ftol: float,
    max_iter: int,
    trace: Callable[[int, float, float, float, float], None] | None = None,
) -> RootResult:
    """Root of ``fn`` from ``f0 = fn(0) <= 0``, where ``fn(u) - fn(v) >= u - v``
    for ``u > v`` and ``slope(x)`` is ``fn'(x)`` at an evaluated ``x``.

    The root lies in ``[0, -f0]``, whose upper end is not evaluated, and
    within ``|fn(x)|`` of each evaluated ``x``, the bound to which the
    bracket shrinks (widened by two rounding units).  Each step, from
    ``b``, the end evaluated last, is a Newton step where ``slope(b)`` is
    positive and finite and the step moves towards the far end without
    passing it (nor 3/4 of the way to an evaluated end), and a bisection
    otherwise: in log space while the ends differ by more than a factor
    16, ``xtol`` (or the smallest normal double) standing in for a lower
    end of 0, and there no step lands below the geometric midpoint.  A
    step shorter than the width tolerance becomes that tolerance.

    It stops at ``b`` once ``fn(b) == 0``, once ``|fn(b)| <= min(ftol,
    xtol/2)`` (the root is then within ``xtol/2`` of ``b``), or once the
    half-width is at most ``2*eps*|b| + xtol/2`` and ``|fn(b)| <= ftol``;
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
    neg, pos = (lo, flo), (hi, fhi)
    fstop = min(ftol, 0.5 * xtol)
    it = 0
    while True:
        far, ffar = (hi, fhi) if fb < 0.0 else (lo, flo)
        xm = 0.5 * (far - b)
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        width_met = abs(xm) <= tol
        if fb == 0.0 or abs(fb) <= fstop or (width_met and abs(fb) <= ftol):
            return RootResult(b, fb, it)
        # b + xm in (b, far): no double lies strictly inside the bracket,
        # whose width is then met unless tol is 0
        edge = b + xm in (b, far)
        if edge and (ffar == ffar or abs(fb) <= ftol):
            if abs(ffar) < abs(fb):
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
            db = NAN if width_met else slope(b)
            step = -fb / db if 0.0 < db < math.inf else NAN
            reach = 2.0 * abs(xm) if ffar != ffar else 1.5 * abs(xm) - 0.5 * tol
            if not ((step > 0.0) == (xm > 0.0) and abs(step) <= reach):
                step = NAN
            low = max(lo, xtol, _TINY)
            if hi > _WIDE_RATIO * low and not step >= math.sqrt(low) * math.sqrt(hi) - b:
                # the log-space bisection lands on its midpoint itself, since
                # b + (mid - b) can round to an end of the bracket
                x = math.sqrt(low) * math.sqrt(hi)
            else:
                step = xm if step != step else step
                # a step shorter than tol becomes tol, which stays inside the
                # bracket unless the width is met, when it is the bisection
                x = b + (step if width_met or abs(step) > tol else math.copysign(tol, xm))
        b = x
        fb = fn(b)
        it += 1
        if trace is not None:  # [lo, hi] is the bracket b was chosen in
            trace(it, lo, hi, b, fb)
        # the bound, widened by the rounding of fn(b) near b
        bound = b - fb
        slack = _EPS * (abs(b) + abs(bound))
        if fb < 0.0:
            lo, flo = neg = b, fb
            if b >= hi:  # fn's rounding put the root past an end never evaluated
                hi, fhi = pos if pos[0] > b else (math.inf, NAN)
            if bound + slack < hi:
                hi, fhi = bound + slack, NAN
        elif fb > 0.0:
            hi, fhi = pos = b, fb
            if b <= lo:
                lo, flo = neg if neg[0] < b else (-math.inf, NAN)
            if bound - slack > lo:
                lo, flo = bound - slack, NAN


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _cubic_largest_real_root(a: float, b: float, c: float) -> float:
    """Largest real root of ``m^3 + a m^2 + b m + c``.

    Cardano / trigonometric formulas followed by a guarded Newton polish:
    the depression shift cancels catastrophically when the root is tiny
    against the coefficients.
    """
    p = b - a * a / 3.0
    q = c - a * b / 3.0 + 2.0 * a ** 3 / 27.0
    shift = -a / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc >= 0.0:
        s = math.sqrt(disc)
        m = _cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s) + shift
    else:
        # three real roots; the largest comes from cos(theta/3)
        r = math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, (-q / 2.0) / r ** 3)))
        m = 2.0 * r * math.cos(theta / 3.0) + shift

    def cubic_at(x: float) -> float:
        return ((x + a) * x + b) * x + c

    fm = cubic_at(m)
    for _ in range(3):
        dfm = (3.0 * m + 2.0 * a) * m + b
        if dfm == 0.0 or not math.isfinite(dfm):
            break
        m2 = m - fm / dfm
        if not math.isfinite(m2):
            break
        fm2 = cubic_at(m2)
        if abs(fm2) >= abs(fm):
            break
        m, fm = m2, fm2
    return m


def _biquadratic_real(p: float, r: float, tol: float) -> list[float]:
    disc = p * p / 4.0 - r
    out: list[float] = []
    if disc >= -tol:
        sq = math.sqrt(max(disc, 0.0))
        for u in (-p / 2.0 + sq, -p / 2.0 - sq):
            if u >= -tol:
                root = math.sqrt(max(u, 0.0))
                out.extend((root, -root))
    return out


def real_quartic_roots(
    b: float, c: float, d: float, e: float, near_real_tol: float = 1e-13
) -> list[float]:
    """Real roots of the monic quartic ``x^4 + b x^3 + c x^2 + d x + e``.

    Ferrari's reduction: depress, split with one real root of the
    resolvent cubic, then solve two quadratics.  Each real candidate gets
    two Newton polish steps against the original quartic.

    A quadratic factor whose discriminant is negative but within
    ``near_real_tol`` of the coefficient scale contributes its vertex: a
    double root whose discriminant sign was lost to round-off.  Callers
    with an independent residual check may pass a loose tolerance.
    """
    shift = -b / 4.0
    b2 = b * b
    p = c - 3.0 * b2 / 8.0
    q = d - b * c / 2.0 + b2 * b / 8.0
    r = e - b * d / 4.0 + b2 * c / 16.0 - 3.0 * b2 * b2 / 256.0

    coeff_scale = max(1.0, abs(p), abs(q), abs(r))
    if abs(q) <= 1e-14 * coeff_scale:
        roots_t = _biquadratic_real(p, r, 1e-13 * coeff_scale)
    else:
        m = _cubic_largest_real_root(p, p * p / 4.0 - r, -q * q / 8.0)
        if m <= 0.0:
            roots_t = _biquadratic_real(p, r, 1e-13 * coeff_scale)  # q ~ 0 up to round-off
        else:
            s = math.sqrt(2.0 * m)
            w = q / (2.0 * s)
            roots_t = []
            for sgn in (+1.0, -1.0):
                # factor: t^2 + sgn*s*t + (p/2 + m - sgn*w)
                disc = 2.0 * m / 4.0 - (p / 2.0 + m - sgn * w)
                if disc >= -near_real_tol * coeff_scale:
                    sq = math.sqrt(max(disc, 0.0))
                    roots_t.extend((-sgn * s / 2.0 + sq, -sgn * s / 2.0 - sq))

    def quartic_at(x: float) -> float:
        return (((x + b) * x + c) * x + d) * x + e

    out: list[float] = []
    for t in roots_t:
        x = t + shift
        fx = quartic_at(x)
        for _ in range(2):
            dfx = ((4.0 * x + 3.0 * b) * x + 2.0 * c) * x + d
            if dfx == 0.0 or not math.isfinite(dfx):
                break
            step = fx / dfx
            if not math.isfinite(step):
                break
            x2 = x - step
            fx2 = quartic_at(x2)
            if abs(fx2) >= abs(fx):  # polish must not make the residual worse
                break
            x, fx = x2, fx2
        out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-12 * (1.0 + abs(x)):
            dedup.append(x)
    return dedup
