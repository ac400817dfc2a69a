"""Scalar root finding and the closed-form quartic solver.

``solve_bracketed`` is Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973) with a Newton step in front:
Newton, inverse quadratic interpolation and secant steps, safeguarded by
bisection inside a bracket that always keeps its sign change.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import Record

_EPS = 2.0 ** -52  # machine epsilon
NAN = math.nan

# a nonnegative bracket whose ends differ by more than this factor is split in
# log space, with the smallest normal double standing in for a lower end of 0
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
    lo: float,
    hi: float,
    flo: float,
    fhi: float | None,
    *,
    xtol: float,
    ftol: float,
    max_iter: int,
    trace: Callable[[int, float, float, float, float], None] | None = None,
    slope: Callable[[float], float] | None = None,
    min_slope: float = 0.0,
) -> RootResult:
    """Root of an increasing ``fn`` on a sign-changing bracket ``[lo, hi]``.

    Each step starts from ``b``, the point evaluated last (at first the end
    of smaller ``|fn|``), which is always an end of the bracket.  It is, in
    this order, a Newton step when ``slope(b)`` gives a positive finite
    derivative of ``fn`` at ``b``, an inverse quadratic interpolation or
    secant step through evaluated points, or a bisection.  A Newton or
    interpolation step is taken only when it moves towards the far end of
    the bracket and stops short of it (less than 3/4 of the way where that
    end was evaluated; an end that was not may be reached), and when it is
    shorter than half the step before last, or the last step halved
    ``|fn|`` (with ``min_slope``, where that bounds the width): Brent's
    test.  A step shorter than the width tolerance becomes that tolerance.
    A bracket with ``lo >= 0`` whose ends differ by more than a factor 16
    is split in log space, ``xtol`` (or, where that is 0, the smallest
    normal double) standing in for a lower end of 0: no step lands below
    its geometric midpoint, and its bisection is that midpoint.  There the
    root can lie many decades below ``hi``.

    With ``min_slope = L > 0`` the caller asserts ``fn(u) - fn(v) >= L *
    (u - v)`` for ``u > v``, so each evaluation also bounds the root within
    ``|fn(x)| / L`` of ``x`` (widened by two rounding units of ``x``) and
    the bracket shrinks to that bound; ``fhi`` may then be None, an upper
    end that was not evaluated.  Such an end is a bound that the rounding
    of ``fn`` can break: an evaluation there with the wrong sign replaces
    it by the last evaluated point beyond, or else by its own bound.

    It stops at ``b`` once ``fn(b) == 0``, once ``|fn(b)| <= L * min(ftol,
    xtol/2)`` (the root is then within ``xtol/2`` of ``b``), or once the
    half-width is at most ``2*eps*|b| + xtol/2`` and ``|fn(b)| <= ftol``.
    While only the width is met it evaluates the far end if that was
    never evaluated, and bisects otherwise.  When no double lies strictly
    inside a bracket of evaluated ends it stops at the end of smaller
    ``|fn|``: the root to float resolution, whatever its residual.
    ``iterations`` counts calls of ``fn``; ``trace(it, lo, hi, x, fn(x))``
    gets each evaluated ``x`` and the bracket it was chosen in.
    """
    if flo > 0.0 or (fhi is not None and fhi < 0.0):
        raise RootFindError("no sign change on bracket", lo, hi, flo, fhi)
    if fhi is None:
        if min_slope <= 0.0:
            raise ValueError("an upper end that was not evaluated needs min_slope > 0")
        fhi = NAN
    # b is the last evaluated point and a the one before; neg and pos are
    # the last evaluated points below and above the root, for interpolation
    if fhi == fhi and abs(fhi) < abs(flo):
        b, fb, a, fa = hi, fhi, lo, flo
    else:
        b, fb, a, fa = lo, flo, hi, fhi
    neg, pos = (lo, flo), (hi, fhi)
    shrink = min_slope > 0.0
    fstop = min_slope * min(ftol, 0.5 * xtol)
    d, e = hi - lo, math.inf  # the first step has no step before last
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
            d = e = far - b
            x = far
        else:
            ok = False
            if not (width_met or abs(e) < tol):
                reach = 2.0 * abs(xm) if ffar != ffar else 1.5 * abs(xm) - 0.5 * tol
                progress = shrink and 2.0 * abs(fb) <= abs(fa)
                if slope is not None:
                    db = slope(b)
                    if 0.0 < db < math.inf:
                        step = -fb / db
                        ok = _acceptable(step, xm, reach, e, progress)
                if not ok:
                    step = _interpolate(a, fa, b, fb, *(pos if fb < 0.0 else neg))
                    ok = _acceptable(step, xm, reach, e, progress)
            mid = None
            if lo >= 0.0 and hi > _WIDE_RATIO * max(lo, xtol, _TINY):
                geo = math.sqrt(max(lo, xtol, _TINY)) * math.sqrt(hi)
                if not (ok and step >= geo - b):
                    ok, step, mid = False, geo - b, geo
            elif not ok:
                step = xm
            if ok:
                e, d = d, step
            else:
                d = e = step
            # a step shorter than tol becomes tol, which stays inside the bracket
            # unless the width is met, when the step is the exact bisection; a
            # log-space bisection, always longer than tol, lands on its midpoint
            # itself, since b + (mid - b) can round to an end of the bracket
            if mid is not None:
                x = mid
            else:
                x = b + (d if width_met or abs(d) > tol else math.copysign(tol, xm))
        a, fa = b, fb
        b = x
        fb = fn(b)
        it += 1
        if trace is not None:  # [lo, hi] is the bracket b was chosen in
            trace(it, lo, hi, b, fb)
        if shrink:
            # the bound, widened by the rounding of fn(b) near b
            bound = b - fb / min_slope
            slack = _EPS * (abs(b) + abs(bound))
        if fb < 0.0:
            lo, flo = neg = b, fb
            if b >= hi:  # fn's rounding put the root past an end never evaluated
                hi, fhi = pos if pos[0] > b else (math.inf, NAN)
            if shrink and bound + slack < hi:
                hi, fhi = bound + slack, NAN
        elif fb > 0.0:
            hi, fhi = pos = b, fb
            if b <= lo:
                lo, flo = neg if neg[0] < b else (-math.inf, NAN)
            if shrink and bound - slack > lo:
                lo, flo = bound - slack, NAN


def _acceptable(step: float, xm: float, reach: float, e: float, progress: bool) -> bool:
    """Towards the far end ``b + 2 xm``, at most ``reach`` long, and shorter
    than half the step before last unless ``progress`` (False for NaN)."""
    return ((step > 0.0) == (xm > 0.0) and abs(step) <= reach
            and (progress or 2.0 * abs(step) < abs(e)))


def _interpolate(a, fa, b, fb, k, fk) -> float:
    """Step from ``b`` to the root of the inverse quadratic through the
    evaluated points ``a``, ``b`` and ``k`` (``k`` on the other side of
    the root), or of the secant through ``b`` and ``k``; NaN where ``k`` was
    not evaluated."""
    if fk != fk:
        return NAN
    if a != k and fa == fa and fa != fb and fa != fk:
        return ((a - b) * fb * fk / ((fa - fb) * (fa - fk))
                + (k - b) * fa * fb / ((fk - fa) * (fk - fb)))
    return -fb * (b - k) / (fb - fk)


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
