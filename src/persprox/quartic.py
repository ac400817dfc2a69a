"""Ferrari's real roots of a monic quartic: a reference utility.

No code path of the package calls it; ``roots.real_quartic_roots`` loads
this module on first use, so a prox process never compiles it.
"""

from __future__ import annotations

import math


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
            # a step refines the candidate, which lies within about eps**(1/4) of its root: a
            # longer one (or a NaN) leaves for another root, as at a double root's tiny slope
            if dfx == 0.0 or not abs(step := fx / dfx) <= 1e-3 * (1.0 + abs(x)):
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
