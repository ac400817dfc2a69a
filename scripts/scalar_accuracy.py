#!/usr/bin/env python3
"""Errors, in ulps, of the scalar equation solvers against a 64-digit solve.

Draws seeded inputs for each solver and prints, per group, the median and
the maximum of ``|got - ref| / ulp(ref)``, where ``ref`` is the root of
the solver's own equation, with the drawn doubles as exact inputs, found
in ``decimal`` at 64 digits by safeguarded Newton in the log of the
unknown (to 1e-40 of ``1 + |log ref|``).  The last column is the maximum
of that error over the equation's condition number ``1 + sum|terms| /
(ref * g'(ref))``, ``g`` its residual in the unknown: the rounding of the
terms alone moves a root by about that many ulps, so a solver whose
evaluations are the equation's own terms reads about 1 or less there:

- ``PowerScalar(p*).prox(w, a)``, the root ``rho`` of ``rho + w *
  rho**(p* - 1) = a``, per ``p*``, with ``w = 10**U(-20, 20)`` and ``a =
  10**U(-30, 30)``;
- ``root_scaling_prox_neg(mu, q, y)``, the root ``z`` of ``z - q * mu *
  z**(q - 1) = y``, per ``q``, with ``y = +-10**U(-30, 30)`` and ``mu =
  10**U(-40, 20)``;
- ``sqrt_scaling_prox(beta, mu, y)``, the root ``r = |z|`` of ``r - |y| +
  mu * r / sqrt(beta + r**2) = 0``, with ``beta = 10**U(-12, 12)``, ``mu =
  10**U(-20, 20)`` and ``y = +-10**U(-30, 30)``.

A draw whose reference lies outside the doubles (or whose solver raises)
is counted apart, not in the errors.  ``--src`` measures another
checkout's package (its ``src`` directory), so two checkouts compare on the
same draws:

    python3 scripts/scalar_accuracy.py
    python3 scripts/scalar_accuracy.py --src ../parent/src --draws 300 --seed 0

Uses only the standard library.
"""

import argparse
import decimal
import math
import random
import statistics
import sys
from pathlib import Path

D = decimal.Decimal
PRECISION = 64
POWER_PSTARS = (1.001, 1.01, 1.0526, 1.5, 3.0, 21.0, 50.0, 1000.0)
ROOT_QS = (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6)
LARGEST = D(sys.float_info.max)


def log_root(F, dF, t0: D) -> D:
    """The root of ``F``, increasing in ``t``, with derivative ``dF``: a
    bracket grown around ``t0``, then Newton, bisecting where a step leaves
    the bracket, in the current context."""
    lo = hi = t0
    step = D(1)
    while F(lo) > 0:
        lo, step = lo - step, 2 * step
    step = D(1)
    while F(hi) < 0:
        hi, step = hi + step, 2 * step
    t = hi
    tol = D("1e-40")
    for _ in range(400):
        f = F(t)
        if f == 0:
            return t
        if f > 0:
            hi = t
        else:
            lo = t
        nxt = t - f / dF(t)
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        if abs(nxt - t) <= tol * (1 + abs(t)) or hi - lo <= tol * (1 + abs(t)):
            return nxt
        t = nxt
    raise RuntimeError("no convergence of the reference solve")


def ulps(got: float, ref: D) -> float | None:
    """``|got - ref|`` in ulps of ``ref``'s nearest double; None where ``ref``
    lies beyond the largest double."""
    if abs(ref) > LARGEST:
        return None
    return float(abs(D(got) - ref) / D(math.ulp(float(ref))))


def decades(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def power_errors(persprox, pstar: float, draws: int, rng: random.Random):
    h = persprox.PowerScalar(pstar)
    for _ in range(draws):
        w, a = decades(rng, -20.0, 20.0), decades(rng, -30.0, 30.0)
        r1, da, log_w = D(pstar) - 1, D(a), D(w).ln()
        t = log_root(lambda t: t.exp() + (log_w + r1 * t).exp() - da,
                     lambda t: t.exp() + r1 * (log_w + r1 * t).exp(),
                     min(da.ln(), (da.ln() - log_w) / r1))
        u, m = t.exp(), (log_w + r1 * t).exp()
        yield h.prox, (w, a), u, 1 + (u + m + da) / (u + r1 * m)


def root_errors(persprox, q: float, draws: int, rng: random.Random):
    for _ in range(draws):
        mu, y = decades(rng, -40.0, 20.0), rng.choice((-1.0, 1.0)) * decades(rng, -30.0, 30.0)
        dq, dy, log_c = D(q), D(y), (D(q) * D(mu)).ln()
        t = log_root(lambda t: t.exp() - (log_c + (dq - 1) * t).exp() - dy,
                     lambda t: t.exp() + (1 - dq) * (log_c + (dq - 1) * t).exp(), D(0))
        z, m = t.exp(), (log_c + (dq - 1) * t).exp()
        cond = 1 + (z + m + abs(dy)) / (z + (1 - dq) * m)
        yield persprox.root_scaling_prox_neg, (mu, q, y), z, cond


def sqrt_errors(persprox, draws: int, rng: random.Random):
    def solve(beta, mu, y):
        return abs(persprox.sqrt_scaling_prox(beta, mu, y))

    for _ in range(draws):
        beta, mu = decades(rng, -12.0, 12.0), decades(rng, -20.0, 20.0)
        y = rng.choice((-1.0, 1.0)) * decades(rng, -30.0, 30.0)
        db, dmu, day = D(beta), D(mu), D(abs(y))

        def F(t):
            u = t.exp()
            return u - day + dmu * u / (db + u * u).sqrt()

        def dF(t):
            u = t.exp()
            s = (db + u * u).sqrt()
            return u * (1 + dmu * db / (s * s * s))

        r = log_root(F, dF, day.ln()).exp()
        s = (db + r * r).sqrt()
        cond = 1 + (r + day + dmu * r / s) / (r * (1 + dmu * db / (s * s * s)))
        yield solve, (beta, mu, y), r, cond


def summarize(name: str, cases) -> None:
    errors, scaled, skipped = [], [], 0
    for solve, args, ref, cond in cases:
        try:
            got = solve(*args)
        except (ArithmeticError, RuntimeError, ValueError):
            skipped += 1
            continue
        e = ulps(got, ref)
        if e is None:
            skipped += 1
        else:
            errors.append(e)
            scaled.append(e / float(cond))
    if errors:
        print(f"{name:<24} {len(errors):>6} {statistics.median(errors):>10.3g} "
              f"{max(errors):>10.3g} {skipped:>8} {max(scaled):>10.3g}")
    else:
        print(f"{name:<24} {0:>6} {'-':>10} {'-':>10} {skipped:>8} {'-':>10}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to measure (default: this one)")
    parser.add_argument("--draws", type=int, default=300, help="draws per group")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import persprox

    print(f"{'solver':<24} {'draws':>6} {'median':>10} {'max':>10} {'skipped':>8} {'max/cond':>10}"
          "  (ulps)")
    with decimal.localcontext() as ctx:
        ctx.prec = PRECISION
        for i, pstar in enumerate(POWER_PSTARS):
            rng = random.Random(f"power {args.seed} {i}")
            summarize(f"power p*={pstar:g}", power_errors(persprox, pstar, args.draws, rng))
        for i, q in enumerate(ROOT_QS):
            rng = random.Random(f"root {args.seed} {i}")
            summarize(f"root q={q:g}", root_errors(persprox, q, args.draws, rng))
        summarize("sqrt", sqrt_errors(persprox, args.draws, random.Random(f"sqrt {args.seed}")))


if __name__ == "__main__":
    main()
