"""Forward-backward demo: location fitting with a concomitant scale.

Minimizes a smooth least-squares term plus a quadratic scale anchor plus
the (nonsmooth) perspective coupling of residual size and scale, by the
standard gradient-step / prox-step iteration.  The smooth gradient is
analytic; the prox step is the perspective prox at the step size.  The
linear algebra is plain Python on tuples (the designs are small), so
importing the package never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import _real
from .core import EPS, dot
from .perspective import PerspectivePair, perspective_eval
from .solver import RootConfig, prox_perspective


@dataclass(frozen=True)
class DemoSpec:
    """Problem data for the concomitant-scale fit.

    The smooth part is ``0.5*||A w - b||^2 + 0.5*kappa*(sigma - y0)^2``;
    its gradient Lipschitz constant is ``max(lambda_max(A^T A), kappa)``
    and the step size must satisfy ``tau * L <= 1``.
    """

    a_matrix: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    y0: float = 1.0
    kappa: float = 1.0
    tau: float = 0.5
    iterations: int = 500
    w0: tuple[float, ...] | None = None
    sigma0: float = 0.0

    @staticmethod
    def from_dict(data: dict) -> "DemoSpec":
        """Numbers read by ``catalog._real``; ``iterations`` an int, not a bool."""
        def vec(values) -> tuple[float, ...]:
            return tuple([_real(v) for v in values])

        a, b, w0 = tuple(vec(row) for row in data["a"]), vec(data["b"]), data.get("w0")
        iterations = data.get("iterations", 500)
        if type(iterations) is not int:
            raise TypeError(f"'iterations' must be an integer, got {iterations!r}")
        return DemoSpec(a_matrix=a, b=b, y0=_real(data.get("y0", 1.0)),
                        kappa=_real(data.get("kappa", 1.0)), tau=_real(data.get("tau", 0.5)),
                        iterations=iterations, w0=None if w0 is None else vec(w0),
                        sigma0=_real(data.get("sigma0", 0.0)))


class StepSizeError(ValueError):
    """tau exceeds the stability bound 1/L of the smooth part."""


@dataclass(frozen=True)
class DemoTrace:
    rows: tuple[tuple[int, float, float], ...]  # (iteration, objective, step_norm)
    w: tuple[float, ...]
    sigma: float


def _columns(a) -> tuple[tuple[float, ...], ...]:
    """Columns of the design matrix ``a``; ragged rows raise ValueError."""
    if len({len(row) for row in a}) > 1:
        raise ValueError("the design matrix needs rows of one common length")
    return tuple(zip(*a))


def smooth_lipschitz(spec: DemoSpec) -> float:
    """``max(lambda_max(A^T A), kappa)``, exact up to rounding.

    The eigenvalue comes from cyclic Jacobi rotations, not power
    iteration: power iteration approaches lambda_max from below and would
    pass a step size that is slightly too large.
    """
    cols = _columns(spec.a_matrix)
    gram = [[dot(ci, cj) for cj in cols] for ci in cols]
    return max(_largest_eigenvalue(gram), spec.kappa)


def _largest_eigenvalue(g: list[list[float]]) -> float:
    """Largest eigenvalue of the symmetric matrix ``g`` (overwritten), 0 if empty.

    Each rotation zeroes one off-diagonal pair; sweeps repeat until every
    off-diagonal entry is below rounding of the Frobenius norm, which
    bounds the error of every eigenvalue by a few ulps of lambda_max.
    """
    n = len(g)
    tiny = EPS * math.sqrt(sum(v * v for row in g for v in row))
    for _ in range(64):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                gij = g[i][j]
                if abs(gij) <= tiny:
                    continue
                rotated = True
                theta = (g[j][j] - g[i][i]) / (2.0 * gij)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                g[i][i] -= t * gij
                g[j][j] += t * gij
                g[i][j] = g[j][i] = 0.0
                for k in range(n):
                    if k != i and k != j:
                        gki, gkj = g[k][i], g[k][j]
                        g[k][i] = g[i][k] = c * gki - s * gkj
                        g[k][j] = g[j][k] = s * gki + c * gkj
        if not rotated:
            break
    return max((g[k][k] for k in range(n)), default=0.0)


def run_concomitant_demo(
    pair: PerspectivePair, spec: DemoSpec, cfg: RootConfig = RootConfig()
) -> DemoTrace:
    """Run the forward-backward iteration and record objective and step size.

    The objective is nonincreasing for admissible step sizes; the step
    norm tends to zero as the iterates approach the unique minimizer.
    """
    a, b = spec.a_matrix, spec.b
    if len(a) != len(b):
        raise ValueError("design matrix and observations disagree on rows")
    cols = _columns(a)
    n = len(cols)
    if n != pair.n:
        raise ValueError(f"pair expects base dimension {pair.n}, design has {n}")
    lip = smooth_lipschitz(spec)
    if spec.tau <= 0.0 or spec.tau * lip > 1.0 + 1e-12:
        raise StepSizeError(f"tau*L = {spec.tau * lip} exceeds 1")

    w = (0.0,) * n if spec.w0 is None else tuple(float(v) for v in spec.w0)
    sigma = float(spec.sigma0)

    def residual(wv) -> list[float]:
        return [dot(row, wv) - bi for row, bi in zip(a, b)]

    def objective(wv, sv: float, resid: list[float]) -> float:
        smooth = 0.5 * dot(resid, resid) + 0.5 * spec.kappa * (sv - spec.y0) ** 2
        return smooth + perspective_eval(pair, wv, sv)

    resid = residual(w)
    rows = [(0, objective(w, sigma, resid), 0.0)]
    for it in range(1, spec.iterations + 1):
        grad_sigma = spec.kappa * (sigma - spec.y0)
        res = prox_perspective(
            pair, spec.tau,
            tuple(wi - spec.tau * dot(col, resid) for wi, col in zip(w, cols)),
            sigma - spec.tau * grad_sigma,
            cfg,
        )
        step = math.sqrt(sum((u - v) ** 2 for u, v in zip(res.p, w)) + (res.q - sigma) ** 2)
        w, sigma = res.p, res.q
        resid = residual(w)
        rows.append((it, objective(w, sigma, resid), step))
    return DemoTrace(tuple(rows), w, sigma)
