#!/usr/bin/env python3
"""Forward-backward fit of location and concomitant scale.

Generates a random regression problem with heavy-tailed noise, runs the
splitting iteration with the robust-loss/sqrt perspective as the coupling
term, and writes the iteration trace as CSV.  Needs numpy (for the random
problem only; persprox itself does not use it).
"""

import argparse
import dataclasses
import sys

sys.path.insert(0, "src")

import numpy as np

from persprox import (
    DemoSpec,
    HuberBase,
    PerspectivePair,
    SqrtScaling,
    run_concomitant_demo,
)
from persprox.splitting import smooth_lipschitz


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=12)
    parser.add_argument("--cols", type=int, default=3)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--kappa", type=float, default=0.5)
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a = rng.normal(size=(args.rows, args.cols))
    w_true = rng.normal(size=args.cols)
    noise = rng.standard_t(df=2, size=args.rows) * 0.3
    b = a @ w_true + noise

    spec = DemoSpec(
        a_matrix=tuple(tuple(float(v) for v in row) for row in a),
        b=tuple(float(v) for v in b),
        y0=1.0,
        kappa=args.kappa,
        iterations=args.iterations,
        seed=args.seed,
    )
    spec = dataclasses.replace(spec, tau=0.9 / smooth_lipschitz(spec))
    pair = PerspectivePair(HuberBase(args.alpha), SqrtScaling(args.beta), n=args.cols)
    trace = run_concomitant_demo(pair, spec)

    lines = ["iter,objective,step_norm"]
    lines += [f"{it},{obj!r},{step!r}" for it, obj, step in trace.rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"# final objective {trace.rows[-1][1]:.6f}, "
        f"step_norm {trace.rows[-1][2]:.2e}, "
        f"fit error {float(np.linalg.norm(np.asarray(trace.w) - w_true)):.3f}, "
        f"scale {trace.sigma:.3f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
