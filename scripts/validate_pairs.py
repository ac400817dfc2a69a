#!/usr/bin/env python3
"""Solver-vs-oracle validation sweep over the three catalog pairs.

Runs the perspective prox and the brute-force oracle on random inputs for
power/root, huber/sqrt, and abs/root, and prints one summary row per pair.
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from persprox import (
    AbsBase,
    HuberBase,
    OracleConfig,
    PerspectivePair,
    PowerBase,
    RootScaling,
    SqrtScaling,
    brute_force_prox,
    perspective_eval,
    prox_perspective,
)


def sweep(pair_name, base, scaling, seeds, gamma, rng):
    worst_dev = 0.0
    worst_gap = 0.0
    total_iters = 0
    t0 = time.perf_counter()
    for seed in range(seeds):
        n = 1 + seed % 3
        pair = PerspectivePair(base, scaling, n)
        x = tuple(rng.uniform(-4, 4) for _ in range(n))
        y = rng.uniform(-4, 4)
        res = prox_perspective(pair, gamma, x, y)
        coarse = {2: 61, 3: 21, 4: 11}[n + 1]
        op, oq = brute_force_prox(
            lambda u, v: perspective_eval(pair, u, v), gamma, x, y,
            OracleConfig(coarse_points_per_dim=coarse),
        )
        dev = math.sqrt(sum((a - b) ** 2 for a, b in zip(res.p, op)) + (res.q - oq) ** 2)
        worst_dev = max(worst_dev, dev)
        worst_gap = max(worst_gap, res.certificate_gap)
        total_iters += res.root_iterations
    elapsed = time.perf_counter() - t0
    print(
        f"{pair_name:12s} seeds={seeds:4d} max_dev={worst_dev:.3e} "
        f"worst_gap={worst_gap:.3e} root_iters={total_iters:5d} time={elapsed:6.1f}s"
    )
    return worst_dev


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=60)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    pairs = [
        ("power/root", PowerBase(2.0), RootScaling(0.5, 4.0)),
        ("huber/sqrt", HuberBase(1.0), SqrtScaling(1.0)),
        ("abs/root", AbsBase(), RootScaling(0.5, 1.0)),
    ]
    worst = 0.0
    for name, base, scaling in pairs:
        worst = max(worst, sweep(name, base, scaling, args.seeds, args.gamma, rng))
    print(f"overall max deviation: {worst:.3e} (limit 5e-4)")
    return 0 if worst <= 5e-4 else 1


if __name__ == "__main__":
    sys.exit(main())
