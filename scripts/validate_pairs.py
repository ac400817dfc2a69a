#!/usr/bin/env python3
"""Certificate validation sweep over the three catalog pairs.

Runs ``persprox validate`` for power/root, huber/sqrt and abs/root at base
dimensions 1, 2 and 3 and prints the report of each run under a header
line.  Exits 1 when some run's ``max_distance_bound`` (the distance from
the true prox that its worst certificate gap allows) exceeds the command's
5e-4 ``distance_limit``, and with the command's error code when a run fails.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from persprox.cli import main as persprox_main

PAIRS = (
    ("power/root", {"name": "power", "p": 2.0}, {"name": "root", "q": 0.5, "upper": 4.0}),
    ("huber/sqrt", {"name": "huber", "alpha": 1.0}, {"name": "sqrt", "beta": 1.0}),
    ("abs/root", {"name": "abs"}, {"name": "root", "q": 0.5, "upper": 1.0}),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="seeds per pair and dimension")
    parser.add_argument("--gamma", type=float, default=1.0)
    args = parser.parse_args()

    worst = 0
    for name, base, scaling in PAIRS:
        for n in (1, 2, 3):
            spec = {"base": base, "scaling": scaling, "gamma": args.gamma, "dims": [n, 1]}
            print(f"{name} n={n}", flush=True)
            worst = max(worst, persprox_main(
                ["validate", "--spec", json.dumps(spec), "--seeds", str(args.seeds)]
            ))
    return worst


if __name__ == "__main__":
    sys.exit(main())
