#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

Usage:

    python3 perfbench/compare.py BASE_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the result files (``perfbench/results/*.json``) of
untraced runs of one commit.  Make the runs in pairs with the same seed,
alternating which commit runs first, at least ten pairs per workload, e.g.

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      first=base; second=change
      if [ $((seed % 2)) = 0 ]; then first=change; second=base; fi
      (cd $first && python3 perfbench/run.py --workload root_band --seed $seed --seconds 15)
      (cd $second && python3 perfbench/run.py --workload root_band --seed $seed --seconds 15)
    done

Runs are paired by workload and seed.  One row per workload and
end-to-end metric gives each side's median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

- improved: the change won at least 9 of 10 pairs (and at least ten pairs
  ran) and the medians differ by more than the base's interquartile range;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the base's own spread (interquartile range over median) is
  wider than the bound, unless every change run beats every base run;
- within bound: otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: str) -> dict:
    """{(workload, seed): [metric values of each untraced run, oldest first]}."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("trace") != 0:
            continue
        key = (data["workload"], data["environment"]["seed"])
        values = {k: v["value"] for k, v in data["result"]["metrics"].items()}
        runs.setdefault(key, []).append((path, values))
    return {k: [v for _, v in sorted(rows)] for k, rows in runs.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], lower_is_better: bool, bound: float) -> dict:
    """Verdict for one workload and metric from paired runs (same index, same seed)."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    pairs = len(base)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)
    spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > bq3 - bq1:
        text = "improved"
    elif -gain > bound * abs(bmed):
        text = "worse"
    elif spread > bound and not all_better:
        text = "unresolved"
    else:
        text = "within bound"
    return {"pairs": pairs, "wins": wins, "losses": losses, "base": (bq1, bmed, bq3),
            "change": (cq1, cmed, cq3), "verdict": text}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base_runs, change_runs = load_runs(argv[0]), load_runs(argv[1])
    workloads = sorted({w for w, _ in base_runs} & {w for w, _ in change_runs})
    if not workloads:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':12} {'metric':16} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    for workload in workloads:
        seeds = sorted({s for w, s in base_runs if w == workload}
                       & {s for w, s in change_runs if w == workload})
        pairs = [(b, c) for s in seeds
                 for b, c in zip(base_runs[(workload, s)], change_runs[(workload, s)])]
        for m in metrics:
            name = m["name"]
            base = [b[name] for b, _ in pairs]
            change = [c[name] for _, c in pairs]
            v = verdict(base, change, m["better"] == "lower", m["bound"])
            fmt = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"{workload:12} {name:16} {fmt.format(*v['base']):>34} "
                  f"{fmt.format(*v['change']):>34} {v['wins']:>3}/{v['pairs']:<3}  {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
