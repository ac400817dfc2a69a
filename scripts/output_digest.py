#!/usr/bin/env python3
"""One digest over the prox outputs of the benchmark pools and the probe.

Runs ``prox_perspective`` on the seed-0 and seed-1 pools of root_band,
closed_band and wide_scale and on robustness-probe seeds 0-4 (the inputs
of ``perfbench/workloads.py``, imported read-only), and hashes the repr of
``(p, q, eta, label, root_iterations, certificate_gap)`` for each call, or
``(exception type, message)`` for a call that raises.  Prints one line per
input set with its call count, error count and SHA-256, then the totals.
Two checkouts whose outputs are bit-identical print the same digest:

    python3 scripts/output_digest.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads
from persprox import prox_perspective

POOL_SEEDS = (0, 1)
PROBE_SEEDS = range(5)


def input_sets():
    """``(name, pairs, calls)`` for every pool and probe seed, in a fixed order."""
    for workload in workloads.PROX:
        for seed in POOL_SEEDS:
            pairs, calls = workloads.setup(workload, seed)
            yield f"{workload} seed {seed}", pairs, calls
    probe_pairs = tuple(workloads.build_pair(s) for s in workloads.ROBUSTNESS_SPECS)
    for seed in PROBE_SEEDS:
        yield f"probe seed {seed}", probe_pairs, workloads.probe_calls(seed)


def outcome(pair, call) -> tuple[str, bool]:
    """The repr of one call's output, and whether it raised."""
    try:
        r = prox_perspective(pair, call.gamma, call.x, call.y)
    except Exception as exc:
        return repr((type(exc).__name__, str(exc))), True
    return repr((r.p, r.q, r.eta, r.label.value, r.root_iterations, r.certificate_gap)), False


def main():
    total = hashlib.sha256()
    total_calls = total_errors = 0
    for name, pairs, calls in input_sets():
        digest = hashlib.sha256()
        errors = 0
        for call in calls:
            text, raised = outcome(pairs[call.pair], call)
            errors += raised
            line = (text + "\n").encode()
            digest.update(line)
            total.update(line)
        total_calls += len(calls)
        total_errors += errors
        print(f"{name:<22} calls {len(calls):>5}  errors {errors:>3}  {digest.hexdigest()}")
    print(f"{'total':<22} calls {total_calls:>5}  errors {total_errors:>3}  {total.hexdigest()}")


if __name__ == "__main__":
    main()
