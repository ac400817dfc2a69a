#!/usr/bin/env python3
"""Digests of the prox outputs and certificates of the benchmark pools and the probe.

Runs ``prox_perspective`` on the seed-0 and seed-1 pools of root_band,
closed_band and wide_scale and on robustness-probe seeds 0-4 (the inputs
of ``perfbench/workloads.py``, imported read-only).  Each call feeds two
SHA-256 digests: the solver digest hashes the repr of ``(p, q, eta,
label, root_iterations)``, the certificate digest the repr of
``certificate_gap``; a call that raises feeds both the repr of
``(exception type, message)``.  Prints one line per input set with its
call count, error count, the count of outputs whose gap is not finite or
exceeds the benchmark bound ``1e-8 * (1 + ||(x, y)||^2)``, and the two
digests, then the totals.  Two checkouts whose solver outputs are
bit-identical print the same solver digests, whatever their certificates:

    python3 scripts/output_digest.py
"""

import hashlib
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks
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


def outcome(pair, call) -> tuple[str, str, bool | None]:
    """The reprs of one call's solver output and gap, and whether the gap
    is within the bound (None when the call raised)."""
    try:
        r = prox_perspective(pair, call.gamma, call.x, call.y)
    except Exception as exc:
        text = repr((type(exc).__name__, str(exc)))
        return text, text, None
    size = sum(v * v for v in call.x) + call.y * call.y
    ok = math.isfinite(r.certificate_gap) and r.certificate_gap <= checks.GAP_SCALE * (1.0 + size)
    return repr((r.p, r.q, r.eta, r.label.value, r.root_iterations)), repr(r.certificate_gap), ok


def main():
    totals = hashlib.sha256(), hashlib.sha256()
    total_calls = total_errors = total_uncertified = 0
    for name, pairs, calls in input_sets():
        digests = hashlib.sha256(), hashlib.sha256()
        errors = uncertified = 0
        for call in calls:
            solver_text, gap_text, ok = outcome(pairs[call.pair], call)
            errors += ok is None
            uncertified += ok is False
            for digest, total, text in zip(digests, totals, (solver_text, gap_text)):
                line = (text + "\n").encode()
                digest.update(line)
                total.update(line)
        total_calls += len(calls)
        total_errors += errors
        total_uncertified += uncertified
        print(f"{name:<20} calls {len(calls):>5}  errors {errors:>3}  uncertified {uncertified:>4}"
              f"  solver {digests[0].hexdigest()[:16]}  gaps {digests[1].hexdigest()[:16]}")
    print(f"{'total':<20} calls {total_calls:>5}  errors {total_errors:>3}"
          f"  uncertified {total_uncertified:>4}"
          f"  solver {totals[0].hexdigest()[:16]}  gaps {totals[1].hexdigest()[:16]}")


if __name__ == "__main__":
    main()
