#!/usr/bin/env python3
"""Write the reference outputs of the committed seed to perfbench/reference/.

Usage (from the repository root): python3 perfbench/make_reference.py

A run with ``--seed`` equal to ``workloads.REFERENCE_SEED`` compares its
outputs against these files and reports label changes and the largest
relative drift of (p, q).  Regenerate them only in a change that alters
outputs on purpose, and say so in that change.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def records_for(workload: str) -> list:
    from persprox import prox_perspective

    pairs, calls = workloads.setup(workload, workloads.REFERENCE_SEED)
    return [checks.reference_record(checks.outcome_of(prox_perspective, pairs[c.pair], c))
            for c in calls[:workloads.REFERENCE_CALLS]]


def main() -> int:
    for workload in workloads.WORKLOADS:
        checks.write_reference(workload, records_for(workload))
        print(f"wrote {checks.reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
