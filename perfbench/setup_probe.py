"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds spent importing persprox and building the workload's
pairs and inputs.  The caller puts ``src`` on PYTHONPATH.
"""

import sys
import time

t0 = time.perf_counter()
import persprox  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
