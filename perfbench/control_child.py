"""Control process for timing child processes.

Usage: python3 perfbench/control_child.py

Starts like a ``persprox`` command does (interpreter, numpy, argparse,
json, concurrent.futures, dataclasses) and runs the benchmark's control
kernel, then prints the seconds spent since the script started.  Its wall
time, taken between measured processes, tracks how fast the host runs
processes at that moment.  It imports nothing from persprox, so a change
to persprox cannot move it.
"""

import time

t0 = time.perf_counter()

import argparse  # noqa: E402,F401  (imports are part of the control work)
import dataclasses  # noqa: E402,F401
import json  # noqa: E402,F401
from concurrent.futures import ProcessPoolExecutor  # noqa: E402,F401

import numpy  # noqa: E402,F401

from timing import control_kernel  # noqa: E402

KERNEL_REPEATS = 100

for _ in range(KERNEL_REPEATS):
    control_kernel()
print(time.perf_counter() - t0)
