"""Clocks, statistics and child processes for the benchmark.

The host this benchmark was built on shares its cores with other tenants:
the same calls ran 1.5x to 2x slower for stretches of 0.1 to ten seconds.
Every timing is therefore quoted relative to a control measured next to
it.  ``HostSpeed`` times a fixed pure-Python control kernel between blocks
of in-process calls; scaling a block's times by the control times on
either side cancels most of the drift (on 2-core Xeon runs, the spread of
ops_per_s across ten runs fell from 13-27% to 1-4%).  Child processes
follow start-up and import costs that the kernel does not track, so
``ProcessControl`` runs ``control_child.py``, a process that starts like a
persprox command, between the measured processes.  The controls
belong to the benchmark, not to persprox, so a change to persprox cannot
move them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

# control times that normalised figures are quoted at: roughly the
# kernel's time and the control process's wall time on an unloaded 2.1 GHz
# Xeon core
CONTROL_REF_NS = 400_000.0
CONTROL_PROCESS_REF_S = 0.25  # wall time, start to exit
CONTROL_INNER_REF_S = 0.15  # the time the control process reports itself

HERE = os.path.dirname(os.path.abspath(__file__))


class _Power:
    """Scalar power prox by guarded Newton: attribute lookups, calls,
    tuple building and float powers, the instruction mix of persprox."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        self.p = p

    def value(self, v) -> float:
        return math.hypot(*v) ** self.p / self.p

    def prox(self, w: float, v):
        r = math.hypot(*v)
        lo, hi = 0.0, r
        t = r / (1.0 + w)
        for _ in range(30):
            g = t + w * t ** (self.p - 1.0) - r
            if g > 0.0:
                hi = t
            else:
                lo = t
            d = 1.0 + w * (self.p - 1.0) * t ** (self.p - 2.0)
            nxt = t - g / d
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt == t:
                break
            t = nxt
        return tuple(c * (t / r) for c in v)


_KERNEL_FUNCS = (_Power(1.5), _Power(3.0), _Power(5.0))
_KERNEL_POINTS = tuple(((math.sin(k) + 1.5, math.cos(0.7 * k)), 0.1 + (k % 9) * 0.3) for k in range(64))


def control_kernel() -> float:
    total = 0.0
    for k, (v, w) in enumerate(_KERNEL_POINTS):
        f = _KERNEL_FUNCS[k % 3]
        total += f.value(f.prox(w, v))
    return total


class HostSpeed:
    """Control-kernel samples taken between blocks of measured work."""

    def __init__(self):
        self.samples = array("d")

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        control_kernel()
        self.samples.append(time.perf_counter_ns() - t0)

    def block_factor(self, block: int) -> float:
        """Scale factor for the work between samples ``block`` and ``block + 1``.

        The host's speed changes within a tenth of a second, so only the
        two samples bracketing the block are used.
        """
        s = self.samples
        return 2.0 * CONTROL_REF_NS / (s[block] + s[block + 1])


class ProcessControl:
    """Wall times of control processes run between measured processes."""

    def __init__(self, cwd: str, env: dict):
        self.argv = [sys.executable, os.path.join(HERE, "control_child.py")]
        self.cwd, self.env = cwd, env
        self.walls: list[float] = []
        self.inner: list[float] = []

    def sample(self) -> None:
        res = run_child(self.argv, self.cwd, self.env)
        if res.returncode != 0:
            raise RuntimeError(f"control process failed: {res.stderr.strip()}")
        self.walls.append(res.wall_s)
        self.inner.append(float(res.stdout))

    def factor(self, index: int) -> float:
        """Scale factor for the wall time of a measured process between
        controls ``index`` and ``index + 1``."""
        return 2.0 * CONTROL_PROCESS_REF_S / (self.walls[index] + self.walls[index + 1])

    def inner_factor(self, index: int) -> float:
        """Same, for a time the measured process took of itself after start-up."""
        return 2.0 * CONTROL_INNER_REF_S / (self.inner[index] + self.inner[index + 1])


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# how often a child's memory high-water mark is read while it runs
RSS_POLL_S = 0.005


@dataclass(frozen=True)
class ChildResult:
    stdout: str
    stderr: str
    returncode: int
    wall_s: float
    peak_rss_kb: int


def run_child(argv: list[str], cwd: str, env: dict, timeout: float = 120.0) -> ChildResult:
    """Run a process to completion; return its output, wall time and peak RSS.

    The peak is the child's ``VmHWM``, read every few milliseconds while it
    runs.  The rusage maximum is no use here: the kernel charges a child
    with the parent's resident size at the moment it was spawned.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err, peak = _communicate(proc, timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, _ = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(out.decode(), err.decode(), proc.returncode, wall, peak)


def _high_water_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0  # exited, or a zombie without memory


def _communicate(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes, int]:
    """Read both pipes to their end without reaping the child, tracking
    its memory high-water mark."""
    import selectors

    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    peak = 0
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            peak = max(peak, _high_water_kb(proc.pid))
            for key, _ in sel.select(min(remaining, RSS_POLL_S)):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), peak
