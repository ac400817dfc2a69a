"""Timed runs of the four workloads (tracing off).

Every workload is a closed loop with one caller: each prox call or
``python -m persprox prox`` process starts when the previous one ended.
Every output is checked; the checks and the control samples that
normalise the times run outside the timed operations.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

import checks
import workloads
from timing import HostSpeed, ProcessControl, percentile, run_child

BLOCK_NS = 10_000_000  # in-process calls between two host-speed samples
SETUP_REPEATS = 9
CONTROL_EVERY = 2  # CLI processes between two control processes
WARMUP_CALLS = 100
# tail percentile per workload: the highest leaving ten or more inputs
# beyond it in a 15-second run on a slow host (about 35 CLI processes)
TAIL_PCT = {"root_band": 99.0, "closed_band": 99.0, "wide_scale": 99.0, "cli_prox": 75.0}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """What one measured run saw: per-operation times, failures, outputs."""

    def __init__(self, workload: str):
        self.workload = workload
        self.times: dict[int, tuple[list, list]] = {}  # input -> raw, normalised ns
        self.busy_raw_ns = 0.0  # every attempted operation, completed or not
        self.busy_norm_ns = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # check failures that invalidate the run
        self.records: list = []  # first-pass records, for the reference
        self.certified = 0
        self.first_pass = 0
        self.errors: dict[str, int] = {}
        self.peak_rss_kb = 0
        self.control_p50 = 0.0  # median control time: kernel ns, or process s

    def count(self, index: int, pool: int, reason: str | None, record) -> None:
        """Book one checked operation of a workload whose every failure
        invalidates the run."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.problem(f"operation {index}: {reason}")
        if index < pool:
            self.first_pass += 1
            self.certified += reason is None
            self.records.append(record if reason is None else ["error:check"])

    def add_time(self, key: int, raw_ns: float, norm_ns: float, completed: bool) -> None:
        """Book the time of one operation on input ``key``."""
        self.busy_raw_ns += raw_ns
        self.busy_norm_ns += norm_ns
        if completed:
            raw, norm = self.times.setdefault(key, ([], []))
            raw.append(raw_ns)
            norm.append(norm_ns)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = f"... and more ({text})"

    def metrics(self, setup: dict) -> tuple[dict, dict]:
        """The end-to-end metrics, and the raw figures beside them."""
        # an input's latency is the median of its calls (inputs repeat every
        # pass), which keeps one-off host hiccups out of the percentiles
        raw = sorted(statistics.median(r) for r, _ in self.times.values())
        norm = sorted(statistics.median(n) for _, n in self.times.values())
        tail = TAIL_PCT[self.workload]
        completed = sum(len(r) for r, _ in self.times.values())

        def per_s(busy):
            return completed / (busy / 1e9) if busy > 0 else 0.0

        return {
            "setup_s": setup["median_s"],
            "ops_per_s": per_s(self.busy_norm_ns),
            "latency_p50_ms": percentile(norm, 50.0) / 1e6,
            "latency_tail_ms": percentile(norm, tail) / 1e6,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
        }, {
            "ops_per_s": per_s(self.busy_raw_ns),
            "latency_p50_ms": percentile(raw, 50.0) / 1e6,
            "latency_tail_ms": percentile(raw, tail) / 1e6,
            "tail_percentile": tail,
            "completed": completed,
            "inputs": len(raw),
            "inputs_beyond_tail": len(raw) - math.ceil(tail / 100.0 * len(raw)),
            "control_p50": self.control_p50,
        }


def measure_setup(workload: str, seed: int) -> dict:
    """Time to import persprox and build pairs and inputs in a fresh
    interpreter, each probe scaled by the control processes around it."""
    env = child_env()
    control = ProcessControl(ROOT, env)
    raw = []
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    control.sample()
    for _ in range(SETUP_REPEATS):
        res = run_child(argv, ROOT, env)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        raw.append(float(res.stdout.strip().splitlines()[-1]))
        control.sample()
    norm = [t * control.inner_factor(i) for i, t in enumerate(raw)]
    return {"median_s": statistics.median(norm), "raw_median_s": statistics.median(raw),
            "raw_all_s": raw}


def run_in_process(workload: str, seconds: float, pairs, calls) -> Run:
    from persprox import prox_perspective

    run = Run(workload)
    host = HostSpeed()
    for call in calls[:WARMUP_CALLS]:  # lazy caches of the pair objects
        checks.outcome_of(prox_perspective, pairs[call.pair], call)
    # the inputs and everything imported stay alive for the whole run; out
    # of the collector's way, its pauses scale with what persprox allocates
    gc.collect()
    gc.freeze()
    n = len(calls)
    first: list = [None] * n
    check_label = workload == "closed_band"
    block_of = array("I")
    lat = array("d")
    ok = array("b")
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    host.sample()
    i = 0
    while True:
        block_end = clock() + BLOCK_NS
        block = len(host.samples) - 1
        while True:
            call = calls[i % n]
            pair = pairs[call.pair]
            t0 = clock()
            try:
                res = prox_perspective(pair, call.gamma, call.x, call.y)
            except Exception as exc:  # counted against the call, see checks.outcome_of
                t1 = clock()
                out = ("error", type(exc).__name__)
            else:
                t1 = clock()
                out = ("ok", res.label.value, res.p, res.q, res.eta, res.certificate_gap)
            lat.append(t1 - t0)
            block_of.append(block)
            good = checks.certified(call, out)
            ok.append(out[0] == "ok")
            if not good:
                run.failed += 1
            idx = i % n
            if i == n - 1:
                # later passes repeat the same calls and only grow this
                # loop's own records, so memory is read once the pool is done
                run.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if i < n:
                first[idx] = out
                run.first_pass += 1
                run.certified += good
                if out[0] == "error":
                    run.errors[out[1]] = run.errors.get(out[1], 0) + 1
                if not good:
                    run.problem(f"call {idx}: {checks.label_of(out)} gap not certified")
                if check_label and checks.label_of(out) != call.group:
                    run.problem(f"call {idx}: label {checks.label_of(out)}, geometry says {call.group}")
            elif out != first[idx] and repr(out) != repr(first[idx]):
                run.problem(f"call {idx}: output changed between passes")
            i += 1
            if t1 >= block_end:
                break
        host.sample()
        if i >= n and clock() >= deadline:
            break
    run.attempted = i
    factors = [host.block_factor(b) for b in range(len(host.samples) - 1)]
    run.control_p50 = statistics.median(host.samples)
    for k, (t, b, completed) in enumerate(zip(lat, block_of, ok)):
        run.add_time(k % n, t, t * factors[b], completed)
    gc.unfreeze()
    run.records = [checks.reference_record(out) for out in first]
    return run


def expected_cli_record(res) -> dict:
    """The JSON document ``persprox prox`` prints for an in-process result."""
    gap = res.certificate_gap
    return {"p": list(res.p), "q": res.q, "eta": res.eta, "case_label": res.label.value,
            "iterations": res.root_iterations,
            "certificate_gap": "+inf" if gap == math.inf else gap}


def run_cli(seconds: float, seed: int, pairs, calls) -> Run:
    """One-shot ``persprox prox`` processes, each output compared with the
    in-process result for the same point.

    One untimed ``demo-concomitant`` process first checks the CLI's demo:
    its trace must equal the in-process fit, decrease its objective and end
    with a small step.
    """
    from persprox import prox_perspective

    run = Run("cli_prox")
    env = child_env()
    base = [sys.executable, "-m", "persprox"]
    run_child(base + ["--help"], ROOT, env)  # bytecode caches written, files in page cache
    reason = _check_cli_demo(base, env, workloads.make_demo_problems(seed)[0])
    if reason is not None:
        run.problem(f"demo-concomitant: {reason}")
    control = ProcessControl(ROOT, env)
    deadline = time.perf_counter() + seconds
    walls = []
    i = 0
    control.sample()
    while i < 4 or time.perf_counter() < deadline:
        call = calls[i % len(calls)]
        spec = workloads.cli_spec("cli_prox", call.pair, call.gamma)
        argv = base + ["prox", "--spec", json.dumps(spec),
                       "--point", json.dumps({"x": list(call.x), "y": call.y})]
        child = run_child(argv, ROOT, env)
        if i % CONTROL_EVERY == CONTROL_EVERY - 1:
            control.sample()
        walls.append(child.wall_s * 1e9)
        run.peak_rss_kb = max(run.peak_rss_kb, child.peak_rss_kb)
        reason, record = _check_cli(call, child, pairs, prox_perspective)
        run.count(i, len(calls), reason, record)
        i += 1
    if i % CONTROL_EVERY:
        control.sample()
    for k, t in enumerate(walls):
        run.add_time(k % len(calls), t, t * control.factor(k // CONTROL_EVERY), True)
    run.control_p50 = statistics.median(control.walls)
    return run


def _check_cli(call, child, pairs, prox_perspective):
    """(None, reference record) when the process output is right, else (reason, None)."""
    if child.returncode != 0:
        return f"exit code {child.returncode}: {child.stderr.strip()[:200]}", None
    res = prox_perspective(pairs[call.pair], call.gamma, call.x, call.y)
    got = json.loads(child.stdout)
    if got != expected_cli_record(res):
        return f"output {got} differs from the in-process result", None
    out = ("ok", res.label.value, res.p, res.q, res.eta, res.certificate_gap)
    if not checks.certified(call, out):
        return f"gap {res.certificate_gap!r} not certified", None
    return None, checks.reference_record(out)


def _check_cli_demo(base: list[str], env: dict, problem: dict) -> str | None:
    """None when a ``demo-concomitant`` process prints the in-process
    trace and that trace passes the demo checks, else the reason."""
    from persprox import DemoSpec, run_concomitant_demo

    child = run_child(base + ["demo-concomitant", "--spec", json.dumps(workloads.DEMO_SPEC),
                              "--demo", json.dumps(problem)], ROOT, env)
    if child.returncode != 0:
        return f"exit code {child.returncode}: {child.stderr.strip()[:200]}"
    rows = checks.parse_demo_csv(child.stdout)
    pair = workloads.build_pair(workloads.DEMO_SPEC)
    if rows != list(run_concomitant_demo(pair, DemoSpec.from_dict(problem)).rows):
        return "trace differs from the in-process fit"
    if len(rows) != workloads.DEMO_ITERATIONS + 1:
        return f"{len(rows)} rows, expected {workloads.DEMO_ITERATIONS + 1}"
    return checks.demo_trace_ok(rows)
