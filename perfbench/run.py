#!/usr/bin/env python3
"""Benchmark of persprox: prox throughput, latency, memory and CLI cost
on four seeded workloads, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload root_band --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that records spans around the calls into
each persprox layer and reports the per-layer metrics.  Metric names,
units and regression bounds come from BENCHMARK.json at the repository
root.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each run also writes a result file, with the
environment it ran in, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")


def load_definitions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def emit(payload: dict, unit_of: dict, values: dict) -> dict:
    missing = set(unit_of) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    payload["metrics"] = {name: {"value": values[name], "unit": unit_of[name]} for name in unit_of}
    return payload


def measure_untraced(args, pairs, inputs, unit_of) -> tuple[dict, dict]:
    import checks
    import measure
    import workloads

    setup = measure.measure_setup(args.workload, args.seed)
    if args.workload in workloads.PROX:
        run = measure.run_in_process(args.workload, args.seconds, pairs, inputs)
    else:
        run = measure.run_cli(args.seconds, args.seed, pairs, inputs)
    values, raw = run.metrics(setup)
    raw["setup_s"] = setup["raw_median_s"]
    details = {
        "raw": raw,
        "setup_raw_all_s": setup["raw_all_s"],
        "first_pass": run.first_pass,
        "first_pass_errors": run.errors,
        "problems": run.problems,
    }
    reference = checks.load_reference(args.workload, args.seed)
    if reference is not None:
        details["reference"] = checks.compare_to_reference(run.records, reference)
    for name in unit_of:
        print(f"{name} {values[name]!r} {unit_of[name]} (raw {raw.get(name, values[name])!r})")
    print(f"latency_*_ms are over {raw['inputs']} inputs, each at the median of its calls "
          f"({raw['completed']} completed); the tail is p{raw['tail_percentile']:g}, "
          f"{raw['inputs_beyond_tail']} inputs beyond it")
    if run.first_pass and args.workload in workloads.PROX:
        raised = sum(run.errors.values())
        uncertified = run.first_pass - run.certified - raised
        print(f"error_share {raised / run.first_pass!r} ratio ({raised}/{run.first_pass} calls raised:"
              f" {run.errors})")
        print(f"uncertified_share {uncertified / run.first_pass!r} ratio")
    if "reference" in details:
        ref = details["reference"]
        print(f"reference: {ref['label_changes']} label changes, max relative (p, q) drift "
              f"{ref['max_rel_drift']!r} over {ref['compared']} outputs")
    payload = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    return emit(payload, unit_of, values), details


def measure_traced(args, pairs, inputs, unit_of) -> tuple[dict, dict]:
    import tracing

    result = tracing.run(args.workload, args.seed, args.seconds, pairs, inputs)
    values = tracing.layer_metrics(result)
    for name in unit_of:
        print(f"{name} {values[name]!r} {unit_of[name]}")
    probe = result.probe
    if probe is not None:
        print(f"robustness probe: {probe.raised} of {probe.attempted} calls raised "
              f"({probe.error_types}), {probe.uncertified} returned uncertified; "
              f"reported as error_share and uncertified_share, not as failed calls")
    failed = result.raised + result.uncertified
    if failed:
        result.problems.append(f"{failed} of the workload's calls raised or were not certified")
    spans = result.tracer.spans
    payload = {
        "correct": not result.problems,
        "attempted": max(result.tracer.stats[tracing.TOP].count
                         if tracing.TOP in result.tracer.stats else 0, 1),
        "failed": failed,
    }
    details = {"problems": result.problems, "spans_kept": len(spans),
               "spans": [list(s) for s in spans]}
    return emit(payload, unit_of, values), details


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0.0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "persprox", "__init__.py")):
        print(f"error: no persprox sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    definitions = load_definitions()
    key = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in definitions[key]}

    env = environment(args.seed)
    if env["loadavg_start"][0] > env["nproc"]:
        print(f"warning: load average {env['loadavg_start'][0]:.2f} exceeds nproc "
              f"{env['nproc']}; timings will be noisy", file=sys.stderr)
    started = time.time()
    pairs, inputs = workloads.setup(args.workload, args.seed)
    if args.trace:
        payload, details = measure_traced(args, pairs, inputs, unit_of)
    else:
        payload, details = measure_untraced(args, pairs, inputs, unit_of)
    env["loadavg_end"] = list(os.getloadavg())
    for problem in details["problems"]:
        print(f"check failed: {problem}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                   "environment": env, "result": payload, "details": details}, fh)
        fh.write("\n")
    print(f"result file: perfbench/results/{name}")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
