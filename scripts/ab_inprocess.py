#!/usr/bin/env python3
"""Interleaved in-process timing of this checkout's prox against another's.

Loads this checkout's ``src/persprox`` as ``persprox`` and the other
checkout's as ``persprox_other``, side by side in one process, and builds
each side's pairs from its own ``make_base``/``make_scaling``.  The calls
are one seed's pool of a workload of ``perfbench/workloads.py`` (this
checkout's, imported read-only).  After one untimed warm-up pass per side,
each pass times every call of the pool on both sides, the side that goes
first alternating from pass to pass.  Prints the median over passes of
the per-call time ratio, this checkout over the other (below 1 means this
checkout is faster), and the passes this checkout won, for the whole pool
and per (pair, label), the label being this checkout's, with each side's
mean number of ``T`` evaluations per call (counted in one untimed pass per
side by ``output_digest.EvalCounter``, which wraps the side's
``make_residual_case_*`` and the residuals they return), so one run shows
whether a change moved time or moved work.  As in
``perfbench/measure.py``, the collector is frozen after the warm-up:

    python3 scripts/ab_inprocess.py ../parent --workload wide_scale --passes 16

Process-level runs of the same code on a shared host move by tens of
percent from one run to the next; both sides of one pass here share the
process, its caches and the host's load at that moment.
"""

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import persprox
import workloads
from output_digest import EvalCounter

# what a prox call may raise on valid input (RootFindError is a RuntimeError)
ERRORS = (ArithmeticError, ValueError, RuntimeError)


def load_package(src: Path, name: str):
    """The package at ``src`` (a ``persprox`` directory) imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_pairs(package, workload: str) -> tuple:
    """The workload's pairs, built from ``package``'s by-name constructors
    as ``workloads.build_pair`` builds them from ``persprox``'s."""
    pairs = []
    for spec in workloads.pair_specs(workload):
        base, scaling = dict(spec["base"]), dict(spec["scaling"])
        n = spec.get("dims", [workloads.DIM, 1])[0]
        pairs.append(package.PerspectivePair(
            package.make_base(base.pop("name"), base),
            package.make_scaling(scaling.pop("name"), scaling), n))
    return tuple(pairs)


def time_pass(prox, pairs, calls) -> list:
    """Nanoseconds per call of one pass; a call that raises one of the
    package's documented errors is timed too."""
    clock, out = time.perf_counter_ns, []
    for call in calls:
        pair = pairs[call.pair]
        start = clock()
        try:
            prox(pair, call.gamma, call.x, call.y)
        except ERRORS:
            pass
        out.append(clock() - start)
    return out


def count_evaluations(package, prox, pairs, calls) -> list:
    """``T`` evaluations per call of one untimed pass of ``package``'s prox."""
    counter = EvalCounter(sys.modules[package.__name__ + ".solver"])
    counter.install()
    out = []
    try:
        for call in calls:
            before = counter.count
            try:
                prox(pairs[call.pair], call.gamma, call.x, call.y)
            except ERRORS:
                pass
            out.append(counter.count - before)
    finally:
        counter.uninstall()
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", metavar="OTHER_CHECKOUT", help="root of the other checkout")
    parser.add_argument("--workload", default="wide_scale", choices=workloads.PROX)
    parser.add_argument("--passes", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    other = load_package(Path(args.other).resolve() / "src" / "persprox", "persprox_other")
    calls = workloads.make_calls(args.workload, args.seed)
    sides = [(persprox.prox_perspective, build_pairs(persprox, args.workload)),
             (other.prox_perspective, build_pairs(other, args.workload))]

    groups = {"all": list(range(len(calls)))}
    for i, call in enumerate(calls):
        try:
            label = persprox.prox_perspective(sides[0][1][call.pair], call.gamma,
                                              call.x, call.y).label.value
        except ERRORS as exc:
            label = type(exc).__name__
        groups.setdefault(f"pair {call.pair} {label}", []).append(i)
    evals = [count_evaluations(package, *side, calls) for package, side in zip((persprox, other), sides)]
    for prox, pairs in sides:  # warm-up
        time_pass(prox, pairs, calls)
    # as the benchmark does: what is alive now stays out of the collector's way
    gc.collect()
    gc.freeze()

    ratios = {key: [] for key in groups}
    per_call = {key: ([], []) for key in groups}
    for n in range(args.passes):
        order = (0, 1) if n % 2 == 0 else (1, 0)
        times = [None, None]
        for side in order:
            times[side] = time_pass(*sides[side], calls)
        for key, members in groups.items():
            this, that = (sum(t[i] for i in members) for t in times)
            ratios[key].append(this / that)
            for side, total in enumerate((this, that)):
                per_call[key][side].append(total / len(members) / 1e3)

    print(f"{args.workload} seed {args.seed}: {len(calls)} calls, {args.passes} passes;"
          f" ratio this/other of the time per call (below 1: this checkout faster)")
    for key in sorted(groups, key=lambda k: (k != "all", k)):
        r = ratios[key]
        wins = sum(x < 1.0 for x in r)
        this_us, that_us = (statistics.median(v) for v in per_call[key])
        this_ev, that_ev = (sum(e[i] for i in groups[key]) / len(groups[key]) for e in evals)
        print(f"  {key:<22} calls {len(groups[key]):>5}  median ratio {statistics.median(r):.3f}"
              f"  wins {wins}/{len(r)}  us per call {this_us:.1f} (this) {that_us:.1f} (other)"
              f"  T evaluations {this_ev:.2f} (this) {that_ev:.2f} (other)")


if __name__ == "__main__":
    main()
