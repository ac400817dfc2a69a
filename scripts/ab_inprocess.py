#!/usr/bin/env python3
"""Interleaved in-process timing of this checkout's prox against another's.

Loads both checkouts' ``src/persprox`` side by side in one process, one
as ``persprox`` and the other as ``persprox_other``, and builds each
side's pairs from its own ``make_base``/``make_scaling``.  The calls are
one seed's pool of a workload of ``perfbench/workloads.py`` (this
checkout's, imported read-only).  After one untimed warm-up pass per side,
each pass times every call of the pool on both sides, the side that goes
first alternating from pass to pass.  Prints the median over passes of
the per-call time ratio, this checkout over the other (below 1 means this
checkout is faster), and the passes this checkout won, for the whole pool
and per (pair, label), the label being this checkout's, with each side's
mean number of ``T`` evaluations per call (counted in one untimed pass per
side by ``output_digest.EvalCounter``, which wraps the side's
``make_residual_case_*`` and the residuals they return), so one run shows
whether a change moved time or moved work.  The first run's untimed pass
also counts each side's executed bytecodes per call, per group and per
function of the side's package (``WorkCounter``: ``sys.settrace`` with
``f_trace_opcodes``), and the builtin C functions that package's code
calls, per group and per builtin (``sys.setprofile`` ``c_call`` events).
Those counts repeat exactly from run to run, which no timing on a shared
host does, so they show per layer where a change took work out: a
bytecode is a few ns, a builtin call such as ``min`` tens, so a change can
add bytecodes and still save time.  The functions and the builtins whose
counts differ most between the sides are listed last.  As in
``perfbench/measure.py``, the collector is frozen after the warm-up.

One process carries a bias of a few percent that every group shares (the
heap and code layout it happened to get): three runs of a checkout against
a copy of itself read 1.034, 1.001 and 0.988 on closed_band.  So each run
is a fresh spawned process, and ``--runs N`` (default 1) runs N of them one
after the other, alternating which checkout loads as ``persprox`` (run 1
loads this one).  It prints each run's overall ratio, then per group the
median over the runs of their median ratios, with its min-max, and the
median over the runs of each side's us per call.  Per run and side it
also prints the benchmark's latencies over the pool (``perfbench/measure.py``):
an input's latency is the median of its times over the passes, and the
p50 and the tail (p99) are taken over the inputs, so a change to the
slowest inputs shows in-process:

    python3 scripts/ab_inprocess.py ../parent --workload closed_band --passes 10 --runs 6
"""

import argparse
import collections
import gc
import importlib.util
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads
from measure import TAIL_PCT
from timing import percentile

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


class WorkCounter:
    """Executed bytecodes of the Python code of one package, per function
    (``module.qualname``), counted by ``sys.settrace`` with
    ``f_trace_opcodes``, and the builtin C functions that code calls, per
    builtin (``module.qualname``), counted from ``sys.setprofile``'s
    ``c_call`` events, while it is installed; frames of other code (the
    ``EvalCounter`` wrappers, say) are not counted."""

    def __init__(self, package):
        self.prefix = os.path.dirname(package.__file__) + os.sep
        self.counts = collections.Counter()
        self.builtins = collections.Counter()

    def _profile(self, frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename.startswith(self.prefix):
            module = getattr(arg, "__module__", None)
            name = getattr(arg, "__qualname__", type(arg).__name__)
            self.builtins[f"{module}.{name}" if module else name] += 1

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        key = f"{Path(code.co_filename).stem}.{code.co_qualname}"
        counts = self.counts

        def local(frame, event, arg):
            if event == "opcode":
                counts[key] += 1
            return local

        return local

    def run(self, fn, *args) -> tuple:
        """``fn(*args)`` with the counter installed; its counts of bytecodes
        and of builtin calls."""
        before = self.counts.total(), self.builtins.total()
        sys.settrace(self._call)
        sys.setprofile(self._profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
            sys.settrace(None)
        return self.counts.total() - before[0], self.builtins.total() - before[1]


def count_work(counter, work, prox, pairs, calls) -> tuple:
    """``(T evaluations, bytecodes, builtin calls)`` per call of one untimed
    pass of a prox, the evaluations counted by an ``output_digest.EvalCounter``
    on its solver module, the rest by ``work``, a ``WorkCounter`` (None: 0)."""
    counter.install()
    evals, ops, c_calls = [], [], []

    def call_prox(call):
        try:
            prox(pairs[call.pair], call.gamma, call.x, call.y)
        except ERRORS:
            pass

    try:
        for call in calls:
            before = counter.count
            n_ops, n_calls = work.run(call_prox, call) if work else (0, 0)
            ops.append(n_ops)
            c_calls.append(n_calls)
            evals.append(counter.count - before)
    finally:
        counter.uninstall()
    return evals, ops, c_calls


def latencies(samples: list, workload: str) -> tuple:
    """``(p50, tail)`` in us over the inputs of each input's median time
    (ns per pass), the benchmark's latency definitions."""
    medians = sorted(statistics.median(times) for times in samples)
    return percentile(medians, 50.0) / 1e3, percentile(medians, TAIL_PCT[workload]) / 1e3


def measure(other: Path, workload: str, passes: int, seed: int,
            swapped: bool = False, count: bool = False) -> tuple:
    """One run in this process: ``({group: (calls, ratios per pass, (this,
    other) us per call per pass, (this, other) mean T evaluations, (this,
    other) mean bytecodes, (this, other) mean builtin calls)}, (this, other)
    latencies, (this, other) bytecodes per function over the pool, (this,
    other) builtin calls per builtin over the pool)``, the ratios this
    checkout over ``other`` and the latencies ``(p50, tail)`` in us;
    bytecodes and builtin calls are counted where ``count`` is set, else
    read 0.  ``swapped`` loads ``other`` as
    ``persprox`` and this checkout as ``persprox_other``; ``persprox`` is
    loaded first, so ``output_digest`` and the modules it imports use it."""
    roots = (ROOT, other) if not swapped else (other, ROOT)
    loaded = [load_package(root / "src" / "persprox", name)
              for root, name in zip(roots, ("persprox", "persprox_other"))]
    this, that = loaded if not swapped else loaded[::-1]
    import output_digest  # this script's directory; it imports persprox, loaded above
    calls = workloads.make_calls(workload, seed)
    sides = [(package.prox_perspective, build_pairs(package, workload)) for package in (this, that)]

    groups = {"all": list(range(len(calls)))}
    for i, call in enumerate(calls):
        try:
            label = this.prox_perspective(sides[0][1][call.pair], call.gamma,
                                          call.x, call.y).label.value
        except ERRORS as exc:
            label = type(exc).__name__
        groups.setdefault(f"pair {call.pair} {label}", []).append(i)
    counters = [WorkCounter(package) if count else None for package in (this, that)]
    work = [count_work(output_digest.EvalCounter(sys.modules[package.__name__ + ".solver"]),
                       counter, *side, calls)
            for package, counter, side in zip((this, that), counters, sides)]
    for prox, pairs in sides:  # warm-up
        time_pass(prox, pairs, calls)
    # as the benchmark does: what is alive now stays out of the collector's way
    gc.collect()
    gc.freeze()

    ratios = {key: [] for key in groups}
    per_call = {key: ([], []) for key in groups}
    samples = ([[] for _ in calls], [[] for _ in calls])  # per side and input
    for n in range(passes):
        order = (0, 1) if n % 2 == 0 else (1, 0)
        times = [None, None]
        for side in order:
            times[side] = time_pass(*sides[side], calls)
            for input_times, t in zip(samples[side], times[side]):
                input_times.append(t)
        for key, members in groups.items():
            totals = [sum(t[i] for i in members) for t in times]
            ratios[key].append(totals[0] / totals[1])
            for side, total in enumerate(totals):
                per_call[key][side].append(total / len(members) / 1e3)
    return ({key: (len(members), ratios[key], per_call[key],
                   *(tuple(sum(side[kind][i] for i in members) / len(members) for side in work)
                     for kind in (0, 1, 2)))
             for key, members in groups.items()},
            tuple(latencies(side, workload) for side in samples),
            tuple(dict(counter.counts) if counter else {} for counter in counters),
            tuple(dict(counter.builtins) if counter else {} for counter in counters))


def _child(conn, *args) -> None:
    """Runs ``measure`` in a fresh process and sends its result back."""
    conn.send(measure(*args))
    conn.close()


def _ordered(result: dict) -> list:
    return sorted(result, key=lambda k: (k != "all", k))


def print_runs(runs: list, workload: str) -> None:
    """Each run's overall ratio and both sides' latencies, then per group
    the median over runs of the runs' median ratios, with their min-max,
    the passes won, the median over runs of each side's median us per
    call and the first run's T evaluations, bytecodes and builtin calls per
    call; last the twelve functions whose bytecodes per call over the pool
    differ most between the sides, and the twelve builtins whose calls do."""
    tail = f"p{TAIL_PCT[workload]:g}"
    for n, (result, (this_lat, that_lat), _, _) in enumerate(runs):
        loaded = "other" if n % 2 else "this"
        print(f"  run {n + 1}: {loaded} checkout loaded as persprox,"
              f" median ratio {statistics.median(result['all'][1]):.3f},"
              f" latency p50 {this_lat[0]:.2f} (this) {that_lat[0]:.2f} (other),"
              f" {tail} {this_lat[1]:.2f} (this) {that_lat[1]:.2f} (other) us")
    results = [result for result, *_ in runs]
    for key in _ordered(results[0]):
        medians = [statistics.median(result[key][1]) for result in results]
        wins = sum(x < 1.0 for result in results for x in result[key][1])
        passes = sum(len(result[key][1]) for result in results)
        this_us, that_us = (statistics.median(statistics.median(result[key][2][side])
                                              for result in results) for side in (0, 1))
        this_ev, that_ev = results[0][key][3]
        this_op, that_op = results[0][key][4]
        this_cc, that_cc = results[0][key][5]
        print(f"  {key:<22} calls {results[0][key][0]:>5}  median ratio over runs"
              f" {statistics.median(medians):.3f} (min {min(medians):.3f}, max {max(medians):.3f})"
              f"  wins {wins}/{passes}  us per call {this_us:.1f} (this) {that_us:.1f} (other)"
              f"  T evaluations {this_ev:.2f} (this) {that_ev:.2f} (other)"
              f"  bytecodes {this_op:.0f} (this) {that_op:.0f} (other)"
              f"  builtin calls {this_cc:.1f} (this) {that_cc:.1f} (other)")
    calls = results[0]["all"][0]
    for title, (this_fn, that_fn) in (("bytecodes per call by function", runs[0][2]),
                                      ("builtin calls per call by builtin", runs[0][3])):
        diff = sorted(set(this_fn) | set(that_fn),
                      key=lambda f: (-abs(this_fn.get(f, 0) - that_fn.get(f, 0)), f))
        print(f"  {title}, largest differences first:")
        for name in diff[:12]:
            this_n, that_n = this_fn.get(name, 0) / calls, that_fn.get(name, 0) / calls
            if this_n != that_n:
                print(f"    {name:<44} {this_n:8.2f} (this) {that_n:8.2f} (other)")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", metavar="OTHER_CHECKOUT", help="root of the other checkout")
    parser.add_argument("--workload", default="wide_scale", choices=workloads.PROX)
    parser.add_argument("--passes", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh processes, alternating which checkout loads as persprox")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    other = Path(args.other).resolve()
    context = multiprocessing.get_context("spawn")
    results = []
    for n in range(args.runs):
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_child, args=(
            send, other, args.workload, args.passes, args.seed, n % 2 == 1, n == 0))
        child.start()
        send.close()
        try:
            results.append(receive.recv())
        except EOFError:
            raise SystemExit(f"run {n + 1} failed: its process exited with {child.exitcode}")
        finally:
            child.join()
    print(f"{args.workload} seed {args.seed}: {results[0][0]['all'][0]} calls, {args.passes} passes"
          f" per run, runs {args.runs}; ratio this/other of the time per call"
          f" (below 1: this checkout faster)")
    print_runs(results, args.workload)


if __name__ == "__main__":
    main()
