"""The traced run: spans around the calls into each persprox layer.

Shims replace public names where persprox looks them up (module globals
of the consuming module, or methods at class level), record one span per
call, and are all restored afterwards.  Spans carry name, start, end,
parent and the index of the prox call that caused them; the spans of the
first ``KEEP_REQUESTS`` calls are kept whole and written out, every span
feeds the per-name counters.  A span's self time is its duration minus
the time its child spans cover.

Traced and untraced passes over the same calls alternate block by block,
which gives the tracing overhead and checks that tracing changes no
output.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

import checks
import workloads
from measure import ROOT, child_env
from timing import run_child

KEEP_REQUESTS = 10
BLOCK_CALLS = 50
CLI_PROBE_REPEATS = 5
# layers an exception can be attributed to (the splitting demo raises none)
ERROR_LAYERS = ("solver", "roots", "catalog", "radial", "perspective")
ERROR_TYPES = ("RootFindError", "ZeroDivisionError", "OverflowError")
TOP = "solver.prox_perspective"

# (module, global name, span name): names looked up as module globals
GLOBAL_SHIMS = (
    ("persprox.solver", "classify_case_i", "solver.classify"),
    ("persprox.solver", "classify_case_iii", "solver.classify"),
    ("persprox.solver", "solve_eta_case_i", "solver.solve_eta"),
    ("persprox.solver", "solve_eta_case_iii", "solver.solve_eta"),
    ("persprox.solver", "make_residual_case_i", "solver.make_residual"),
    ("persprox.solver", "make_residual_case_iii", "solver.make_residual"),
    ("persprox.solver", "solve_bracketed", "roots.solve_bracketed"),
    ("persprox.solver", "prox_fenchel_gap", "perspective.prox_fenchel_gap"),
    ("persprox.catalog", "root_scaling_prox_neg", "catalog.root_scaling_prox_neg"),
    ("persprox.catalog", "sqrt_scaling_prox", "catalog.sqrt_scaling_prox"),
    ("persprox.catalog", "real_quartic_roots", "roots.real_quartic_roots"),
    ("persprox.catalog", "solve_bracketed", "roots.solve_bracketed"),
    ("persprox.catalog", "radial_prox", "radial.radial_prox"),
    ("persprox.radial", "radial_prox", "radial.radial_prox"),
    ("persprox.splitting", "prox_perspective", TOP),
)

# (module, class names, method names, span name): contract methods
CLASS_SHIMS = (
    ("persprox.catalog", ("PowerScalar",), ("prox",), "catalog.power_prox"),
    ("persprox.catalog", ("PowerBase", "HuberBase", "AbsBase"),
     ("prox_conj", "conj_eval", "proj_dom_conj"), "catalog.base_contract"),
    ("persprox.catalog", ("RootScaling", "SqrtScaling", "IdentityScaling"),
     ("prox_env", "env_eval"), "catalog.scaling_contract"),
    ("persprox.perspective", ("PerspectivePair",), ("check_point",), "perspective.check_point"),
    ("persprox.radial", ("RadialFunction",), ("prox",), "radial.radial_prox"),
)


class SpanStats:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = array("d")


class Tracer:
    """Span recorder plus the shims that feed it."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns, request)
        self.stack: list[list] = []  # open spans: [id, child ns]
        self.request = 0
        self.next_id = 0
        self.last_exc = None  # innermost span that saw the exception in flight
        self.last_exc_span = None
        self.roots: list[list[float]] = []  # |T| values of each multiplier search
        self.open_roots: list[list[float]] = []
        self.prox_starts = array("d")  # start of each splitting-side prox call
        self.saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args, kwargs=None):
        sid = self.next_id
        self.next_id += 1
        stack = self.stack
        parent = stack[-1][0] if stack else None
        frame = [sid, 0]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            if exc is not self.last_exc:
                self.last_exc, self.last_exc_span = exc, name
            raise
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.count += 1
            st.total_ns += dur
            st.self_ns.append(dur - frame[1])
            if self.request < KEEP_REQUESTS:
                self.spans.append((sid, parent, name, t0, t1, self.request))

    def error_layer(self, exc) -> str:
        """Layer of the innermost span open when ``exc`` was raised."""
        name = self.last_exc_span if exc is self.last_exc else TOP
        return name.split(".", 1)[0]

    # -- shims -------------------------------------------------------------

    def _shim(self, name, fn):
        call = self.call

        def shim(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return shim

    def _solve_eta_shim(self, fn):
        call = self.call

        def shim(*args, **kwargs):
            record: list[float] = []
            self.open_roots.append(record)
            try:
                return call("solver.solve_eta", fn, args, kwargs)
            finally:
                self.open_roots.pop()
                self.roots.append(record)

        return shim

    def _residual_shim(self, fn):
        call = self.call

        def make(*args, **kwargs):
            T = call("solver.make_residual", fn, args, kwargs)

            def traced_T(eta):
                value = call("solver.T", T, (eta,))
                if self.open_roots:
                    self.open_roots[-1].append(abs(value))
                return value

            return traced_T

        return make

    def _splitting_prox_shim(self, fn):
        call = self.call

        def shim(*args, **kwargs):
            self.prox_starts.append(time.perf_counter_ns())
            self.request += 1
            return call(TOP, fn, args, kwargs)

        return shim

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("shims already installed")
        for mod_name, attr, span in GLOBAL_SHIMS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            if attr.startswith("solve_eta"):
                shim = self._solve_eta_shim(orig)
            elif attr.startswith("make_residual"):
                shim = self._residual_shim(orig)
            elif mod_name == "persprox.splitting":
                shim = self._splitting_prox_shim(orig)
            else:
                shim = self._shim(span, orig)
            self.saved.append((mod, attr, orig))
            setattr(mod, attr, shim)
        for mod_name, classes, methods, span in CLASS_SHIMS:
            mod = importlib.import_module(mod_name)
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self.saved.append((cls, meth, orig))
                    setattr(cls, meth, self._shim(span, orig))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, orig = self.saved.pop()
            setattr(owner, attr, orig)


def shim_targets() -> list[tuple]:
    """(owner, attribute, current value) of every name the shims replace."""
    out = []
    for mod_name, attr, _ in GLOBAL_SHIMS:
        mod = importlib.import_module(mod_name)
        out.append((mod, attr, getattr(mod, attr)))
    for mod_name, classes, methods, _ in CLASS_SHIMS:
        mod = importlib.import_module(mod_name)
        for cls_name in classes:
            cls = getattr(mod, cls_name)
            out.extend((cls, meth, cls.__dict__[meth]) for meth in methods)
    return out


class Traced:
    """Outcome of a traced run: the tracer and the counts around it."""

    def __init__(self):
        self.tracer = Tracer()
        self.attempted = 0  # prox calls of the first pass
        self.raised = 0
        self.uncertified = 0
        self.error_types: dict[str, int] = {}
        self.error_layers: dict[str, int] = {}
        self.traced_ns = 0
        self.untraced_ns = 0
        self.problems: list[str] = []
        self.demo_iter_ns = array("d")
        self.demo_prox_ns = 0  # traced prox time inside demo fits
        self.cli: dict[str, float] = {}
        self.probe: Traced | None = None  # robustness probe, on wide_scale

    def count_outcome(self, call, out, exc) -> None:
        self.attempted += 1
        if out[0] == "error":
            self.raised += 1
            kind = out[1] if out[1] in ERROR_TYPES else "other"
            self.error_types[kind] = self.error_types.get(kind, 0) + 1
            layer = self.tracer.error_layer(exc)
            self.error_layers[layer] = self.error_layers.get(layer, 0) + 1
        elif not checks.certified(call, out):
            self.uncertified += 1


def _outcome(fn, pair, call):
    try:
        res = fn(pair, call.gamma, call.x, call.y)
    except Exception as exc:  # counted against the call, see checks.outcome_of
        return ("error", type(exc).__name__), exc
    return ("ok", res.label.value, res.p, res.q, res.eta, res.certificate_gap), None


def run_traced_calls(seconds: float, pairs, calls) -> Traced:
    """Whole passes over ``calls``, each block of calls run untraced and
    traced in alternating order, until ``seconds`` have passed."""
    from persprox import prox_perspective

    result = Traced()
    tracer = result.tracer
    clock = time.perf_counter_ns

    def traced_prox(pair, gamma, x, y):
        return tracer.call(TOP, prox_perspective, (pair, gamma, x, y))

    deadline = clock() + int(seconds * 1e9)
    for call in calls[: min(len(calls), 100)]:  # same warm-up as the timed run
        _outcome(prox_perspective, pairs[call.pair], call)
    passes = 0
    while passes == 0 or clock() < deadline:
        for start in range(0, len(calls), BLOCK_CALLS):
            block = calls[start:start + BLOCK_CALLS]
            order = (False, True) if (start // BLOCK_CALLS + passes) % 2 == 0 else (True, False)
            outs = {}
            for traced in order:
                if traced:
                    tracer.install()
                t0 = clock()
                try:
                    got = []
                    fn = traced_prox if traced else prox_perspective
                    for k, call in enumerate(block):
                        tracer.request = start + k
                        got.append(_outcome(fn, pairs[call.pair], call))
                finally:
                    if traced:
                        tracer.uninstall()
                elapsed = clock() - t0
                if traced:
                    result.traced_ns += elapsed
                else:
                    result.untraced_ns += elapsed
                outs[traced] = got
            for k, call in enumerate(block):
                (plain, _), (seen, exc) = outs[False][k], outs[True][k]
                if plain != seen and repr(plain) != repr(seen):
                    result.problems.append(f"call {start + k}: traced output differs")
                if passes == 0:
                    result.count_outcome(call, seen, exc)
        passes += 1
    return result


def run_traced_demos(pair, problems) -> Traced:
    """Demo fits in-process, untraced and traced in turn."""
    from persprox import DemoSpec, run_concomitant_demo

    result = Traced()
    tracer = result.tracer
    clock = time.perf_counter_ns
    for k, problem in enumerate(problems):
        spec = DemoSpec.from_dict(problem)
        rows = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                first_start = len(tracer.prox_starts)
                prox_before = tracer.stats[TOP].total_ns if TOP in tracer.stats else 0
                tracer.install()
            t0 = clock()
            try:
                trace = run_concomitant_demo(pair, spec)
            finally:
                t1 = clock()
                if traced:
                    tracer.uninstall()
            rows[traced] = trace.rows
            if traced:
                result.traced_ns += t1 - t0
                result.demo_prox_ns += tracer.stats[TOP].total_ns - prox_before
                starts = tracer.prox_starts[first_start:]
                result.demo_iter_ns.extend(b - a for a, b in zip(starts, starts[1:]))
            else:
                result.untraced_ns += t1 - t0
        if rows[False] != rows[True]:
            result.problems.append(f"demo {k}: traced trace differs")
        reason = checks.demo_trace_ok(rows[True])
        if reason is not None:
            result.problems.append(f"demo {k}: {reason}")
    return result


def measure_cli_layers() -> dict:
    """Fresh-interpreter costs: bare start, import of the CLI, import of numpy."""
    env = child_env()
    timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    out = {}
    for key, argv, inner in (
        ("cli.interpreter_ms", [sys.executable, "-c", "pass"], False),
        ("cli.import_ms", [sys.executable, "-c", timer.format("persprox.cli")], True),
        ("cli.numpy_import_ms", [sys.executable, "-c", timer.format("numpy")], True),
    ):
        times = []
        for _ in range(CLI_PROBE_REPEATS):
            res = run_child(argv, ROOT, env)
            if res.returncode != 0:
                raise RuntimeError(f"{key} probe failed: {res.stderr.strip()}")
            times.append(float(res.stdout.strip()) if inner else res.wall_s)
        out[key] = statistics.median(times) * 1e3
    return out


def layer_metrics(result: Traced) -> dict:
    """Per-layer metrics of a traced run; 0 for a layer the workload never ran."""
    tr = result.tracer
    stats = tr.stats
    top = stats.get(TOP)
    n_prox = top.count if top else 0
    total = top.total_ns if top else 0

    def count(name):
        return stats[name].count if name in stats else 0

    def per_prox(name):
        return count(name) / n_prox if n_prox else 0.0

    def self_p50_us(name):
        return statistics.median(stats[name].self_ns) / 1e3 if count(name) else 0.0

    def self_share(*names):
        return sum(sum(stats[n].self_ns) for n in names if n in stats) / total if total else 0.0

    def share(name):
        return stats[name].total_ns / total if total and name in stats else 0.0

    roots = tr.roots
    evals = [len(r) for r in roots]
    tol = _residual_tol()
    useful = [next((k + 1 for k, v in enumerate(r) if v <= tol), len(r)) for r in roots]
    # failures are counted on the robustness probe where a run has one:
    # the calls of a workload itself must all succeed
    failures = result.probe if result.probe is not None else result

    def frac(n):
        return n / failures.attempted if failures.attempted else 0.0

    m = {
        "solver.classify.self_us_p50": self_p50_us("solver.classify"),
        "solver.classify.share": share("solver.classify"),
        "solver.solve_eta.self_share": self_share("solver.solve_eta"),
        "solver.T.evals_per_root": sum(evals) / len(evals) if evals else 0.0,
        "solver.T.evals_max": max(evals) if evals else 0,
        "solver.T.useful_ratio": sum(useful) / sum(evals) if sum(evals) else 0.0,
        "solver.root_region_share": count("solver.solve_eta") / n_prox if n_prox else 0.0,
        "roots.solve_bracketed.calls_per_prox": per_prox("roots.solve_bracketed"),
        "roots.solve_bracketed.self_share": self_share("roots.solve_bracketed"),
        "roots.real_quartic_roots.calls_per_prox": per_prox("roots.real_quartic_roots"),
        "roots.real_quartic_roots.self_us_p50": self_p50_us("roots.real_quartic_roots"),
        "catalog.root_scaling_prox_neg.calls_per_prox": per_prox("catalog.root_scaling_prox_neg"),
        "catalog.root_scaling_prox_neg.self_us_p50": self_p50_us("catalog.root_scaling_prox_neg"),
        "catalog.sqrt_scaling_prox.calls_per_prox": per_prox("catalog.sqrt_scaling_prox"),
        "catalog.sqrt_scaling_prox.self_us_p50": self_p50_us("catalog.sqrt_scaling_prox"),
        "catalog.power_prox.calls_per_prox": per_prox("catalog.power_prox"),
        "catalog.base_contract.calls_per_prox": per_prox("catalog.base_contract"),
        "catalog.scaling_contract.calls_per_prox": per_prox("catalog.scaling_contract"),
        "catalog.scalar_solvers.self_share": self_share(
            "catalog.root_scaling_prox_neg", "catalog.sqrt_scaling_prox", "catalog.power_prox"),
        "radial.radial_prox.calls_per_prox": per_prox("radial.radial_prox"),
        "perspective.check_point.calls_per_prox": per_prox("perspective.check_point"),
        "perspective.prox_fenchel_gap.self_us_p50": self_p50_us("perspective.prox_fenchel_gap"),
        "perspective.prox_fenchel_gap.share": share("perspective.prox_fenchel_gap"),
        "splitting.demo.iter_us_p50": (statistics.median(result.demo_iter_ns) / 1e3
                                       if result.demo_iter_ns else 0.0),
        "splitting.demo.prox_share": (result.demo_prox_ns / result.traced_ns
                                      if result.demo_prox_ns else 0.0),
        "cli.interpreter_ms": result.cli.get("cli.interpreter_ms", 0.0),
        "cli.import_ms": result.cli.get("cli.import_ms", 0.0),
        "cli.numpy_import_ms": result.cli.get("cli.numpy_import_ms", 0.0),
        "error_share": frac(failures.raised),
        "uncertified_share": frac(failures.uncertified),
        "trace.overhead_share": (1.0 - result.untraced_ns / result.traced_ns
                                 if result.traced_ns else 0.0),
    }
    for kind in ERROR_TYPES + ("other",):
        m[f"errors.{kind}"] = frac(failures.error_types.get(kind, 0))
    for layer in ERROR_LAYERS:
        m[f"{layer}.errors"] = frac(failures.error_layers.get(layer, 0))
    return m


def _residual_tol() -> float:
    from persprox import RootConfig

    return RootConfig().residual_tol


def run_probe(seed: int) -> Traced:
    """One pass, untraced and traced, over the robustness probe: the six
    ROADMAP item 4 pairs at every scale, where calls raise or lose their
    certificate today.  What fails is the measurement, not a failed check."""
    pairs = tuple(workloads.build_pair(spec) for spec in workloads.ROBUSTNESS_SPECS)
    return run_traced_calls(0.0, pairs, workloads.probe_calls(seed))


def run(workload: str, seed: int, seconds: float, pairs, inputs) -> Traced:
    if workload != "cli_prox":
        result = run_traced_calls(seconds, pairs, inputs)
        if workload == "wide_scale":
            result.probe = run_probe(seed)
            result.problems.extend(f"probe {p}" for p in result.probe.problems)
        return result
    # a CLI process cannot be traced from here; its side of the package is
    # covered by fresh-interpreter probes (start-up, imports) and by the
    # in-process fits behind the demo-concomitant subcommand
    result = run_traced_demos(workloads.build_pair(workloads.DEMO_SPEC),
                              workloads.make_demo_problems(seed))
    result.cli = measure_cli_layers()
    return result
