"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of the workload name and the seed, so
the same seed always gives the same calls.  Pairs are described by the
same JSON specs the ``persprox`` command line accepts, which lets the CLI
workloads hand the identical problem to a child process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BAND = 4.0  # the tested band: |x_i|, |y| <= 4
REFERENCE_SEED = 0  # seed whose outputs are stored under reference/
REFERENCE_CALLS = 1000  # leading calls of each pool stored there

PROX = ("root_band", "closed_band", "wide_scale")  # in-process prox calls
WORKLOADS = PROX + ("cli_prox",)

# the one-shot CLI calls reuse the root_band pairs
ROOT_BAND_SPECS = (
    {"base": {"name": "power", "p": 3.0}, "scaling": {"name": "root", "q": 0.5, "upper": 4.0}},
    {"base": {"name": "huber", "alpha": 1.0}, "scaling": {"name": "sqrt", "beta": 1.0}},
)

# closed_band groups: pair spec and the only label the geometry allows
CLOSED_BAND_SPECS = (
    ({"base": {"name": "abs"}, "scaling": {"name": "root", "q": 0.5, "upper": 1.0}}, "CaseII"),
    ({"base": {"name": "huber", "alpha": 1.0}, "scaling": {"name": "sqrt", "beta": 1.0}}, "Xi2"),
    ({"base": {"name": "power", "p": 2.0}, "scaling": {"name": "identity-interval"}}, "Omega2"),
)

# the six configurations of ROADMAP item 4
ROBUSTNESS_SPECS = (
    {"base": {"name": "power", "p": 3.0}, "scaling": {"name": "root", "q": 0.5, "upper": 4.0}},
    {"base": {"name": "power", "p": 1.05}, "scaling": {"name": "root", "q": 0.5}},
    {"base": {"name": "power", "p": 20.0}, "scaling": {"name": "root", "q": 0.95}},
    {"base": {"name": "power", "p": 2.0}, "scaling": {"name": "identity-interval"}},
    {"base": {"name": "huber", "alpha": 1e4}, "scaling": {"name": "sqrt", "beta": 1.0}},
    {"base": {"name": "abs"}, "scaling": {"name": "root", "q": 0.5, "upper": 1.0}},
)
# wide_scale times the calls that hold today: every configuration but
# power(20)/root(0.95), which raises at most scales, in the box of step and
# magnitude exponents where none of the 288,000 calls of seeds 0-59 failed
# (test_wide_scale_calls_are_all_certified re-checks seeds 0 and 1).  Outside
# it (gamma < 1, |(x, y)| > 1) calls raise or lose their certificate; the
# traced run measures those failures on the robustness probe instead.
WIDE_SCALE_SPECS = tuple(ROBUSTNESS_SPECS[k] for k in (0, 1, 3, 4, 5))
WIDE_LOG_GAMMA = (0.0, 8.0)
WIDE_LOG_SIZE = (-12.0, 0.0)
PROBE_LOG_GAMMA = (-8.0, 8.0)
PROBE_LOG_SIZE = (-12.0, 12.0)
PROBE_CALLS = 1200  # one traced pass on wide_scale --trace 1

# pool sizes: one pass must fit well inside a run on a slow host, and the
# shares computed over the first pass must be tight across seeds
POOL = {"root_band": 2000, "closed_band": 3000, "wide_scale": 4800, "cli_prox": 200}
DEMO_PROBLEMS = 3  # demo fits checked through the CLI and traced in-process

DIM = 2
DEMO_ROWS, DEMO_COLS, DEMO_ITERATIONS, DEMO_KAPPA = 12, 3, 500, 0.5
DEMO_LOCATION_SCALE = 0.25
DEMO_SPEC = {"base": {"name": "huber", "alpha": 1.0}, "scaling": {"name": "sqrt", "beta": 1.0},
             "gamma": 1.0, "dims": [DEMO_COLS, 1]}


@dataclass(frozen=True)
class Call:
    """One prox call: pair index, step, base point, scale point, and a group tag
    (the expected label on closed_band, the pair's config index elsewhere)."""

    pair: int
    gamma: float
    x: tuple[float, ...]
    y: float
    group: str


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def pair_specs(workload: str) -> tuple[dict, ...]:
    if workload in ("root_band", "cli_prox"):
        return ROOT_BAND_SPECS
    if workload == "closed_band":
        return tuple(spec for spec, _ in CLOSED_BAND_SPECS)
    if workload == "wide_scale":
        return WIDE_SCALE_SPECS
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def band_calls(workload: str, seed: int, count: int) -> list[Call]:
    """Equal mix of the two root_band pairs, (x, y) ~ U(-4, 4)^3, gamma = 1."""
    rng = _rng(workload, seed)
    calls = []
    for i in range(count):
        x = tuple(rng.uniform(-BAND, BAND) for _ in range(DIM))
        calls.append(Call(i % 2, 1.0, x, rng.uniform(-BAND, BAND), str(i % 2)))
    return calls


def closed_band_calls(seed: int, count: int) -> list[Call]:
    """Inputs placed in the closed-form regions by geometry alone.

    AbsBase/root: any input (decoupled case).  Huber/sqrt: ||x|| beyond
    alpha (sqrt(beta + y^2) + gamma), the outer region.  Power(2)/identity:
    y below -||x||^2 / (2 gamma), where the scale prox clamps to 0.  Each
    group keeps a margin from its boundary so rounding cannot flip a label.
    """
    rng = _rng("closed_band", seed)
    gamma, alpha, beta = 1.0, 1.0, 1.0
    calls = []
    for i in range(count):
        group = i % 3
        label = CLOSED_BAND_SPECS[group][1]
        if group == 0:
            x = tuple(rng.uniform(-BAND, BAND) for _ in range(DIM))
            y = rng.uniform(-BAND, BAND)
        elif group == 1:
            y = rng.uniform(-BAND, BAND)
            radius = alpha * (math.sqrt(beta + y * y) + gamma) * rng.uniform(1.01, 2.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = (radius * math.cos(theta), radius * math.sin(theta))
        else:
            x = tuple(rng.uniform(-BAND, BAND) for _ in range(DIM))
            y = -(x[0] ** 2 + x[1] ** 2) / (2.0 * gamma) - rng.uniform(0.01, BAND)
        calls.append(Call(group, gamma, x, y, label))
    return calls


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def scale_calls(workload: str, seed: int, count: int, configs: int,
                log_gamma: tuple[float, float], log_size: tuple[float, float]) -> list[Call]:
    """gamma = 10^U(log_gamma), |(x, y)| = 10^U(log_size), uniform direction in R^3.

    The exponents and the direction's scale component (uniform on [-1, 1]
    for a uniform direction) are stratified per pair, so every seed covers
    the ranges evenly; plain random draws left the share of slow calls, and
    with it the run's median latency, varying by seed.
    """
    rng = _rng(workload, seed)
    per_config = -(-count // configs)
    gammas = [_stratified(rng, per_config, *log_gamma) for _ in range(configs)]
    sizes = [_stratified(rng, per_config, *log_size) for _ in range(configs)]
    scale_dir = [_stratified(rng, per_config, -1.0, 1.0) for _ in range(configs)]
    calls = []
    for i in range(count):
        config, k = i % configs, i // configs
        magnitude = 10.0 ** sizes[config][k]
        z = scale_dir[config][k]
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = magnitude * math.sqrt(1.0 - z * z)
        x = (r * math.cos(theta), r * math.sin(theta))
        calls.append(Call(config, 10.0 ** gammas[config][k], x, magnitude * z, str(config)))
    return calls


def probe_calls(seed: int) -> list[Call]:
    """The robustness probe: all six ROADMAP item 4 pairs over the full
    ranges, gamma = 10^U(-8, 8) and |(x, y)| = 10^U(-12, 12)."""
    return scale_calls("probe", seed, PROBE_CALLS, len(ROBUSTNESS_SPECS),
                       PROBE_LOG_GAMMA, PROBE_LOG_SIZE)


def make_calls(workload: str, seed: int) -> list[Call]:
    count = POOL[workload]
    if workload in ("root_band", "cli_prox"):
        return band_calls(workload, seed, count)
    if workload == "closed_band":
        return closed_band_calls(seed, count)
    if workload == "wide_scale":
        return scale_calls("wide_scale", seed, count, len(WIDE_SCALE_SPECS),
                           WIDE_LOG_GAMMA, WIDE_LOG_SIZE)
    raise ValueError(f"workload {workload!r} has no prox calls")


def make_demo_problems(seed: int) -> list[dict]:
    """Seeded 12x3 regressions with t(2) noise, as in scripts/concomitant_demo.py.

    Returns ``DemoSpec.from_dict`` documents (the CLI's ``--demo`` format):
    design, observations, scale anchor, step size 0.9 / L and 500
    iterations.  The true location is drawn at a quarter of the script's scale
    so the fits stay in the root region Xi4, where the demo spends its time.
    """
    import numpy as np
    from persprox import DemoSpec
    from persprox.splitting import smooth_lipschitz

    problems = []
    for k in range(DEMO_PROBLEMS):
        rng = np.random.default_rng([seed, k])
        a = rng.normal(size=(DEMO_ROWS, DEMO_COLS))
        w_true = rng.normal(size=DEMO_COLS) * DEMO_LOCATION_SCALE
        b = a @ w_true + rng.standard_t(df=2, size=DEMO_ROWS) * 0.3
        a_rows = [[float(v) for v in row] for row in a]
        b_list = [float(v) for v in b]
        lip = smooth_lipschitz(DemoSpec(a_matrix=tuple(map(tuple, a_rows)), b=tuple(b_list),
                                        kappa=DEMO_KAPPA))
        problems.append({"a": a_rows, "b": b_list, "y0": 1.0, "kappa": DEMO_KAPPA,
                         "tau": 0.9 / lip, "iterations": DEMO_ITERATIONS})
    return problems


def build_pair(spec: dict):
    """PerspectivePair for a spec, built through the catalog's by-name
    constructors (the same path the CLI takes)."""
    from persprox import PerspectivePair, make_base, make_scaling

    base = dict(spec["base"])
    scaling = dict(spec["scaling"])
    n = spec.get("dims", [DIM, 1])[0]
    return PerspectivePair(make_base(base.pop("name"), base),
                           make_scaling(scaling.pop("name"), scaling), n)


def cli_spec(workload: str, pair: int, gamma: float = 1.0) -> dict:
    spec = dict(pair_specs(workload)[pair])
    spec.setdefault("gamma", gamma)
    spec.setdefault("dims", [DIM, 1])
    return spec


def setup(workload: str, seed: int):
    """Everything a run needs before timing starts: pairs and inputs."""
    return tuple(build_pair(spec) for spec in pair_specs(workload)), make_calls(workload, seed)
