"""Command-line front end.

Subcommands: ``eval``, ``prox``, ``trace-root``, ``validate``,
``demo-concomitant``.  Problem and point descriptions are JSON, inline or
from a file, or a single document on standard input with keys ``spec``,
``point``, ``demo`` (read only when ``--spec`` or ``--point`` is missing;
``demo`` is taken from it when it was read).  Infinite values serialize
as the strings "+inf" / "-inf".  Exit codes: 0 ok, 1 validation failure,
2 bad input (a file that cannot be read or written too), 3 solver
failure, 4 oracle failure.

The oracle and the splitting demo load inside the commands that use them,
so ``eval``, ``prox`` and ``trace-root`` never import them.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import TYPE_CHECKING

from .catalog import HuberBase, SqrtScaling, make_base, make_scaling
from .core import INF, SignClass
from .perspective import (
    PairMismatch,
    PerspectivePair,
    perspective_conj_eval,
    perspective_eval,
    preperspective_eval,
)
from .roots import RootFindError
from .solver import (
    CaseLabel,
    RootConfig,
    classify_case_i,
    prox_perspective,
    solve_eta_case_i,
)

if TYPE_CHECKING:
    from .oracle import OracleConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4

_ROOT_KEYS = {"eta_tol": float, "residual_tol": float, "max_iter": int}
_ORACLE_KEYS = {"radius_factor": float, "refine_tol": float, "max_refine_iters": int}

DEVIATION_LIMIT = 5e-4


class InputError(ValueError):
    pass


def _load_json_arg(text: str | None):
    if text is None:
        return None
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {text!r}: {exc.strerror or exc}") from exc


def _jsonable(value):
    if isinstance(value, float):
        if value == INF:
            return "+inf"
        if value == -INF:
            return "-inf"
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def build_problem(data: dict) -> tuple[PerspectivePair, float]:
    try:
        base_cfg = dict(data["base"])
        scaling_cfg = dict(data["scaling"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"spec needs 'base' and 'scaling' objects: {exc}") from exc
    base = make_base(base_cfg.pop("name", None), base_cfg)
    scaling = make_scaling(scaling_cfg.pop("name", None), scaling_cfg)
    try:
        gamma = float(data.get("gamma", 1.0))
    except TypeError as exc:
        raise InputError(f"gamma must be a number: {exc}") from exc
    if not 0.0 < gamma < INF:
        raise InputError(f"gamma must be positive and finite, got {gamma}")
    dims = data.get("dims", [1, 1])
    if not isinstance(dims, list) or len(dims) != 2 or any(type(d) is not int for d in dims):
        raise InputError(f"dims must be two integers [n, m], got {dims!r}")
    n, m = dims
    if m != 1:
        raise InputError("catalog scalings use a one-dimensional scale space")
    return PerspectivePair(base, scaling, n), gamma


def parse_point(data: dict) -> tuple[tuple[float, ...], float]:
    try:
        x = tuple(float(v) for v in data["x"])
        y = data["y"]
        if isinstance(y, list):
            if len(y) != 1:
                raise InputError("the scale component must be a scalar")
            y = y[0]
        return x, float(y)
    except (KeyError, TypeError) as exc:
        raise InputError(f"point needs 'x' (array) and 'y' (number): {exc}") from exc


def parse_tol_overrides(items) -> tuple[RootConfig, OracleConfig | None]:
    """Solver and oracle settings from ``KEY=VALUE`` items; the oracle's are
    None when no item names one, so only ``validate`` loads the oracle for
    its defaults."""
    root_kwargs, oracle_kwargs = {}, {}
    for item in items or ():
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in _ROOT_KEYS:
            root_kwargs[key] = _ROOT_KEYS[key](raw)
        elif key in _ORACLE_KEYS:
            oracle_kwargs[key] = _ORACLE_KEYS[key](raw)
        else:
            raise InputError(f"unknown tolerance {key!r}")
    cfg = RootConfig(**root_kwargs)
    if not oracle_kwargs:
        return cfg, None
    from .oracle import OracleConfig

    return cfg, OracleConfig(**oracle_kwargs)


def _stdin_document(args) -> dict:
    if getattr(args, "_stdin_doc", None) is None:
        try:
            args._stdin_doc = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise InputError(f"stdin is not valid JSON: {exc}") from exc
        if not isinstance(args._stdin_doc, dict):
            raise InputError("the stdin document must be a JSON object")
    return args._stdin_doc


def _resolve(args, key: str):
    """The ``--key`` flag's document, else the stdin document's ``key``."""
    data = _load_json_arg(getattr(args, key))
    if data is not None:
        return data
    doc = _stdin_document(args)
    if key not in doc:
        raise InputError(f"missing --{key} and no {key!r} key on stdin")
    return doc[key]


def _emit(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            out.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc


def cmd_eval(args) -> int:
    pair, _ = build_problem(_resolve(args, "spec"))
    x, y = parse_point(_resolve(args, "point"))
    record = {
        "value": perspective_eval(pair, x, y),
        "preperspective_value": preperspective_eval(pair, x, y),
        "conjugate_value_at_point": perspective_conj_eval(pair, x, y),
    }
    _emit(args, json.dumps(_jsonable(record), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_prox(args) -> int:
    pair, gamma = build_problem(_resolve(args, "spec"))
    x, y = parse_point(_resolve(args, "point"))
    cfg, _ = parse_tol_overrides(args.tol)
    res = prox_perspective(pair, gamma, x, y, cfg)
    record = {
        "p": list(res.p),
        "q": res.q,
        "eta": res.eta,
        "case_label": res.label.value,
        "iterations": res.root_iterations,
        "certificate_gap": res.certificate_gap,
    }
    _emit(args, json.dumps(_jsonable(record), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_trace_root(args) -> int:
    pair, gamma = build_problem(_resolve(args, "spec"))
    x, y = parse_point(_resolve(args, "point"))
    cfg, _ = parse_tol_overrides(args.tol)
    if (pair.base.sign_class is SignClass.ZERO_INFTY_CONJUGATE
            or classify_case_i(pair, gamma, x, y) not in (CaseLabel.OMEGA4, CaseLabel.XI4)):
        _emit(args, "closed-form case, no root trace\n")
        return EXIT_OK
    rows: list[tuple[int, float, float, float, float]] = []

    def trace(it, lo, hi, mid, fmid):
        rows.append((it, lo, hi, mid, fmid))

    solve_eta_case_i(pair, gamma, x, y, cfg, trace=trace)
    lines = ["iter,eta_lo,eta_hi,eta_mid,T_mid"]
    lines += [f"{it},{lo!r},{hi!r},{mid!r},{fmid!r}" for it, lo, hi, mid, fmid in rows]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def random_point(seed: int, n: int) -> tuple[tuple[float, ...], float]:
    rng = random.Random(seed)
    x = tuple(rng.uniform(-4.0, 4.0) for _ in range(n))
    return x, rng.uniform(-4.0, 4.0)


def _validate_seed(spec_data: dict, seed: int, cfg: RootConfig, ocfg: OracleConfig):
    from .oracle import brute_force_prox

    pair, gamma = build_problem(spec_data)
    x, y = random_point(seed, pair.n)
    res = prox_perspective(pair, gamma, x, y, cfg)
    op, oq = brute_force_prox(
        lambda u, v: perspective_eval(pair, u, v), gamma, x, y, ocfg
    )
    dev = math.sqrt(
        sum((a - b) ** 2 for a, b in zip(res.p, op)) + (res.q - oq) ** 2
    )
    return seed, dev, res.certificate_gap, res.root_iterations


def cmd_validate(args) -> int:
    from .oracle import OracleConfig, OracleError

    spec_data = _resolve(args, "spec")
    build_problem(spec_data)  # reject a bad spec before any seed or worker runs
    if args.seeds < 1:
        raise InputError(f"--seeds must be at least 1, got {args.seeds}")
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1, got {args.workers}")
    cfg, ocfg = parse_tol_overrides(args.tol)
    if ocfg is None:
        ocfg = OracleConfig()
    seeds = list(range(args.seeds))
    # a process per seed at most: under fork the pool starts all of its
    # workers at the first submit, whether or not they get a seed
    n = len(seeds)
    workers = min(args.workers, n)
    try:
        if workers > 1:
            # imported here: the pool costs every other command its start-up time
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_validate_seed, [spec_data] * n, seeds,
                                        [cfg] * n, [ocfg] * n))
        else:
            results = [_validate_seed(spec_data, s, cfg, ocfg) for s in seeds]
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    results.sort(key=lambda row: row[0])
    devs = [row[1] for row in results]
    gaps = [row[2] for row in results]
    report = {
        "seeds": len(seeds),
        "max_deviation": max(devs),
        "mean_deviation": sum(devs) / len(devs),
        "worst_certificate_gap": max(gaps),
        "max_iterations": max(row[3] for row in results),
        "deviation_limit": DEVIATION_LIMIT,
    }
    _emit(args, json.dumps(_jsonable(report), sort_keys=True) + "\n")
    return EXIT_OK if report["max_deviation"] <= DEVIATION_LIMIT else EXIT_VALIDATION


def cmd_demo_concomitant(args) -> int:
    from .splitting import DemoSpec, run_concomitant_demo

    pair, _ = build_problem(_resolve(args, "spec"))
    demo_data = _load_json_arg(args.demo)
    if demo_data is None and args._stdin_doc is not None:
        # the stdin document that gave the spec may also hold the demo
        demo_data = args._stdin_doc.get("demo")
    if demo_data is None:
        demo_data = {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]}
    try:
        spec = DemoSpec.from_dict(demo_data)
    except (KeyError, TypeError) as exc:
        raise InputError(f"demo needs an object with 'a' (rows) and 'b' (array): {exc}") from exc
    if not isinstance(pair.base, HuberBase) or not isinstance(pair.scaling, SqrtScaling):
        raise InputError("the concomitant demo runs on the huber/sqrt pair")
    cfg, _ = parse_tol_overrides(args.tol)
    trace = run_concomitant_demo(pair, spec, cfg)
    lines = ["iter,objective,step_norm"]
    lines += [f"{it},{obj!r},{step!r}" for it, obj, step in trace.rows]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persprox",
        description="Proximity operators of perspective functions with nonlinear scaling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=True):
        p.add_argument("--spec", help="problem spec: inline JSON or a file path")
        if point:
            p.add_argument("--point", help="evaluation point: inline JSON or a file path")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--tol", action="append", metavar="KEY=VALUE",
            help="override a solver or oracle tolerance (repeatable)",
        )

    common(sub.add_parser("eval", help="evaluate the perspective and its conjugate"))
    common(sub.add_parser("prox", help="compute the perspective prox"))
    common(sub.add_parser("trace-root", help="CSV trace of the multiplier root-find"))

    v = sub.add_parser("validate", help="compare the solver against the brute-force oracle")
    common(v, point=False)
    v.add_argument("--seeds", type=int, default=200)
    v.add_argument("--workers", type=int, default=1)

    d = sub.add_parser("demo-concomitant", help="forward-backward location/scale fit")
    common(d, point=False)
    d.add_argument("--demo", help="demo problem: inline JSON or a file path")
    return parser


_HANDLERS = {
    "eval": cmd_eval,
    "prox": cmd_prox,
    "trace-root": cmd_trace_root,
    "validate": cmd_validate,
    "demo-concomitant": cmd_demo_concomitant,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._stdin_doc = None
    try:
        return _HANDLERS[args.command](args)
    # a StepSizeError of the demo is a ValueError
    except (InputError, PairMismatch, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (RootFindError, ArithmeticError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
