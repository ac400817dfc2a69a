"""Command-line front end.

Subcommands: ``eval``, ``prox``, ``trace-root``, ``validate``,
``demo-concomitant``.  Problem and point descriptions are JSON, inline or
from a file, or a single document on standard input with keys ``spec``,
``point``, ``demo`` (read only when ``--spec`` or ``--point`` is missing;
``demo`` is taken from it when it was read).  Infinite values serialize
as the strings "+inf" / "-inf".  Exit codes: 0 ok, 1 validation failure,
2 bad input (a file that cannot be read or written too), 3 solver
failure.

``validate`` judges each output by its Fenchel certificate: the prox
objective is 1-strongly convex, so an output with gap ``G`` lies within
``sqrt(2 * gamma * G)`` of the true prox.  The splitting demo loads inside
the command that uses it, so ``eval``, ``prox`` and ``trace-root`` never
import it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .catalog import HuberBase, SqrtScaling, _real, make_base, make_scaling
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

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER = 3

_ROOT_KEYS = {"eta_tol": float, "residual_tol": float, "max_iter": int}

DISTANCE_LIMIT = 5e-4


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
        gamma = _real(data.get("gamma", 1.0))
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
        x = data["x"]
        if not isinstance(x, list):  # a JSON string would be read by character
            raise TypeError(f"'x' must be an array, got {x!r}")
        x = tuple([_real(v) for v in x])
        y = data["y"]
        if isinstance(y, list):
            if len(y) != 1:
                raise InputError("the scale component must be a scalar")
            y = y[0]
        return x, _real(y)
    except (KeyError, TypeError) as exc:
        raise InputError(f"point needs 'x' (array) and 'y' (number): {exc}") from exc


def parse_tol_overrides(items) -> RootConfig:
    """Multiplier-search settings from ``KEY=VALUE`` items."""
    kwargs = {}
    for item in items or ():
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _ROOT_KEYS:
            raise InputError(f"unknown tolerance {key!r}")
        kwargs[key] = _ROOT_KEYS[key](raw)
    return RootConfig(**kwargs)


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
    cfg = parse_tol_overrides(args.tol)
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
    cfg = parse_tol_overrides(args.tol)
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
    import random  # validate alone draws points: a prox process does not load it
    rng = random.Random(seed)
    x = tuple(rng.uniform(-4.0, 4.0) for _ in range(n))
    return x, rng.uniform(-4.0, 4.0)


def cmd_validate(args) -> int:
    pair, gamma = build_problem(_resolve(args, "spec"))
    if args.seeds < 1:
        raise InputError(f"--seeds must be at least 1, got {args.seeds}")
    cfg = parse_tol_overrides(args.tol)
    gaps, labels, iterations = [], {}, 0
    for seed in range(args.seeds):
        x, y = random_point(seed, pair.n)
        res = prox_perspective(pair, gamma, x, y, cfg)
        gaps.append(res.certificate_gap)
        labels[res.label.value] = labels.get(res.label.value, 0) + 1
        iterations = max(iterations, res.root_iterations)
    # the bound grows with the gap, so the worst gap (NaN counts as the
    # worst) gives the largest bound
    worst_gap = max(gaps, key=lambda g: INF if math.isnan(g) else g)
    bound = math.sqrt(2.0 * gamma * max(worst_gap, 0.0))
    report = {
        "seeds": args.seeds,
        "max_distance_bound": bound,
        "worst_certificate_gap": worst_gap,
        "max_iterations": iterations,
        "distance_limit": DISTANCE_LIMIT,
        "labels": labels,
    }
    _emit(args, json.dumps(_jsonable(report), sort_keys=True) + "\n")
    # written so that a NaN or +inf bound fails
    return EXIT_VALIDATION if not bound <= DISTANCE_LIMIT else EXIT_OK


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
        raise InputError(f"demo needs 'a' (rows) and 'b' (array) of numbers: {exc}") from exc
    if not isinstance(pair.base, HuberBase) or not isinstance(pair.scaling, SqrtScaling):
        raise InputError("the concomitant demo runs on the huber/sqrt pair")
    cfg = parse_tol_overrides(args.tol)
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

    def common(p, point=True, tol=True):
        p.add_argument("--spec", help="problem spec: inline JSON or a file path")
        if point:
            p.add_argument("--point", help="evaluation point: inline JSON or a file path")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if tol:  # eval runs no multiplier search
            p.add_argument(
                "--tol", action="append", metavar="KEY=VALUE",
                help="override a multiplier-search tolerance (repeatable)",
            )

    common(sub.add_parser("eval", help="evaluate the perspective and its conjugate"), tol=False)
    common(sub.add_parser("prox", help="compute the perspective prox"))
    common(sub.add_parser("trace-root", help="CSV trace of the multiplier root-find"))

    v = sub.add_parser("validate", help="certify the prox on random inputs")
    common(v, point=False)
    v.add_argument("--seeds", type=int, default=200)

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
