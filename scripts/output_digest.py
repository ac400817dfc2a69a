#!/usr/bin/env python3
"""Digests of the prox outputs and certificates of the benchmark pools and the probe.

Runs ``prox_perspective`` on the seed-0 and seed-1 pools of root_band,
closed_band and wide_scale and on robustness-probe seeds 0-4 (the inputs
of ``perfbench/workloads.py``, imported read-only).  Each call feeds two
SHA-256 digests: the solver digest hashes the repr of ``(p, q, eta,
label, root_iterations)``, the certificate digest the repr of
``certificate_gap``; a call that raises feeds both the repr of
``(exception type, message)``.  Prints one line per input set with its
call count, error count, the count of outputs whose gap is not finite or
exceeds the benchmark bound ``1e-8 * (1 + ||(x, y)||^2)``, the count of
calls whose scaling-identity gap exceeds 1e-6 (``identity_gap`` of
``tests/reference.py``, whose rescaling laws cover every pair but abs; a
call where either side raises is not counted), the count of root-region
calls the entry rule resolved (those that built no residual: the
multiplier's bracket had collapsed at entry, see ``solve_eta_case_i``),
and the two digests, then the totals, and per probe pair the mean and
maximum number of ``T`` evaluations of its root-region calls over the
probe seeds (counted by wrapping ``make_residual_case_i/iii`` and the
residuals they return) and how many of them the entry rule resolved, and
per input set how many outputs have a dual point the certificate pulls in,
by label: ``||x*||``, ``x* = (x - p)/gamma`` as ``certificate_gap`` forms
it, outside the domain of the base's conjugate profile, as when rounding
leaves ``x*`` an ulp outside the ball.  Two
checkouts whose solver outputs are bit-identical print the same solver
digests, whatever their certificates:

    python3 scripts/output_digest.py

Two modes compare checkouts whose outputs differ.  ``--dump PATH`` also
stores every call's ``(label, p, q, eta, root_iterations)`` and the
number of ``T`` evaluations it made as JSON.  ``--against PATH``
reads such a file, made by another checkout, and prints per input set the
label changes, the number of changed outputs ``(label, p, q, eta,
root_iterations)``, the largest ``eta`` difference (also as a share of the
most two searches that meet the default stop rules can differ by, the sum
of their ``stop_distance``: ``eta_tol`` plus six rounding units of
``eta``, see ``stop_distance``), the largest ``(p, q)``
difference in ulps of ``||(x, y)||``, and the mean and maximum ``T``
evaluations of root-region calls per (pair, label), this checkout's beside
the stored ones:

    (cd parent && python3 scripts/output_digest.py --dump /tmp/parent.json)
    python3 scripts/output_digest.py --against /tmp/parent.json
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import checks
import workloads
import persprox.solver as solver
from persprox import prox_perspective
from persprox.core import EPS

POOL_SEEDS = (0, 1)
PROBE_SEEDS = range(5)
ROOT_LABELS = ("Omega4", "Xi4")
IDENTITY_LIMIT = 1e-6
ETA_TOL = solver.DEFAULT_CONFIG.eta_tol


def stop_distance(eta: float) -> float:
    """The most a search that meets the default stop rules at ``eta`` can
    lie from the root: the width stop leaves the ends' bounds on the root
    (minus their inner values) up to ``eta_tol + 4 eps |eta|`` apart, and
    the reported estimate carries two more rounding units; the residual
    stop (``|T|``, or ``|T|`` predicted after the Newton step the search
    reports, at most ``min(residual_tol, eta_tol / 2)``; ``T' >= 1``) is
    tighter.  Two searches of one root differ by at most the sum of their
    distances.  Checkouts whose curves differ by rounding (a radius ``r =
    ||x|| / gamma`` formed another way, say) search different roots, so
    their share of that sum can exceed 1: 2.40 on probe seed 4 between
    checkouts that formed ``r`` as ``||x/gamma||`` and as ``||x|| / gamma``."""
    return ETA_TOL + 6.0 * EPS * abs(eta)


def input_sets():
    """``(name, pairs, calls)`` for every pool and probe seed, in a fixed order."""
    for workload in workloads.PROX:
        for seed in POOL_SEEDS:
            pairs, calls = workloads.setup(workload, seed)
            yield f"{workload} seed {seed}", pairs, calls
    probe_pairs = tuple(workloads.build_pair(s) for s in workloads.ROBUSTNESS_SPECS)
    for seed in PROBE_SEEDS:
        yield f"probe seed {seed}", probe_pairs, workloads.probe_calls(seed)


class EvalCounter:
    """Counts the residuals a solver module (this checkout's where not
    given) builds and their ``T`` evaluations."""

    def __init__(self, module=solver):
        self.module = module
        self.count = self.built = 0
        self.saved = []

    def install(self):
        for name in ("make_residual_case_i", "make_residual_case_iii"):
            make = getattr(self.module, name)
            self.saved.append((name, make))
            setattr(self.module, name, self._wrap(make))

    def uninstall(self):
        while self.saved:
            setattr(self.module, *self.saved.pop())

    def _wrap(self, make):
        def counted_make(*args, **kwargs):
            self.built += 1
            T = make(*args, **kwargs)

            def counted_T(eta):
                self.count += 1
                return T(eta)

            return counted_T

        return counted_make


def pulled_in(pair, call, r) -> bool:
    """Whether the dual point of output ``r`` lies outside the domain of
    the base's conjugate profile, where the certificate pulls it in."""
    x, _ = pair.check_point(call.x, call.y)
    inv = 1.0 / call.gamma
    rs = math.hypot(*[(a - b) * inv for a, b in zip(x, r.p)])
    return pair.base.conj.phi1d.eval(rs) == math.inf


def outcome(pair, call):
    """The reprs of one call's solver output and gap, whether the gap is
    within the bound (None when the call raised), and the output itself."""
    try:
        r = prox_perspective(pair, call.gamma, call.x, call.y)
    except Exception as exc:
        text = repr((type(exc).__name__, str(exc)))
        return text, text, None, None
    size = sum(v * v for v in call.x) + call.y * call.y
    ok = math.isfinite(r.certificate_gap) and r.certificate_gap <= checks.GAP_SCALE * (1.0 + size)
    return repr((r.p, r.q, r.eta, r.label.value, r.root_iterations)), repr(r.certificate_gap), ok, r


def run(counter=None):
    """Prints the digests and the outputs whose dual point the certificate
    pulls in; returns ``{set name: [record per call]}``, a record being
    ``[label, p, q, eta, root_iterations, T evaluations, residuals built]``
    or ``["error", type name]``."""
    # imported here, not above: scripts/ab_inprocess.py imports this module
    # for EvalCounter with another checkout's package loaded as persprox
    from reference import identity_gap

    totals = hashlib.sha256(), hashlib.sha256()
    total_calls = total_errors = total_uncertified = total_identity = total_entry = 0
    records, outside = {}, {}
    for name, pairs, calls in input_sets():
        digests = hashlib.sha256(), hashlib.sha256()
        errors = uncertified = identity = entry = 0
        rows = records[name] = []
        by_label = outside[name] = {}
        for call in calls:
            evals, built = (counter.count, counter.built) if counter else (0, 0)
            solver_text, gap_text, ok, r = outcome(pairs[call.pair], call)
            if counter:
                evals, built = counter.count - evals, counter.built - built
            if r is not None and pulled_in(pairs[call.pair], call, r):
                by_label[r.label.value] = by_label.get(r.label.value, 0) + 1
            if r is None:
                rows.append(["error", solver_text])
            else:
                rows.append([r.label.value, list(r.p), r.q, r.eta, r.root_iterations, evals, built])
                entry += r.label.value in ROOT_LABELS and not built
            errors += ok is None
            uncertified += ok is False
            if r is not None:
                gap = identity_gap(pairs[call.pair], call.gamma, call.x, call.y, r)
                identity += gap is not None and gap > IDENTITY_LIMIT
            for digest, total, text in zip(digests, totals, (solver_text, gap_text)):
                line = (text + "\n").encode()
                digest.update(line)
                total.update(line)
        total_calls += len(calls)
        total_errors += errors
        total_uncertified += uncertified
        total_identity += identity
        total_entry += entry
        print(f"{name:<20} calls {len(calls):>5}  errors {errors:>3}  uncertified {uncertified:>4}"
              f"  identity {identity:>4}  entry {entry:>4}"
              f"  solver {digests[0].hexdigest()[:16]}  gaps {digests[1].hexdigest()[:16]}")
    print(f"{'total':<20} calls {total_calls:>5}  errors {total_errors:>3}"
          f"  uncertified {total_uncertified:>4}  identity {total_identity:>4}  entry {total_entry:>4}"
          f"  solver {totals[0].hexdigest()[:16]}  gaps {totals[1].hexdigest()[:16]}")
    probe, probe_entry = {}, {}
    for name, _, calls in input_sets():
        if name.startswith("probe"):
            for key, evals in _eval_stats(records[name], calls).items():
                probe.setdefault(key[0], []).extend(evals)
            for row, call in zip(records[name], calls):
                if row[0] in ROOT_LABELS and not row[6]:
                    probe_entry[call.pair] = probe_entry.get(call.pair, 0) + 1
    for pair in sorted(probe):
        evals = probe[pair]
        print(f"probe pair {pair} root-region T evaluations: mean {sum(evals) / len(evals):.2f}"
              f"  max {max(evals)}  ({len(evals)} calls, {probe_entry.get(pair, 0)} resolved at entry)")
    for name, by_label in outside.items():
        labels = ", ".join(f"{label} {n}" for label, n in sorted(by_label.items()))
        print(f"{name:<20} dual points pulled in {sum(by_label.values()):>4}"
              f"{f'  ({labels})' if labels else ''}")
    return records


def _eval_stats(rows, calls):
    """{(pair, label): [T evaluations]} of the root-region calls."""
    out = {}
    for row, call in zip(rows, calls):
        if row[0] in ROOT_LABELS:
            out.setdefault((call.pair, row[0]), []).append(row[5])
    return out


def compare(stored, records):
    """Prints, per input set, how this checkout's outputs differ from ``stored``."""
    worst_ulps = worst_eta = worst_share = 0.0
    total_changes = total_moved = 0
    for name, pairs, calls in input_sets():
        old, new = stored[name], records[name]
        changes = raised = moved = 0
        set_ulps = set_eta = set_share = 0.0
        for a, b, call in zip(old, new, calls):
            if a[0] == "error" or b[0] == "error":
                raised += a[0] != b[0]
                continue
            changes += a[0] != b[0]
            moved += a[:5] != b[:5]
            ulp = math.ulp(math.hypot(*call.x, call.y))
            diff = math.hypot(*(u - v for u, v in zip(a[1], b[1])), a[2] - b[2])
            set_ulps = max(set_ulps, diff / ulp)
            d_eta = abs(a[3] - b[3])
            set_eta = max(set_eta, d_eta)
            set_share = max(set_share, d_eta / (stop_distance(a[3]) + stop_distance(b[3])))
        worst_ulps = max(worst_ulps, set_ulps)
        worst_eta = max(worst_eta, set_eta)
        worst_share = max(worst_share, set_share)
        total_changes += changes
        total_moved += moved
        print(f"{name:<20} label changes {changes:>3}  error changes {raised:>3}"
              f"  changed outputs {moved:>4}  max |d eta| {set_eta:.2g} ({set_share:.2f} of tol)"
              f"  max (p, q) difference {set_ulps:.3g} ulps of |(x, y)|")
        before, after = _eval_stats(old, calls), _eval_stats(new, calls)
        for key in sorted(set(before) | set(after)):
            b_evals, a_evals = before.get(key, []), after.get(key, [])
            cells = [f"{sum(v) / len(v):5.2f} mean {max(v):3d} max ({len(v)})" if v else "none"
                     for v in (b_evals, a_evals)]
            print(f"    pair {key[0]} {key[1]:<7} T evaluations  stored {cells[0]}"
                  f"  -> this checkout {cells[1]}")
    print(f"{'total':<20} label changes {total_changes:>3}"
          f"  changed outputs {total_moved:>4}  max |d eta| {worst_eta:.2g} ({worst_share:.2f} of tol)"
          f"  max (p, q) difference {worst_ulps:.3g} ulps of |(x, y)|")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="PATH", help="store every call's output as JSON")
    mode.add_argument("--against", metavar="PATH", help="compare with a stored --dump file")
    args = parser.parse_args(argv)
    counter = EvalCounter()
    counter.install()
    try:
        records = run(counter)
    finally:
        counter.uninstall()
    if args.dump:
        Path(args.dump).write_text(json.dumps(records), encoding="utf-8")
    elif args.against:
        compare(json.loads(Path(args.against).read_text(encoding="utf-8")), records)


if __name__ == "__main__":
    main()
