"""Output checks and the stored reference outputs.

An outcome is what one prox call produced: ``("ok", label, p, q, eta,
gap)`` or ``("error", exception type name)``.  The certificate bound is
the acceptance suite's criterion 3: a finite Fenchel gap of at most
``1e-8 * (1 + ||(x, y)||^2)``.
"""

from __future__ import annotations

import json
import math
import os

from workloads import REFERENCE_SEED

GAP_SCALE = 1e-8
DEMO_STEP_TOL = 1e-4  # final step_norm of a 500-iteration demo fit
DEMO_RISE_TOL = 1e-12  # objective rise per step allowed for round-off, relative

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def outcome_of(prox, pair, call):
    """Run one prox call and describe what it produced.

    Any exception is an outcome to count, not a crash of the benchmark:
    the robustness probe of ``wide_scale --trace 1`` is built to find them.
    """
    try:
        res = prox(pair, call.gamma, call.x, call.y)
    except Exception as exc:  # recorded by type and counted against the call
        return ("error", type(exc).__name__)
    return ("ok", res.label.value, res.p, res.q, res.eta, res.certificate_gap)


def certified(call, outcome) -> bool:
    if outcome[0] != "ok":
        return False
    gap = outcome[5]
    size = sum(v * v for v in call.x) + call.y * call.y
    return math.isfinite(gap) and gap <= GAP_SCALE * (1.0 + size)


def label_of(outcome) -> str:
    return outcome[1] if outcome[0] == "ok" else "error:" + outcome[1]


def demo_trace_ok(rows) -> str | None:
    """None when a demo trace decreases its objective up to round-off and
    ends with a small step, else the reason it does not."""
    for (_, prev, _), (it, obj, _) in zip(rows, rows[1:]):
        if not obj <= prev + DEMO_RISE_TOL * (1.0 + abs(prev)):
            return f"objective rose at iteration {it}: {prev!r} -> {obj!r}"
    final_step = rows[-1][2]
    if not final_step < DEMO_STEP_TOL:
        return f"final step_norm {final_step!r} is not below {DEMO_STEP_TOL}"
    return None


def parse_demo_csv(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "iter,objective,step_norm":
        raise ValueError("demo output lacks its CSV header")
    rows = []
    for line in lines[1:]:
        it, obj, step = line.split(",")
        rows.append((int(it), float(obj), float(step)))
    return rows


# ---------------------------------------------------------------------------
# reference outputs for the committed seed


def reference_record(outcome):
    if outcome[0] != "ok":
        return ["error:" + outcome[1]]
    _, label, p, q, eta, _ = outcome
    return [label, list(p), q, eta]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int):
    """Stored records for ``workload``, or None when ``seed`` is not the
    committed reference seed or nothing is stored."""
    if seed != REFERENCE_SEED or not os.path.exists(reference_path(workload)):
        return None
    with open(reference_path(workload), encoding="utf-8") as fh:
        data = json.load(fh)
    return data["records"]


def write_reference(workload: str, records) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": REFERENCE_SEED, "records": records}, fh,
                  separators=(",", ":"))
        fh.write("\n")


def compare_to_reference(records, reference) -> dict:
    """Label changes and the largest relative drift of (p, q) against the
    reference, over the records both sides have."""
    changes, drift = 0, 0.0
    for new, ref in zip(records, reference):
        if new[0] != ref[0]:
            changes += 1
            continue
        if len(ref) == 1:
            continue
        pq_new, pq_ref = list(new[1]) + [new[2]], list(ref[1]) + [ref[2]]
        delta = math.sqrt(sum((a - b) ** 2 for a, b in zip(pq_new, pq_ref)))
        size = math.sqrt(sum(b * b for b in pq_ref))
        drift = max(drift, delta / size if size > 0.0 else delta)
    return {"compared": min(len(records), len(reference)), "label_changes": changes,
            "max_rel_drift": drift}
