"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from persprox import prox_perspective  # noqa: E402


def _outcomes(workload, seed, limit=None):
    pairs, calls = workloads.setup(workload, seed)
    calls = calls[:limit]
    return calls, [checks.outcome_of(prox_perspective, pairs[c.pair], c) for c in calls]


def test_generators_are_deterministic_per_seed():
    for workload in ("root_band", "closed_band", "wide_scale", "cli_prox"):
        assert workloads.make_calls(workload, 7) == workloads.make_calls(workload, 7)
        assert workloads.make_calls(workload, 7) != workloads.make_calls(workload, 8)
    assert workloads.make_demo_problems(7) == workloads.make_demo_problems(7)
    assert workloads.make_demo_problems(7) != workloads.make_demo_problems(8)
    assert workloads.make_calls("cli_prox", 7) != workloads.make_calls("root_band", 7)
    assert workloads.probe_calls(7) == workloads.probe_calls(7)
    assert workloads.probe_calls(7) != workloads.probe_calls(8)


def test_closed_band_geometry_gives_the_expected_labels():
    for seed in (0, 1):
        calls, outs = _outcomes("closed_band", seed)
        assert {c.group for c in calls} == {"CaseII", "Xi2", "Omega2"}
        for call, out in zip(calls, outs):
            assert checks.label_of(out) == call.group
            assert checks.certified(call, out)


def test_wide_scale_calls_are_all_certified():
    for seed in (0, 1):
        calls, outs = _outcomes("wide_scale", seed)
        for call, out in zip(calls, outs):
            assert checks.certified(call, out), (call, checks.label_of(out))


def test_root_band_lands_in_the_root_regions_about_77_percent():
    calls, outs = _outcomes("root_band", 0)
    share = sum(checks.label_of(o) in ("Omega4", "Xi4") for o in outs) / len(calls)
    assert 0.72 <= share <= 0.82


def test_traced_run_restores_every_shim_and_changes_no_output():
    before = tracing.shim_targets()
    probe_pairs = tuple(workloads.build_pair(s) for s in workloads.ROBUSTNESS_SPECS)
    for pairs, calls in (workloads.setup("root_band", 0), (probe_pairs, workloads.probe_calls(0))):
        result = tracing.run_traced_calls(0.0, pairs, calls[:120])
        assert result.problems == []
        assert result.attempted == 120
        assert result.tracer.stats[tracing.TOP].count == 120
        if pairs is probe_pairs:
            assert result.raised > 0  # shims were unwound by exceptions too
    after = tracing.shim_targets()
    assert len(before) == len(after)
    for (owner, attr, old), (_, _, new) in zip(before, after):
        assert new is old, f"{owner}.{attr} was not restored"


def test_traced_demo_matches_the_untraced_demo():
    pair = workloads.build_pair(workloads.DEMO_SPEC)
    result = tracing.run_traced_demos(pair, workloads.make_demo_problems(0)[:1])
    assert result.problems == []
    metrics = tracing.layer_metrics(result)
    assert metrics["splitting.demo.iter_us_p50"] > 0.0
    assert 0.0 < metrics["splitting.demo.prox_share"] <= 1.0


def test_layer_metrics_count_the_work_of_the_root_region():
    pairs, calls = workloads.setup("root_band", 0)
    metrics = tracing.layer_metrics(tracing.run_traced_calls(0.0, pairs, calls[:200]))
    assert 0.6 < metrics["solver.root_region_share"] < 0.95
    assert metrics["solver.T.evals_per_root"] > 10
    assert 0.0 < metrics["solver.T.useful_ratio"] <= 1.0
    assert metrics["perspective.check_point.calls_per_prox"] >= 5.0
    assert metrics["error_share"] == 0.0


def test_stored_reference_matches_current_outputs():
    for workload in workloads.WORKLOADS:
        reference = checks.load_reference(workload, workloads.REFERENCE_SEED)
        expected = min(workloads.POOL[workload], workloads.REFERENCE_CALLS)
        assert reference is not None and len(reference) == expected
        calls, outs = _outcomes(workload, workloads.REFERENCE_SEED, limit=200)
        report = checks.compare_to_reference([checks.reference_record(o) for o in outs], reference)
        assert report == {"compared": 200, "label_changes": 0, "max_rel_drift": 0.0}
    assert checks.load_reference("root_band", workloads.REFERENCE_SEED + 1) is None


def test_reference_comparison_reports_label_changes_and_drift():
    ref = [["Omega4", [1.0, 2.0], 3.0, 0.5], ["error:RootFindError"]]
    new = [["Omega4", [1.0, 2.0 + 1e-9], 3.0, 0.5], ["Xi4", [0.0, 0.0], 0.0, 0.0]]
    report = checks.compare_to_reference(new, ref)
    assert report["label_changes"] == 1
    assert math.isclose(report["max_rel_drift"], 1e-9 / math.sqrt(14.0), rel_tol=1e-6)


def test_demo_check_rejects_a_rising_objective_and_a_large_final_step():
    assert checks.demo_trace_ok([(0, 2.0, 0.0), (1, 1.5, 0.1), (2, 1.5, 1e-9)]) is None
    assert "rose" in checks.demo_trace_ok([(0, 2.0, 0.0), (1, 2.1, 0.1), (2, 2.0, 1e-9)])
    assert "step_norm" in checks.demo_trace_ok([(0, 2.0, 0.0), (1, 1.5, 0.1)])


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    faster = [b - 20.0 for b in base]
    assert compare.verdict(base, faster, True, 0.1)["verdict"] == "improved"
    assert compare.verdict(base, [b * 1.3 for b in base], True, 0.1)["verdict"] == "worse"
    assert compare.verdict(base, list(base), True, 0.1)["verdict"] == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, list(noisy), True, 0.1)["verdict"] == "unresolved"
    assert compare.verdict(base, faster[:5], True, 0.1)["verdict"] != "improved"
