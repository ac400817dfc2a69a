import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

HUBER_SPEC = '{"base":{"name":"huber","alpha":1},"scaling":{"name":"sqrt","beta":1},"gamma":1,"dims":[2,1]}'
POWER_SPEC = '{"base":{"name":"power","p":2},"scaling":{"name":"root","q":0.5,"interval":[0,4]},"gamma":1,"dims":[2,1]}'
ABS_SPEC = '{"base":{"name":"abs"},"scaling":{"name":"root","q":0.5,"upper":1},"gamma":1,"dims":[2,1]}'


def run_cli(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "persprox", *args],
        capture_output=True, text=True, input=stdin, timeout=timeout,
    )


def test_eval_huber_value():
    out = run_cli("eval", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}')
    assert out.returncode == 0
    record = json.loads(out.stdout)
    assert record["value"] == pytest.approx(3.0)


def test_eval_power_root_value():
    out = run_cli("eval", "--spec", POWER_SPEC, "--point", '{"x":[2,0],"y":4}')
    assert out.returncode == 0
    record = json.loads(out.stdout)
    assert record["value"] == pytest.approx(1.0)
    assert record["preperspective_value"] == pytest.approx(1.0)


def test_eval_infeasible_point_serializes_inf():
    out = run_cli("eval", "--spec", POWER_SPEC, "--point", '{"x":[1,0],"y":-2}')
    record = json.loads(out.stdout)
    assert record["value"] == "+inf"
    assert record["preperspective_value"] == "+inf"


def test_prox_record_fields_and_roundtrip():
    out = run_cli("prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}')
    assert out.returncode == 0
    line = out.stdout
    record = json.loads(line)
    assert record["p"] == [2.0, 0.0]
    assert record["q"] == 0.0
    assert record["case_label"] == "Xi2"
    assert record["iterations"] == 0
    # bit-for-bit JSON round-trip for finite values
    assert json.dumps(record, sort_keys=True) + "\n" == line


def test_prox_eta_value():
    out = run_cli("prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}')
    record = json.loads(out.stdout)
    assert record["case_label"] == "Xi4"
    assert abs(record["eta"] - 0.375) <= 1e-8
    assert record["certificate_gap"] <= 1e-8


BAD_SPECS = [
    ('{"base":{"name":"nope"},"scaling":{"name":"sqrt"}}', "unknown base function 'nope'"),
    ('{"base":{},"scaling":{"name":"sqrt"}}', "unknown base function None"),
    ('{"base":{"name":"power"},"scaling":{"name":"root","q":0.5}}', "missing parameter 'p'"),
    ('{"base":{"name":"power","p":3},"scaling":{"name":"root"}}', "missing parameter 'q'"),
    ('{"base":{"name":"power","p":[3]},"scaling":{"name":"root","q":0.5}}',
     "parameter 'p' must be a number, got [3]"),
    ('{"base":{"name":"power","p":3},"scaling":{"name":"root","q":0.5,"interval":4}}',
     "parameter 'interval' must be [0, upper], got 4"),
    ('{"base":{"name":"huber"},"scaling":{"name":"sqrt"},"dims":5}', "dims must be two integers"),
    ('{"base":{"name":"huber"},"scaling":{"name":"sqrt"},"dims":[2.7,1]}', "dims must be two integers"),
    ('{"base":{"name":"huber"},"scaling":{"name":"sqrt"},"gamma":[1]}', "gamma must be a number"),
]


def test_bad_spec_exit_code():
    # the missing and non-numeric parameters exited 1 with a traceback
    # (KeyError, TypeError), and dims [2.7, 1] ran with n = 2
    for spec, message in BAD_SPECS:
        out = run_cli("prox", "--spec", spec, "--point", '{"x":[1],"y":0}')
        assert out.returncode == 2, spec
        assert message in out.stderr, (spec, out.stderr)
        assert "Traceback" not in out.stderr, spec


@pytest.mark.parametrize("spec", [
    '{"base":{"name":"huber","alpha":Infinity},"scaling":{"name":"sqrt"},"dims":[2,1]}',
    '{"base":{"name":"huber"},"scaling":{"name":"sqrt","beta":"inf"},"dims":[2,1]}',
    '{"base":{"name":"huber","alpha":1e160},"scaling":{"name":"sqrt"},"dims":[2,1]}',
], ids=["huber-alpha-inf", "sqrt-beta-inf", "huber-alpha-square-overflows"])
def test_non_finite_catalog_parameter_is_bad_input(spec):
    # all three pairs were built, then every prox raised RootFindError (exit 3)
    out = run_cli("prox", "--spec", spec, "--point", '{"x":[1,0],"y":0}')
    assert out.returncode == 2
    assert "finite" in out.stderr


@pytest.mark.parametrize("argv, stdin, message", [
    (["prox"], "5", "the stdin document must be a JSON object"),
    (["eval"], "[1, 2]", "the stdin document must be a JSON object"),
    (["demo-concomitant", "--spec", HUBER_SPEC, "--demo", '{"b":[1,1]}'], None, "demo needs"),
    (["demo-concomitant", "--spec", HUBER_SPEC, "--demo", "[1,2]"], None, "demo needs"),
    (["prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":null}'], None, "point needs"),
    (["prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":[null]}'], None, "point needs"),
], ids=["stdin-number", "stdin-array", "demo-without-a", "demo-array", "y-null", "y-list-null"])
def test_malformed_document_is_bad_input(capsys, monkeypatch, argv, stdin, message):
    from persprox.cli import main

    # each of these died with a traceback (TypeError, KeyError) and exit 1,
    # the code of a validation failure
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["prox", "--spec", "PATH", "--point", '{"x":[3,0],"y":0}'],
    ["prox", "--spec", HUBER_SPEC, "--point", "PATH"],
    ["demo-concomitant", "--spec", HUBER_SPEC, "--demo", "PATH"],
], ids=["spec", "point", "demo"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_file_is_bad_input(capsys, tmp_path, argv, kind):
    from persprox.cli import main

    # a missing file or a directory died with a traceback (FileNotFoundError,
    # IsADirectoryError) and exit 1, the code of a validation failure
    path = str(tmp_path / "absent.json") if kind == "missing" else str(tmp_path)
    assert main([path if a == "PATH" else a for a in argv]) == 2
    assert f"cannot read {path!r}" in capsys.readouterr().err


def test_out_into_a_missing_directory_is_bad_input(capsys, tmp_path):
    from persprox.cli import main

    target = str(tmp_path / "absent" / "result.json")
    assert main(["prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}', "--out", target]) == 2
    assert f"cannot write {target!r}" in capsys.readouterr().err


def test_malformed_json_exit_code():
    out = run_cli("eval", "--spec", "{not json", "--point", '{"x":[1],"y":0}')
    assert out.returncode == 2


def test_solver_failure_exit_code():
    # an over-tight iteration budget forces a root-find failure on a
    # root-region input
    out = run_cli(
        "prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0.3}',
        "--tol", "max_iter=2", "--tol", "eta_tol=1e-15", "--tol", "residual_tol=1e-15",
    )
    assert out.returncode == 3
    assert "solver failure" in out.stderr


def test_arithmetic_error_is_a_solver_failure():
    # power(1.05) raises OverflowError at this scale; the CLI must report it
    # as a solver failure, not die with a traceback and the validation code
    spec = ('{"base":{"name":"power","p":1.05},"scaling":{"name":"root","q":0.5},'
            '"gamma":1.0587494316948148e-08,"dims":[2,1]}')
    point = '{"x":[-170330633889.8174,-12697009397.661478],"y":375435283154.65405}'
    out = run_cli("prox", "--spec", spec, "--point", point)
    assert out.returncode == 3
    assert "solver failure" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("spec, point", [
    (HUBER_SPEC, '{"x":[1,0],"y":"+inf"}'),
    (HUBER_SPEC, '{"x":[1,0],"y":Infinity}'),
    (POWER_SPEC, '{"x":[1,0],"y":"-inf"}'),
    (HUBER_SPEC.replace('"gamma":1', '"gamma":"+inf"'), '{"x":[1,0],"y":0}'),
    (HUBER_SPEC.replace('"gamma":1', '"gamma":NaN'), '{"x":[1,0],"y":0}'),
], ids=["y+inf", "yInfinity", "y-inf", "gamma+inf", "gamma-NaN"])
def test_non_finite_input_is_bad_input(spec, point):
    out = run_cli("prox", "--spec", spec, "--point", point)
    assert out.returncode == 2
    assert "finite" in out.stderr


@pytest.mark.parametrize("key", [
    "eta_tol", "residual_tol", "max_iter", "classify_tol",
    "radius_factor", "refine_tol", "max_refine_iters",
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_bad_input(capsys, key, value):
    from persprox.cli import main

    # before the check, classify_tol=nan/inf printed a wrong label and
    # eta_tol=nan exited as a solver failure; classify_tol is no longer a
    # setting (region tests use the one slack rule of core.negligible)
    argv = ["prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}', "--tol", f"{key}={value}"]
    assert main(argv) == 2
    expected = "unknown tolerance 'classify_tol'" if key == "classify_tol" else value
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--tol", "refine_tol=nan"], "refine_tol must be positive and finite, got nan"),
    (["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["--seeds", "-3"], "--seeds must be at least 1, got -3"),
    (["--workers", "0"], "--workers must be at least 1, got 0"),
    (["--workers", "-5"], "--workers must be at least 1, got -5"),
], ids=["refine_tol-nan", "seeds-0", "seeds-negative", "workers-0", "workers-negative"])
def test_validate_bad_settings_are_bad_input(capsys, argv, message):
    from persprox.cli import main

    # refine_tol=nan used to exit 1 with a deviation of 0.216, --seeds 0 to
    # die on an empty max(), --workers 0 to run serially without a word
    assert main(["validate", "--spec", HUBER_SPEC, "--seeds", "2", *argv]) == 2
    assert message in capsys.readouterr().err


def test_removed_oracle_grid_knob_is_unknown(capsys):
    from persprox.cli import main

    argv = ["prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}', "--tol", "coarse_points_per_dim=21"]
    assert main(argv) == 2
    assert "unknown tolerance 'coarse_points_per_dim'" in capsys.readouterr().err


def test_validate_any_base_dimension():
    # the oracle searches the plane of x's ray and the scale axis, so n = 5
    # costs what n = 1 does
    out = run_cli("validate", "--spec", POWER_SPEC.replace("[2,1]", "[5,1]"), "--seeds", "8")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["max_deviation"] <= 5e-4


def test_validate_refine_tol_below_float_spacing_terminates():
    # the golden-section refinement used to loop forever once the probe
    # rounded onto a bracket end
    spec = HUBER_SPEC.replace("[2,1]", "[1,1]")
    out = run_cli("validate", "--spec", spec, "--seeds", "1", "--tol", "refine_tol=1e-17", timeout=30)
    assert out.returncode in (0, 4), out.stderr


def test_validate_refinement_exhaustion_is_oracle_failure():
    # an unconverged oracle point used to be reported as a solver deviation
    # (exit 1, max_deviation 0.030)
    out = run_cli("validate", "--spec", HUBER_SPEC, "--seeds", "20", "--tol", "max_refine_iters=1")
    assert out.returncode == 4
    assert "oracle failure" in out.stderr


def test_prox_process_imports_no_numpy_or_process_pool():
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from persprox.cli import main; "
        f"rc = main(['prox', '--spec', {HUBER_SPEC!r}, '--point', '{{\"x\":[1,0],\"y\":0}}']); "
        "heavy = ('numpy', 'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect'); "
        "print([m for m in heavy if m in sys.modules], file=sys.stderr); sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["case_label"] == "Xi4"
    assert out.stderr.strip() == "[]"


@pytest.mark.parametrize("command", [
    ["prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}'],
    ["prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}', "--tol", "eta_tol=1e-13"],
    ["eval", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}'],
    ["trace-root", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}'],
], ids=["prox", "prox-tol", "eval", "trace-root"])
def test_point_commands_load_neither_oracle_nor_demo(command):
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from persprox.cli import main; "
        f"rc = main({command!r}); "
        "lazy = ('persprox.oracle', 'persprox.splitting'); "
        "print([m for m in lazy if m in sys.modules], file=sys.stderr); sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip() == "[]"


def test_trace_root_csv():
    out = run_cli("trace-root", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0.2}')
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "iter,eta_lo,eta_hi,eta_mid,T_mid"
    assert len(lines) >= 2
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    widths = [hi - lo for _, lo, hi, _, _ in rows]
    assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))
    assert all(lo <= mid <= hi for _, lo, hi, mid, _ in rows)
    assert abs(rows[-1][4]) <= 1e-10


def test_trace_root_power_root_region():
    out = run_cli("trace-root", "--spec", POWER_SPEC, "--point", '{"x":[6,0],"y":3.5}')
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "iter,eta_lo,eta_hi,eta_mid,T_mid"
    last = lines[-1].split(",")
    assert abs(float(last[4])) <= 1e-10


def test_trace_root_closed_form_message():
    out = run_cli("trace-root", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}')
    assert out.returncode == 0
    assert out.stdout.strip() == "closed-form case, no root trace"
    out = run_cli("trace-root", "--spec", POWER_SPEC, "--point", '{"x":[0,0],"y":-1}')
    assert out.returncode == 0
    assert "no root trace" in out.stdout


def test_validate_small_run_and_determinism():
    args = ("validate", "--spec", ABS_SPEC, "--seeds", "6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["max_deviation"] <= 5e-4
    assert report["seeds"] == 6


def test_validate_worker_pool_matches_serial():
    args = ("validate", "--spec", HUBER_SPEC, "--seeds", "4")
    serial = run_cli(*args)
    pooled = run_cli(*args, "--workers", "2")
    assert serial.returncode == pooled.returncode == 0
    assert serial.stdout == pooled.stdout


@pytest.mark.parametrize("workers, seeds, started", [
    (64, 3, [3]),
    (2, 5, [2]),
    (4, 1, []),
], ids=["capped-at-seeds", "below-seeds", "one-seed-runs-serially"])
def test_validate_starts_at_most_one_worker_per_seed(capsys, monkeypatch, workers, seeds, started):
    # under fork a ProcessPoolExecutor starts max_workers processes at its
    # first submit; a stand-in records the size asked for and maps serially,
    # so no process is started here
    import concurrent.futures

    from persprox.cli import main

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["validate", "--spec", ABS_SPEC, "--seeds", str(seeds)]
    assert main([*args, "--workers", str(workers)]) == 0
    pooled = capsys.readouterr().out
    assert sizes == started
    assert main(args) == 0
    assert capsys.readouterr().out == pooled


def test_demo_requires_huber_sqrt_pair():
    out = run_cli("demo-concomitant", "--spec", POWER_SPEC)
    assert out.returncode == 2


def test_demo_step_size_violation():
    out = run_cli(
        "demo-concomitant", "--spec", HUBER_SPEC,
        "--demo", '{"a":[[1,0],[0,1]],"b":[1,1],"kappa":1.0,"tau":3.0,"iterations":5}',
    )
    assert out.returncode == 2


def test_demo_csv_output():
    out = run_cli(
        "demo-concomitant", "--spec", HUBER_SPEC,
        "--demo", '{"a":[[1,0],[0,1]],"b":[1,1],"tau":0.5,"iterations":50}',
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "iter,objective,step_norm"
    assert len(lines) == 52
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(objs[1:], objs[2:]))


def test_validate_oracle_failure_exit_code(tmp_path):
    # a scale interval thinner than any oracle grid makes every sample
    # infeasible: the oracle must fail loudly with its own exit code
    spec = '{"base":{"name":"abs"},"scaling":{"name":"root","q":0.5,"upper":1e-9},"gamma":1,"dims":[1,1]}'
    out = run_cli("validate", "--spec", spec, "--seeds", "1")
    assert out.returncode == 4
    assert "oracle failure" in out.stderr


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "result.json"
    out = run_cli(
        "prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}',
        "--out", str(target),
    )
    assert out.returncode == 0
    assert out.stdout == ""
    record = json.loads(target.read_text())
    assert record["case_label"] == "Xi2"


def test_stdin_document():
    doc = json.dumps({"spec": json.loads(ABS_SPEC), "point": {"x": [2, 0], "y": 2}})
    out = run_cli("prox", stdin=doc)
    assert out.returncode == 0
    record = json.loads(out.stdout)
    assert record["p"] == [1.0, 0.0]
    assert record["q"] == 1.0
    assert record["case_label"] == "CaseII"


@pytest.mark.parametrize("demo, rows", [
    ({"a": [[1, 0], [0, 1]], "b": [1, 1], "iterations": 3}, 4),
    (None, 501),
], ids=["stdin-demo", "built-in"])
def test_demo_from_the_stdin_document(capsys, monkeypatch, demo, rows):
    from persprox.cli import main

    # the demo key of the stdin document was ignored: 500 iterations ran
    doc = {"spec": json.loads(HUBER_SPEC)}
    if demo is not None:
        doc["demo"] = demo
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["demo-concomitant"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + rows


def test_demo_with_a_spec_flag_never_reads_stdin(capsys, monkeypatch):
    from persprox.cli import main

    class Unreadable(io.StringIO):
        def read(self, *args):
            raise AssertionError("stdin read")

    monkeypatch.setattr(sys, "stdin", Unreadable())
    assert main(["demo-concomitant", "--spec", HUBER_SPEC]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 502
