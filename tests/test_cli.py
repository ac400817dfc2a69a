import io
import json
import math
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


@pytest.mark.parametrize("spec", [
    '{"base":{"name":"power","p":2},"scaling":{"name":"identity-interval"},"dims":[2,1]}',
    '{"base":{"name":"power","p":1.5},"scaling":{"name":"root","q":0.5},"dims":[2,1]}',
    '{"base":{"name":"huber","alpha":1},"scaling":{"name":"sqrt","beta":1},"dims":[2,1]}',
], ids=["power2-identity", "power1.5-root0.5", "huber-sqrt"])
def test_eval_value_beyond_the_largest_double_is_inf_on_every_base(spec, capsys):
    from persprox.cli import main

    # the power base's t ** p overflowed, and eval exited 3 where huber printed +inf
    assert main(["eval", "--spec", spec, "--point", '{"x":[1.5e308,1.5e308],"y":10}']) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == record["preperspective_value"] == "+inf"


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
    # strings and booleans were read through float(): "2" ran at gamma 2, true as 1.0
    ('{"base":{"name":"huber"},"scaling":{"name":"sqrt"},"gamma":"2"}', "gamma must be a number"),
    ('{"base":{"name":"huber"},"scaling":{"name":"sqrt"},"gamma":true}', "gamma must be a number"),
    ('{"base":{"name":"power","p":"2"},"scaling":{"name":"root","q":0.5}}',
     "parameter 'p' must be a number, got '2'"),
    ('{"base":{"name":"power","p":3},"scaling":{"name":"root","q":true}}',
     "parameter 'q' must be a number, got True"),
    ('{"base":{"name":"huber"},"scaling":{"name":"sqrt","beta":"1e3"}}',
     "parameter 'beta' must be a number, got '1e3'"),
    ('{"base":{"name":"huber","alpha":false},"scaling":{"name":"sqrt"}}',
     "parameter 'alpha' must be a number, got False"),
    ('{"base":{"name":"power","p":3},"scaling":{"name":"root","q":0.5,"interval":[0,"4"]}}',
     "parameter 'interval' must be a number, got '4'"),
    ('{"base":{"name":"power","p":3},"scaling":{"name":"root","q":0.5,"upper":true}}',
     "parameter 'upper' must be a number, got True"),
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
    # a string x was read one character at a time: "30" ran the prox at (3.0, 0.0)
    (["prox", "--spec", HUBER_SPEC, "--point", '{"x":"30","y":0}'], None, "point needs 'x' (array)"),
    # strings and booleans were read through float(): this ran at x = (1, 1), y = 0.5
    (["prox", "--spec", HUBER_SPEC, "--point", '{"x":["1",true],"y":"0.5"}'], None,
     "point needs"),
    (["prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,true],"y":0.5}'], None,
     "expected a number, got True"),
    (["prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":"0.5"}'], None,
     "expected a number, got '0.5'"),
    (["eval", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":[false]}'], None,
     "expected a number, got False"),
    # the demo read its numbers through float() and int(): these three ran,
    # the last two for one and for two steps
    (["demo-concomitant", "--spec", HUBER_SPEC, "--demo",
      '{"a":[["1",0],[0,true]],"b":["1","1"],"iterations":2}'], None,
     "expected a number, got '1'"),
    (["demo-concomitant", "--spec", HUBER_SPEC, "--demo",
      '{"a":[[1,0],[0,1]],"b":[1,1],"iterations":true}'], None,
     "'iterations' must be an integer, got True"),
    (["demo-concomitant", "--spec", HUBER_SPEC, "--demo",
      '{"a":[[1,0],[0,1]],"b":[1,1],"iterations":2.7}'], None,
     "'iterations' must be an integer, got 2.7"),
], ids=["stdin-number", "stdin-array", "demo-without-a", "demo-array", "y-null", "y-list-null",
        "x-string", "x-y-strings-and-bool", "x-bool", "y-string", "y-list-bool",
        "demo-strings-and-bool", "demo-iterations-bool", "demo-iterations-float"])
def test_malformed_document_is_bad_input(capsys, monkeypatch, argv, stdin, message):
    from persprox.cli import main

    # each of these died with a traceback (TypeError, KeyError) and exit 1,
    # the code of a validation failure
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_eval_takes_no_tolerance_flag(capsys):
    from persprox.cli import main

    # eval runs no multiplier search; it used to accept and ignore --tol,
    # an unknown key included
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}', "--tol", "bogus=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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
    # root-region input (the search meets these tolerances in two steps)
    out = run_cli(
        "prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0.3}',
        "--tol", "max_iter=1", "--tol", "eta_tol=1e-15", "--tol", "residual_tol=1e-15",
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
    # an int beyond the largest double raised OverflowError: exit 3, a solver failure
    (HUBER_SPEC.replace('"gamma":1', '"gamma":1' + "0" * 400), '{"x":[1,0],"y":0}'),
    (HUBER_SPEC, '{"x":[-1' + "0" * 400 + ',0],"y":0}'),
], ids=["y+inf", "yInfinity", "y-inf", "gamma+inf", "gamma-NaN", "gamma-huge-int",
        "x-huge-int"])
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
    # setting (region tests use the one slack rule of core.slack_bound), nor
    # are the keys of the brute-force oracle, which left the command line
    argv = ["prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}', "--tol", f"{key}={value}"]
    assert main(argv) == 2
    removed = ("classify_tol", "radius_factor", "refine_tol", "max_refine_iters")
    expected = f"unknown tolerance {key!r}" if key in removed else value
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--tol", "refine_tol=nan"], "unknown tolerance 'refine_tol'"),
    (["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["--seeds", "-3"], "--seeds must be at least 1, got -3"),
    (["--workers", "0"], "unrecognized arguments: --workers 0"),
    (["--workers", "-5"], "unrecognized arguments: --workers -5"),
], ids=["refine_tol-nan", "seeds-0", "seeds-negative", "workers-0", "workers-negative"])
def test_validate_bad_settings_are_bad_input(capsys, argv, message):
    from persprox.cli import main

    # --seeds 0 used to die on an empty max(); the oracle's refine_tol and
    # the worker pool's --workers are gone, and argparse rejects the flag
    # itself with its own exit code 2
    try:
        code = main(["validate", "--spec", HUBER_SPEC, "--seeds", "2", *argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_removed_oracle_grid_knob_is_unknown(capsys):
    from persprox.cli import main

    argv = ["prox", "--spec", HUBER_SPEC, "--point", '{"x":[3,0],"y":0}', "--tol", "coarse_points_per_dim=21"]
    assert main(argv) == 2
    assert "unknown tolerance 'coarse_points_per_dim'" in capsys.readouterr().err


def test_validate_any_base_dimension():
    out = run_cli("validate", "--spec", POWER_SPEC.replace("[2,1]", "[5,1]"), "--seeds", "8")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["max_distance_bound"] <= 5e-4


def test_prox_process_imports_no_numpy_or_process_pool():
    # and a module taken off the prox path stays off it: splitting loads on
    # first use, quartic on the first call of roots.real_quartic_roots
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from persprox.cli import main; "
        f"rc = main(['prox', '--spec', {HUBER_SPEC!r}, '--point', '{{\"x\":[1,0],\"y\":0}}']); "
        "heavy = ('numpy', 'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect', "
        "'persprox.splitting', 'persprox.quartic'); "
        "print([m for m in heavy if m in sys.modules], file=sys.stderr); sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["case_label"] == "Xi4"
    assert out.stderr.strip() == "[]"


def test_prox_process_imports_no_typing():
    # -S keeps site (which may load typing or random through installed
    # packages) out, so only the persprox import path is seen; random is
    # loaded by validate alone
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from persprox.cli import main; "
        f"rc = main(['prox', '--spec', {HUBER_SPEC!r}, '--point', '{{\"x\":[1,0],\"y\":0}}']); "
        "print([m for m in ('typing', 'random') if m in sys.modules], file=sys.stderr); "
        "sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
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


def test_trace_root_reports_a_root_found_at_entry():
    # y = 0 pins the inner point at the pole: the entry rule returns -T(0)
    # with no search, and trace-root prints its one row, iteration 0, with
    # the entry bounds, the multiplier and the forward T there
    out = run_cli("trace-root", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}')
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["iter,eta_lo,eta_hi,eta_mid,T_mid", "0,0.375,0.375,0.375,0.0"]
    prox = run_cli("prox", "--spec", HUBER_SPEC, "--point", '{"x":[1,0],"y":0}')
    record = json.loads(prox.stdout)
    assert (record["case_label"], record["eta"], record["iterations"]) == ("Xi4", 0.375, 0)


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
    assert report["max_distance_bound"] <= report["distance_limit"] == 5e-4
    assert report["seeds"] == sum(report["labels"].values()) == 6


def _shifted_prox(pair, gamma, x, y, cfg):
    from persprox import prox_fenchel_gap, prox_perspective

    res = prox_perspective(pair, gamma, x, y, cfg)
    res.p = (res.p[0] + 1e-2,) + res.p[1:]
    res.certificate_gap = prox_fenchel_gap(pair, gamma, x, y, res.p, res.q)
    return res


def test_validate_fails_on_a_perturbed_output(capsys, monkeypatch):
    # outputs 1e-2 off the prox, certified as such, have certificate gaps
    # near 2.5e-4, so their distance bounds, near 2.2e-2, lie far above the
    # 5e-4 limit; the power base's conjugate is finite everywhere, so every
    # gap is too
    import persprox.cli
    from persprox.cli import main

    monkeypatch.setattr(persprox.cli, "prox_perspective", _shifted_prox)
    assert main(["validate", "--spec", POWER_SPEC, "--seeds", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert 5e-4 < report["max_distance_bound"] < math.inf


def _nan_gap_prox(pair, gamma, x, y, cfg):
    from persprox import prox_perspective

    res = prox_perspective(pair, gamma, x, y, cfg)
    res.certificate_gap = math.nan
    return res


def test_validate_fails_on_a_nan_gap(capsys, monkeypatch):
    # validate judges the certificate each result carries; a NaN compares
    # false with the limit either way round: it must fail
    import persprox.cli
    from persprox.cli import main

    monkeypatch.setattr(persprox.cli, "prox_perspective", _nan_gap_prox)
    assert main(["validate", "--spec", HUBER_SPEC, "--seeds", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert math.isnan(report["max_distance_bound"])


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


def test_validate_certifies_a_thin_scale_interval():
    # a scale interval [0, 1e-9] falls between the brute-force oracle's grid
    # points, so the oracle cannot judge it; the certificate can
    spec = '{"base":{"name":"abs"},"scaling":{"name":"root","q":0.5,"upper":1e-9},"gamma":1,"dims":[1,1]}'
    out = run_cli("validate", "--spec", spec, "--seeds", "20")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["max_distance_bound"] <= 5e-4


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
