"""Exit codes, report files and determinism of the command line."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ccmkit.cli import main
from ccmkit.model import bundled_spec_path


def _read_report(d):
    return json.loads((d / "report.json").read_text())


@pytest.mark.parametrize("name", ["counterexample", "double-integrator",
                                  "bounded-gain"])
def test_validate_bundled(name, capsys):
    assert main(["validate", "--spec", name]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "states n=" in out


def test_validate_prints_scenario(capsys):
    main(["validate", "--spec", "double-integrator"])
    assert "scenario:" in capsys.readouterr().out


def test_verify_exit_codes(tmp_path, capsys):
    neg = tmp_path / "neg"
    pos = tmp_path / "pos"
    assert main(["verify", "--spec", "counterexample", "--out", str(neg)]) == 1
    assert main(["verify", "--spec", "double-integrator", "--out", str(pos)]) == 0
    out = capsys.readouterr().out
    assert "verdict: NEGATIVE" in out and "verdict: POSITIVE" in out
    rep = _read_report(neg)
    assert set(rep) == {"command", "spec", "seed", "report", "timestamp"}
    assert rep["command"] == "verify" and rep["spec"] == "counterexample"
    assert rep["report"]["verdict"] is False
    assert rep["report"]["condition1"]["blow_up"] is True
    assert _read_report(pos)["report"]["verdict"] is True


def test_verify_report_is_deterministic_without_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        main(["verify", "--spec", "double-integrator", "--out", str(d),
              "--no-timestamp"])
    ra = (a / "report.json").read_bytes()
    assert ra == (b / "report.json").read_bytes()
    assert b"timestamp" not in ra


def test_verify_seed_override_lands_in_report(tmp_path):
    d = tmp_path / "r"
    main(["verify", "--spec", "double-integrator", "--out", str(d),
          "--seed", "123", "--no-timestamp"])
    assert _read_report(d)["seed"] == 123


def test_verify_coarse_grid_misses_the_blow_up(tmp_path):
    # the sweep only speaks for its grid: 41 points leave a 0.1 gap
    # around the origin where psi is still finite, so the verdict flips
    d = tmp_path / "coarse"
    code = main(["verify", "--spec", "counterexample", "--out", str(d),
                 "--grid-density", "41", "--no-timestamp"])
    assert code == 0
    rep = _read_report(d)
    assert rep["report"]["condition1"]["blow_up"] is False
    assert rep["report"]["condition1"]["max_psi"] == pytest.approx(4.0 / 0.1 ** 3,
                                                                   rel=1e-9)


def test_simulate_infeasible_exit(tmp_path, capsys):
    d = tmp_path / "sim"
    code = main(["simulate", "--spec", "counterexample", "--out", str(d)])
    assert code == 3
    assert "controller infeasible at t=0.0" in capsys.readouterr().out
    rep = _read_report(d)
    assert rep["convergence"]["infeasible_time"] == 0.0
    assert rep["scenario"]["segments"] == 256


def test_simulate_double_integrator(tmp_path, capsys):
    d = tmp_path / "sim"
    code = main(["simulate", "--spec", "double-integrator", "--out", str(d),
                 "--horizon", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "convergence: PASS" in out
    rep = _read_report(d)
    assert rep["scenario"]["horizon"] == 2.0
    assert rep["convergence"]["passed"] is True
    header = (d / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,V"
    data = np.loadtxt(d / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 2001
    assert data[-1, -1] < data[0, -1]    # tracking cost decreased


def test_simulate_requires_scenario(tmp_path, capsys):
    doc = json.loads(bundled_spec_path("counterexample").read_text())
    doc.pop("scenario")
    p = tmp_path / "no_scenario.json"
    p.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(p)]) == 2
    assert "has no scenario" in capsys.readouterr().err


def test_unknown_spec_is_an_input_error(capsys):
    assert main(["verify", "--spec", "no-such-spec"]) == 2
    assert "neither a file nor a bundled name" in capsys.readouterr().err


def test_bad_override_values(capsys):
    assert main(["verify", "--spec", "double-integrator", "--lambda", "0"]) == 2
    assert main(["verify", "--spec", "double-integrator",
                 "--grid-density", "0"]) == 2
    err = capsys.readouterr().err
    assert "--lambda must be positive" in err
    assert "--grid-density must be >= 1" in err


@pytest.mark.parametrize("command", ["validate", "verify", "simulate",
                                     "demo-counterexample"])
@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "0", "--horizon must be positive"),
    ("--horizon", "-1", "--horizon must be positive"),
    ("--step", "0", "--step must be positive"),
    ("--step", "nan", "--step must be positive"),
    ("--segments", "0", "--segments must be >= 1"),
    ("--seed", "-3", "--seed must be >= 0"),
])
def test_bad_run_overrides_are_input_errors(tmp_path, capsys, command, flag,
                                            value, message):
    # every command rejects them, since demo-counterexample reads
    # --horizon and --step itself
    argv = [command, "--spec", "double-integrator", "--out", str(tmp_path),
            flag, value]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("f, B, M, entry", [
    ("-x1 + 1/x1", "1", "1", "f[0]"),
    ("-x1", "x1^2", "1 + 1/x1^2", "M[0][0]"),
    # exp(-1/t^2) is 0 at t = 0 by IEEE division, so only x1 = 0 is bad
    ("-x1 + exp(-1/t^2)/x1", "1", "1", "f[0]"),
])
def test_verify_non_finite_spec_is_an_input_error(tmp_path, capsys, f, B, M,
                                                  entry):
    doc = {"schema": 1, "name": "non-finite", "n": 1, "m": 1, "f": [f],
           "B": [[B]], "M_upper": [[M]], "alpha1": 1.0, "alpha2": 1.0,
           "lambda": 0.5, "grid": {"x": [[-1, 1, 5]], "u": [[0]], "t": [0]}}
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(p), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: non-finite entry {entry} at x=[0.0], t=0.0\n"
    assert captured.out == ""


@pytest.mark.parametrize("f, B, M, t, where", [
    ("-x1 + 1/(t - 0.5)", "1", "1", 0.5, "f[0] at x=[-1.0], t=0.5"),
    ("-x1", "1", "1 + 1/t", 0.0, "M[0][0] at x=[-1.0], t=0.0"),
    ("-x1 + 10^400", "1", "1", 0.0, "f[0] at x=[-1.0], t=0.0"),
    ("-x1", "1 + 0*10^400", "1", 0.0, "B[0][0] at x=[-1.0], t=0.0"),
])
def test_verify_t_only_or_constant_non_finite_is_an_input_error(
        tmp_path, capsys, f, B, M, t, where):
    # entries free of x are evaluated by numpy like the rest: a division
    # by zero or an overflow there is a named non-finite entry, not a crash
    doc = {"schema": 1, "name": "non-finite", "n": 1, "m": 1, "f": [f],
           "B": [[B]], "M_upper": [[M]], "alpha1": 1.0, "alpha2": 1.0,
           "lambda": 0.5, "grid": {"x": [[-1, 1, 5]], "u": [[0]], "t": [t]}}
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(p), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: non-finite entry {where}\n"
    assert captured.out == ""


def test_malformed_spec_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{\"schema\": 1")
    assert main(["validate", "--spec", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_demo_reproduces_expected_outcomes(tmp_path, capsys):
    d = tmp_path / "demo"
    code = main(["demo-counterexample", "--out", str(d), "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all expected outcomes reproduced" in out
    assert "[DEVIATED]" not in out
    rep = _read_report(d)
    assert rep["all_expected_outcomes"] is True
    assert rep["first_deviation"] is None
    assert len(rep["checks"]) == 7
    for f in ("demo.md", "open_loop_from_one.csv", "open_loop_from_zero.csv"):
        assert (d / f).exists()
    md = (d / "demo.md").read_text()
    assert "| scale | psi |" in md and "- [" not in md


def test_demo_flags_deviation_under_wrong_rate(tmp_path, capsys):
    d = tmp_path / "demo"
    code = main(["demo-counterexample", "--out", str(d), "--no-timestamp",
                 "--lambda", "1.5"])
    assert code == 1
    assert "[DEVIATED] kernel contraction passes" in capsys.readouterr().out
    assert _read_report(d)["first_deviation"] == "kernel contraction passes"


def test_version_subprocess():
    res = subprocess.run([sys.executable, "-m", "ccmkit", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip().startswith("ccmkit ")
