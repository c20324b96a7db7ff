import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from jarlskog import MassPairInput, SeededRng, haar_unitary, random_spectrum
from jarlskog.cli import main
from jarlskog.problem_io import ProblemFileError, parse_problem, render_problem
from jarlskog.verify import run_suite

DATA = os.path.join(os.path.dirname(__file__), "data")
N4_FIXTURE = os.path.join(DATA, "problem_n4_seed2024.json")
N3_FIXTURE = os.path.join(DATA, "problem_n3_seed501.json")
N3_IDENTITY = os.path.join(DATA, "problem_n3_identity.json")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "jarlskog", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# ---------------------------------------------------------------- file format

def test_problem_round_trip_is_bitwise():
    rng = SeededRng(8)
    v = haar_unitary(4, rng)
    a = random_spectrum(4, rng)
    b = random_spectrum(4, rng)
    inp = MassPairInput(a=a, b=b, v=v)
    back = parse_problem(render_problem(inp))
    assert back.a.values == inp.a.values
    assert back.b.values == inp.b.values
    assert np.array_equal(back.v.matrix, inp.v.matrix)


def test_problem_with_diagonalising_pair():
    rng = SeededRng(9)
    u = haar_unitary(3, rng)
    up = haar_unitary(3, rng)
    doc = {
        "format": "jarlskog-problem/1",
        "n": 3,
        "a": [-0.5, 0.0, 0.5],
        "b": [-0.9, -0.1, 0.8],
        "U": [[[z.real, z.imag] for z in row] for row in u.matrix],
        "U_prime": [[[z.real, z.imag] for z in row] for row in up.matrix],
    }
    inp = parse_problem(json.dumps(doc))
    expected = np.conj(u.matrix.T) @ up.matrix
    assert np.max(np.abs(inp.v.matrix - expected)) <= 1e-14


def test_problem_rejects_both_forms():
    doc = json.loads(render_problem_sample())
    doc["U"] = doc["V"]
    doc["U_prime"] = doc["V"]
    with pytest.raises(ProblemFileError, match="exactly one"):
        parse_problem(json.dumps(doc))


def render_problem_sample():
    rng = SeededRng(3)
    v = haar_unitary(3, rng)
    a = random_spectrum(3, rng)
    b = random_spectrum(3, rng)
    return render_problem(MassPairInput(a=a, b=b, v=v))


def test_problem_rejects_bad_json_with_location():
    with pytest.raises(ProblemFileError, match="line 1"):
        parse_problem("{not json")


def test_problem_rejects_non_unitary_v():
    doc = json.loads(render_problem_sample())
    doc["V"][0][0] = [5.0, 0.0]
    with pytest.raises(ProblemFileError, match="field 'V'"):
        parse_problem(json.dumps(doc))


def test_problem_rejects_degenerate_spectrum():
    doc = json.loads(render_problem_sample())
    doc["a"] = [0.1, 0.1, 0.5]
    with pytest.raises(ProblemFileError, match="field 'a'"):
        parse_problem(json.dumps(doc))


@pytest.mark.parametrize("field", ("V", "U", "U_prime", "a", "b"))
@pytest.mark.parametrize("token", ("NaN", "Infinity", "-Infinity"))
def test_det_rejects_non_finite_input_by_name(field, token, tmp_path, capsys):
    doc = json.loads(render_problem_sample())
    if field in ("U", "U_prime"):
        rng = SeededRng(9)
        for name in ("U", "U_prime"):
            matrix = haar_unitary(3, rng).matrix
            doc[name] = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        del doc["V"]
    if field in ("a", "b"):
        doc[field][0] = float(token)
    else:
        doc[field][0][0][0] = float(token)
    text = json.dumps(doc)
    assert token in text
    path = tmp_path / "bad.json"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["det", str(path)])
    assert code == 1
    assert f"field '{field}'" in capsys.readouterr().err
    assert caught == []


# ---------------------------------------------------------------- sample

def test_sample_output_is_deterministic_bytes():
    first = run_cli("sample", "--n", "4", "--seed", "11")
    second = run_cli("sample", "--n", "4", "--seed", "11")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_sample_round_trips_through_parser():
    out = run_cli("sample", "--n", "3", "--seed", "5")
    inp = parse_problem(out.stdout)
    assert inp.n == 3
    assert inp.v.unitarity_defect <= 1e-12
    assert inp.a.min_gap >= 0.05
    assert render_problem(inp) == out.stdout


def test_sample_rejects_bad_dimension():
    res = run_cli("sample", "--n", "12", "--seed", "0")
    assert res.returncode == 1


# ---------------------------------------------------------------- det

def test_det_identity_mixing_prints_zero_and_passes():
    res = run_cli("det", N3_IDENTITY, "--method", "both")
    assert res.returncode == 0
    assert "agreement: pass" in res.stdout
    for line in res.stdout.splitlines():
        if line.startswith(("det_direct", "det_closed")):
            assert "0.00000000000000000e+00" in line


def test_det_both_on_golden_fixture_agrees():
    res = run_cli("det", N4_FIXTURE, "--method", "both")
    assert res.returncode == 0
    assert "agreement: pass" in res.stdout


def test_det_direct_only_runs_for_any_supported_n(tmp_path):
    out = run_cli("sample", "--n", "5", "--seed", "2")
    path = tmp_path / "n5_problem.json"
    path.write_text(out.stdout)
    res = run_cli("det", path, "--method", "direct")
    assert res.returncode == 0
    assert "det_direct" in res.stdout
    res = run_cli("det", path, "--method", "closed")
    assert res.returncode == 1
    assert "no closed form for n=5" in res.stderr


def test_det_zero_tolerance_trips_violation_exit():
    res = run_cli("det", N4_FIXTURE, "--method", "both", "--tol-rel", "0", "--tol-abs", "0")
    assert res.returncode == 2
    assert "agreement: FAIL" in res.stdout


def test_det_malformed_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "jarlskog-problem/1", "n": 3}')
    res = run_cli("det", str(bad))
    assert res.returncode == 1
    assert "field 'a'" in res.stderr


def test_det_missing_file_is_input_error():
    res = run_cli("det", "/tmp/definitely-not-here.json")
    assert res.returncode == 1


@pytest.mark.parametrize("command", ("det", "phases"))
@pytest.mark.parametrize(
    "content",
    (
        b'{"format": "jarlskog-problem/1", "n": 3, "a": ["\xe9"]}',  # Latin-1, not UTF-8
        b"[" * 100_000,
    ),
    ids=("non_utf8", "over_nested"),
)
def test_unreadable_problem_file_is_input_error(command, content, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    res = run_cli(command, str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("method", ("both", "direct", "closed"))
@pytest.mark.parametrize("fixture", (N3_FIXTURE, N4_FIXTURE), ids=("n3", "n4"))
def test_det_overflow_is_input_error(fixture, method, tmp_path, capsys):
    # a and b scaled by 1e60 overflow the LU determinant and the closed
    # forms to NaN/inf, which must not read as agreement
    with open(fixture, encoding="utf-8") as fh:
        doc = json.load(fh)
    for name in ("a", "b"):
        doc[name] = [x * 1e60 for x in doc[name]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["det", str(path), "--method", method])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: det_")
    assert "not a finite number" in err
    assert caught == []


# ---------------------------------------------------------------- phases

def test_phases_n3_report_contains_base_and_signs():
    res = run_cli("phases", N3_FIXTURE)
    assert res.returncode == 0
    assert "base phase (12;12):" in res.stdout
    assert res.stdout.count("sign +1") + res.stdout.count("sign -1") == 9
    assert "sign pattern matches expected: True" in res.stdout


def test_phases_n4_report_has_expansion_and_reconstruction():
    res = run_cli("phases", N4_FIXTURE)
    assert res.returncode == 0
    assert "expansion check (36 phases from J): max residual" in res.stdout
    assert "band reconstruction" in res.stdout
    assert "status: solved" in res.stdout


def test_phases_identity_mixing_flags_degenerate(tmp_path):
    doc = {
        "format": "jarlskog-problem/1",
        "n": 4,
        "a": [-0.7, -0.2, 0.3, 0.8],
        "b": [-0.8, -0.3, 0.2, 0.9],
        "V": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path = tmp_path / "identity4.json"
    path.write_text(json.dumps(doc))
    res = run_cli("phases", str(path))
    assert res.returncode == 0
    assert "status: degenerate" in res.stdout


def test_phases_out_file_written_once(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("phases", N3_FIXTURE, "--out", str(out))
    assert res.returncode == 0
    first = out.read_text()
    res2 = run_cli("phases", N3_FIXTURE, "--out", str(out))
    assert res2.returncode == 1
    assert "refusing to overwrite" in res2.stderr
    assert out.read_text() == first


def test_out_refuses_dangling_symlink(tmp_path, capsys):
    target = tmp_path / "target.txt"
    link = tmp_path / "report.txt"
    link.symlink_to(target)
    assert main(["phases", N3_FIXTURE, "--out", str(link)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert not target.exists()


# ---------------------------------------------------------------- verify

def test_verify_single_trial_is_bit_identical():
    a = run_cli("verify", "--n", "3", "--trials", "1", "--seed", "7")
    b = run_cli("verify", "--n", "3", "--trials", "1", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_verify_reports_are_bit_identical_across_runs(tmp_path):
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    a = run_cli("verify", "--n", "3", "--trials", "25", "--seed", "7", "--out", str(r1))
    b = run_cli("verify", "--n", "3", "--trials", "25", "--seed", "7", "--out", str(r2))
    assert a.returncode == 0 and b.returncode == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert "wall_time_s" in a.stderr  # timing goes to stderr, not the report


def test_verify_stdout_report_passes_and_prints_rows():
    res = run_cli("verify", "--n", "4", "--trials", "10", "--seed", "3")
    assert res.returncode == 0
    assert "overall: PASS" in res.stdout
    for row in (
        "closed_form_n4_vs_direct",
        "phase_expansion_36",
        "difference_factor_sum",
        "band_reconstruction",
        "reconstruction_gate_pass_rate",
    ):
        assert row in res.stdout


def test_verify_impossible_tolerance_exits_with_violation():
    res = run_cli("verify", "--n", "3", "--trials", "5", "--seed", "1", "--tol-rel", "0")
    assert res.returncode == 2
    assert "overall: FAIL" in res.stdout


@pytest.mark.parametrize("option", ("--tol-rel", "--tol-abs"))
@pytest.mark.parametrize("command", ("det", "verify"))
@pytest.mark.parametrize("value", ("nan", "inf", "-1"))
def test_malformed_tolerance_is_input_error(value, command, option, capsys):
    args = [N4_FIXTURE] if command == "det" else ["--n", "3", "--trials", "1"]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, option, value])
    assert exc.value.code == 1
    assert "tolerance must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("option", ("tol_rel", "tol_abs"))
@pytest.mark.parametrize("value", (math.nan, math.inf, -1.0))
def test_run_suite_rejects_unusable_tolerance(value, option):
    with pytest.raises(ValueError, match=f"{option} must be a finite number >= 0"):
        run_suite(3, 3, 0, **{option: value})


def test_verify_rejects_bad_arguments():
    assert run_cli("verify", "--n", "5", "--trials", "5").returncode == 1
    assert run_cli("verify", "--n", "3", "--trials", "0").returncode == 1


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "jarlskog" in res.stdout
