import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import bits
from jarlskog import MassPairInput, SeededRng, haar_unitary, phases, problem_io, random_spectrum
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


@pytest.mark.parametrize("seed", (0, 11))
@pytest.mark.parametrize("n", (2, 3, 4, 8))
def test_sample_output_matches_golden_bytes(capsys, n, seed):
    assert main(["sample", "--n", str(n), "--seed", str(seed)]) == 0
    with open(os.path.join(DATA, f"sample_n{n}_seed{seed}.json"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


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


def test_phases_n4_report_builds_j_and_r_once(monkeypatch, capsys):
    # the J/R lines and the band reconstruction read the same arrays
    calls = []
    jr = phases.jr_matrices
    monkeypatch.setattr(phases, "jr_matrices", lambda *args: calls.append(1) or jr(*args))
    assert main(["phases", N4_FIXTURE]) == 0
    assert "status: solved" in capsys.readouterr().out
    assert len(calls) == 1


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


# ---------------------------------------------------------------- NaN residuals

def test_record_fails_and_keeps_a_nan_residual():
    from jarlskog.verify import IdentityResult

    result = IdentityResult(name="x", bound="1")
    for residual, seed in ((0.5, 3), (math.nan, 7), (0.9, 8)):
        result.record(residual, 1.0, seed)
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_seed == 7


def test_verify_reports_an_injected_nan_residual_as_fail(monkeypatch):
    import jarlskog.verify as verify

    exact = verify._antisymmetry_residuals

    def nan_on_trial_2(re, im):
        out = exact(re, im)
        out[2] = math.nan
        return out

    monkeypatch.setattr(verify, "_antisymmetry_residuals", nan_on_trial_2)
    report = run_suite(3, 5, 11)
    row = next(r for r in report.identities if r.name == "phase_antisymmetry_bitwise")
    assert not row.passed
    assert math.isnan(row.max_residual)
    assert row.worst_seed == verify.derive_seed(11, 2)
    assert [r.name for r in report.identities if not r.passed] == [row.name]
    assert report.render().endswith("\noverall: FAIL\n")


def test_verify_gate_rate_counts_the_trials_the_band_row_records(monkeypatch):
    import jarlskog.verify as verify

    exact = verify._reconstructions

    def gate_fails_on_trials_1_and_3(cols, j, r):
        ratio, degenerate, recon, max_error = exact(cols, j, r)
        degenerate[[1, 3]] = True
        max_error[[1, 3]] = math.nan
        return ratio, degenerate, recon, max_error

    monkeypatch.setattr(verify, "_reconstructions", gate_fails_on_trials_1_and_3)
    report = run_suite(4, 5, 11)
    row = next(r for r in report.identities if r.name == "band_reconstruction")
    assert row.passed and row.count == 3
    assert report.gate_pass_rate == 3 / 5
    assert "\nreconstruction_gate_pass_rate: 5.99999999999999978e-01\n" in report.render()


@pytest.mark.parametrize("n", (3, 4))
def test_verify_fails_a_plaquette_tensor_that_breaks_the_orbit_symmetry(n, monkeypatch):
    # the product identities read one index tuple per symmetry orbit, so a
    # plaquette entry off the orbit representatives is never read there; a
    # tensor whose symmetry breaks at such an entry must still fail verify
    import jarlskog.verify as verify

    read = set(phases._product_table(n)[0].ravel().tolist())
    target = next(
        (a, b, j, k) for a, b, j, k in np.ndindex((n,) * 4)
        if a != b and j != k and n ** 4 + np.ravel_multi_index((a, b, j, k), (n,) * 4) not in read)
    exact = verify._plaquettes

    def flip_one_im_bit_of_trial_2(m):
        re, im = exact(m)
        im.view(np.uint64)[(2, *target)] ^= np.uint64(1)
        return re, im

    monkeypatch.setattr(verify, "_plaquettes", flip_one_im_bit_of_trial_2)
    report = run_suite(n, 5, 11)
    row = next(r for r in report.identities if r.name == "phase_antisymmetry_bitwise")
    assert not row.passed
    assert row.worst_seed == verify.derive_seed(11, 2)
    assert [r.name for r in report.identities if not r.passed] == [row.name]
    assert report.render().endswith("\noverall: FAIL\n")


def test_importing_the_cli_builds_no_product_table():
    # the orbit tables are built on first use, not at import
    code = ("import jarlskog.cli, jarlskog.phases as p; "
            "print(p._product_table.cache_info().currsize)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0\n"


@pytest.mark.parametrize("n", (3, 4))
def test_worst_seed_replays_the_closed_form_residual(n, tmp_path, capsys):
    row = next(r for r in run_suite(n, 200, 13579).identities
               if r.name == f"closed_form_n{n}_vs_direct")
    path = tmp_path / "worst.json"
    assert main(["sample", "--n", str(n), "--seed", str(row.worst_seed), "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["det", str(path), "--method", "both"]) == 0
    assert f"discrepancy: {row.max_residual:.17e}\n" in capsys.readouterr().out


# ---------------------------------------------------------------- oversized numbers

@pytest.mark.parametrize("field", ("a", "b", "V", "U", "U_prime"))
def test_integer_too_large_for_a_float_is_input_error(field, tmp_path, capsys):
    with open(os.path.join(DATA, "problem_n3_uu_seed601.json" if field.startswith("U")
                           else "problem_n3_seed501.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if field in ("a", "b"):
        doc[field][1] = 10 ** 400
    else:
        doc[field][1][2][0] = 10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("det", "phases"):
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: field '{field}' holds an integer too large for a float\n"


@pytest.mark.parametrize("command", ("det", "phases"))
def test_non_unitary_product_of_a_valid_pair_is_input_error(command, tmp_path, capsys):
    # U = U_prime = (1 + 4.9e-11) I: each has defect 9.8e-11 <= 1e-10, but
    # V = U^+ U_prime has defect 1.96e-10
    scaled = [[[1.0 + 4.9e-11 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
    with open(N3_FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["V"]
    doc["U"] = doc["U_prime"] = scaled
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the product V = U^+ U_prime: matrix is not unitary: ")


def test_parsed_entries_are_bit_equal_to_the_scalar_conversion():
    # JSON numbers of each kind a parser meets: ints past 2**53 and past
    # int64, the largest and smallest magnitudes, a signed zero, and the
    # shortest-repr floats that `sample` writes
    edge = [2 ** 53 + 1, -(2 ** 63) - 7, 10 ** 308, -0.0, 5e-324, 0, -3, 1.5, -(2 ** 53) - 1]
    haar = [x for z in haar_unitary(4, SeededRng(61)).matrix.ravel().tolist()
            for x in (z.real, z.imag)]
    numbers = json.loads(json.dumps(edge + haar))[:32]
    raw = [[numbers[8 * i + 2 * j:8 * i + 2 * j + 2] for j in range(4)] for i in range(4)]
    parsed = problem_io._parse_complex_matrix(raw, 4, "V")
    expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in raw])
    assert np.array_equal(bits(parsed.view(np.float64)), bits(expected.view(np.float64)))

    values = [2 ** 53 + 1, -(2 ** 63) - 7, 10 ** 308, -0.0, 5e-324, 3, 0.1, haar[0]]
    spectrum = problem_io._parse_spectrum(json.loads(json.dumps(values)), 8, "a")
    assert np.array_equal(bits(spectrum.values), bits([float(x) for x in values]))


def _at(path, value):
    """A fault that sets the item at path (indices into a field) to value,
    or to value(item) when value is callable."""
    def fault(field):
        owner = field
        for k in path[:-1]:
            owner = owner[k]
        owner[path[-1]] = value(owner[path[-1]]) if callable(value) else value
        return field
    return fault


#: faults of a 3 x 3 matrix field, and the message that names each
MATRIX_FAULTS = {
    "not_a_list": (lambda m: {"re": 1.0}, "must be a list of 3 rows"),
    "two_rows": (lambda m: m[:2], "must be a list of 3 rows"),
    "row_not_a_list": (_at([1], 0.5), "row 2 must have 3 entries"),
    "short_row": (_at([1], lambda row: row[:2]), "row 2 must have 3 entries"),
    "three_element_cell": (_at([1, 2], lambda cell: cell + [0.0]),
                           "entry (2,3) must be a [re, im] pair"),
    "true_cell": (_at([1, 2, 0], True), "entry (2,3) must be a [re, im] pair"),
    "string_cell": (_at([1, 2, 1], "1.0"), "entry (2,3) must be a [re, im] pair"),
    "null_cell": (_at([0, 1, 0], None), "entry (1,2) must be a [re, im] pair"),
    "huge_first": (_at([0, 0, 0], 10 ** 400), "holds an integer too large for a float"),
    "huge_last": (_at([2, 2, 1], 10 ** 400), "holds an integer too large for a float"),
    # a fault in row 1 is named before a fault of row 2, whatever their kinds
    "bad_cell_then_short_row": (lambda m: _at([1], lambda row: row[:2])(_at([0, 1], [1.0])(m)),
                                "entry (1,2) must be a [re, im] pair"),
}
#: faults of a spectrum of 3, and the message that names each
SPECTRUM_FAULTS = {
    "true_entry": (_at([1], True), "must contain only numbers"),
    "short": (lambda s: s[:2], "must be a list of 3 reals"),
}
SINGLE_FAULTS = [
    pytest.param(field, fault, tail, id=f"{field}-{name}")
    for fields, faults in ((("V", "U", "U_prime"), MATRIX_FAULTS), (("a", "b"), SPECTRUM_FAULTS))
    for field in fields
    for name, (fault, tail) in faults.items()
]


def _fixture_doc(form):
    name = "problem_n3_uu_seed601.json" if form == "U" else "problem_n3_seed501.json"
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def _input_error(doc, tmp_path, capsys):
    """The stderr of det and phases on doc, which must both be exit 1 with
    no stdout, the same stderr and no numpy warning."""
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(doc))
    errs = []
    for command in ("det", "phases"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert caught == []
        errs.append(err)
    assert errs[0] == errs[1]
    return errs[0]


@pytest.mark.parametrize(("field", "fault", "tail"), SINGLE_FAULTS)
def test_single_fault_message_names_the_field(field, fault, tail, tmp_path, capsys):
    doc = _fixture_doc("U" if field.startswith("U") else "V")
    doc[field] = fault(doc[field])
    assert _input_error(doc, tmp_path, capsys) == f"error: field '{field}' {tail}\n"


NOT_UNITARY = _at([0, 0], [5.0, 0.0])


#: faults of a U / U_prime file: structure faults of both fields are named
#: first, then unitarity faults in the order U, U_prime, V
PAIR_FAULT_ORDER = {
    "non_unitary_U": (
        {"U": NOT_UNITARY},
        "field 'U': matrix is not unitary: max|V V+ - I| = 2.436e+01 > 1e-10"),
    "non_unitary_U_prime": (
        {"U_prime": NOT_UNITARY},
        "field 'U_prime': matrix is not unitary: max|V V+ - I| = 2.430e+01 > 1e-10"),
    "both_non_unitary": (
        {"U": NOT_UNITARY, "U_prime": NOT_UNITARY},
        "field 'U': matrix is not unitary: max|V V+ - I| = 2.436e+01 > 1e-10"),
    "non_unitary_U_then_non_finite_U_prime": (
        {"U": NOT_UNITARY, "U_prime": _at([1, 2, 0], math.nan)},
        "field 'U': matrix is not unitary: max|V V+ - I| = 2.436e+01 > 1e-10"),
    "non_finite_U_then_non_unitary_U_prime": (
        {"U": _at([1, 2, 0], math.nan), "U_prime": NOT_UNITARY},
        "field 'U': matrix entries must be finite"),
    "non_unitary_U_then_malformed_U_prime": (
        {"U": NOT_UNITARY, "U_prime": _at([1, 2, 0], True)},
        "field 'U_prime' entry (2,3) must be a [re, im] pair"),
}


@pytest.mark.parametrize("case", PAIR_FAULT_ORDER)
def test_pair_faults_are_named_structure_first_then_in_field_order(case, tmp_path, capsys):
    faults, message = PAIR_FAULT_ORDER[case]
    doc = _fixture_doc("U")
    for field, fault in faults.items():
        doc[field] = fault(doc[field])
    assert _input_error(doc, tmp_path, capsys) == f"error: {message}\n"


def test_integer_with_too_many_digits_is_input_error(tmp_path, capsys):
    with open(N3_FIXTURE, encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "digits.json"
    path.write_text(text.replace('"n": 3', '"n": 3, "pad": ' + "9" * 5000, 1))
    assert main(["det", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: not valid JSON: ")


# ---------------------------------------------------------------- parser reuse

def test_back_to_back_main_calls_share_no_state(tmp_path, capsys):
    from jarlskog.cli import build_parser

    assert build_parser() is not build_parser()
    assert main(["det", N4_FIXTURE, "--method", "direct"]) == 0
    direct = capsys.readouterr().out
    assert "det_closed" not in direct and "agreement" not in direct
    # an option given once must not stick to the next call
    assert main(["det", N4_FIXTURE, "--tol-rel", "0", "--tol-abs", "0"]) == 2
    assert "agreement: FAIL" in capsys.readouterr().out
    assert main(["det", N4_FIXTURE]) == 0
    default = capsys.readouterr().out
    assert default.startswith(direct) and "agreement: pass" in default
    # nor may a parse error
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "not-a-number"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["sample", "--seed", "4", "--out", str(tmp_path / "s.json")]) == 0
    assert json.loads((tmp_path / "s.json").read_text())["n"] == 4


# ---------------------------------------------------------------- every input-error exit

OVERFLOW = "error: {} is not a finite number ({}); a and b are too large for float64\n"
REFUSED = "error: refusing to overwrite existing report '{tmp}/taken' (reports are append-only)\n"

#: (argv, exit code, exact stderr) of each input-error exit of a command,
#: with {tmp} standing for the directory of error_path_files.  Each leaves
#: stdout empty.
ERROR_PATHS = [
    (["det", "{tmp}/missing.json"], 1,
     "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
    (["phases", "{tmp}/missing.json"], 1,
     "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
    (["det", "{tmp}/n5.json", "--method", "closed"], 1,
     "error: no closed form for n=5; closed evaluation supports n in {{3, 4}}\n"),
    (["det", "{tmp}/n5.json", "--method", "both"], 1,
     "error: no closed form for n=5; closed evaluation supports n in {{3, 4}}\n"),
    (["det", "{tmp}/big3.json", "--method", "direct"], 1,
     OVERFLOW.format("det_direct", "nan +nanj")),
    (["det", "{tmp}/big3.json", "--method", "closed"], 1,
     OVERFLOW.format("det_closed", "nan -infj")),
    (["det", "{tmp}/big3.json", "--method", "both"], 1,
     OVERFLOW.format("det_direct", "nan +nanj")),
    (["det", "{tmp}/big4.json", "--method", "direct"], 1,
     OVERFLOW.format("det_direct", "nan +nanj")),
    (["det", "{tmp}/big4.json", "--method", "closed"], 1,
     OVERFLOW.format("det_closed", "nan +nanj")),
    (["det", "{tmp}/big4.json", "--method", "both"], 1,
     OVERFLOW.format("det_direct", "nan +nanj")),
    (["phases", "{tmp}/n5.json"], 1, "error: phase reports support n in {{3, 4}}, got n=5\n"),
    (["verify", "--n", "5"], 1, "error: verification suites exist for n in {{3, 4}}, got n=5\n"),
    (["verify", "--trials", "0"], 1, "error: trials must be >= 1\n"),
    (["sample", "--n", "9"], 1, "error: dimension 9 unsupported (need 2 <= n <= 8)\n"),
    (["phases", N3_FIXTURE, "--out", "{tmp}/taken"], 1, REFUSED),
    (["verify", "--n", "3", "--trials", "2", "--out", "{tmp}/taken"], 1, REFUSED),
    (["sample", "--out", "{tmp}/taken"], 1, REFUSED),
]


@pytest.fixture(scope="module")
def error_path_files(tmp_path_factory):
    """A directory holding an n=5 problem, the n=3 and n=4 fixtures with a
    and b scaled by 1e60 (which overflows both determinant routes) and an
    existing file named taken."""
    tmp = tmp_path_factory.mktemp("error_paths")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sample", "--n", "5", "--seed", "2", "--out", str(tmp / "n5.json")]) == 0
    for name, fixture in (("big3", N3_FIXTURE), ("big4", N4_FIXTURE)):
        with open(fixture, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in ("a", "b"):
            doc[key] = [x * 1e60 for x in doc[key]]
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    (tmp / "taken").write_text("")
    return str(tmp)


@pytest.mark.parametrize(("argv", "code", "stderr"), ERROR_PATHS,
                         ids=[" ".join(argv).replace("{tmp}/", "") for argv, *_ in ERROR_PATHS])
def test_input_error_exits_with_its_exact_message_and_no_stdout(
        argv, code, stderr, error_path_files, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([x.format(tmp=error_path_files) for x in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    # verify's wall time is the one stderr line that is not a fixed message
    kept = "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("wall_time_s:"))
    assert kept == stderr.format(tmp=error_path_files)
    assert caught == []
