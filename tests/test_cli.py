import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, haar, haar_unitaries, record_validations, seeded_input
from jarlskog import linalg, phases, problem_io
from jarlskog.cli import main
from jarlskog.problem_io import ProblemFileError, parse_problem, render_problem
from jarlskog.verify import IdentityResult, run_suite

DATA = os.path.join(os.path.dirname(__file__), "data")
N4_FIXTURE = os.path.join(DATA, "problem_n4_seed2024.json")
N3_FIXTURE = os.path.join(DATA, "problem_n3_seed501.json")
U_FIXTURE = os.path.join(DATA, "problem_n3_uu_seed601.json")
N3_IDENTITY = os.path.join(DATA, "problem_n3_identity.json")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "jarlskog", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# ---------------------------------------------------------------- file format

def rendered(inp):
    """The problem file text of a MassPairInput."""
    return render_problem(inp.a.values, inp.b.values, inp.v.matrix)


def test_problem_round_trip_is_bitwise():
    inp = seeded_input(4, 8)
    back = parse_problem(rendered(inp))
    assert back.a.values == inp.a.values
    assert back.b.values == inp.b.values
    assert np.array_equal(back.v.matrix, inp.v.matrix)


def test_problem_with_diagonalising_pair():
    u, up = haar_unitaries(3, 2, 9)
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
    return rendered(seeded_input(3, 3))


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
        for name, u in zip(("U", "U_prime"), haar_unitaries(3, 2, 9)):
            doc[name] = [[[float(z.real), float(z.imag)] for z in row] for row in u.matrix]
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


@pytest.mark.parametrize(("seed", "same_as"), ((-1, 2 ** 64 - 1), (2 ** 64 + 5, 5)))
def test_sample_seed_names_the_stream_of_its_value_mod_2_64(capsys, seed, same_as):
    outputs = []
    for s in (seed, same_as):
        assert main(["sample", "--n", "4", "--seed", str(s)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == [rendered(seeded_input(4, same_as))] * 2


@pytest.mark.parametrize(("seed", "same_as"), ((-1, 2 ** 64 - 1), (2 ** 64 + 5, 5)))
def test_verify_runs_and_prints_its_seed_mod_2_64(capsys, seed, same_as):
    outputs = []
    for s in (seed, same_as):
        assert main(["verify", "--n", "3", "--trials", "2", "--seed", str(s)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out == outputs[1].out
    assert f"\nmaster_seed: {same_as}\n" in outputs[0].out


def test_sample_round_trips_through_parser():
    out = run_cli("sample", "--n", "3", "--seed", "5")
    inp = parse_problem(out.stdout)
    assert inp.n == 3
    assert inp.v.unitarity_defect <= 1e-12
    assert inp.a.min_gap >= 0.05
    assert rendered(inp) == out.stdout


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


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "jarlskog" in res.stdout


# ---------------------------------------------------------------- NaN residuals

def test_record_fails_and_keeps_a_nan_residual():
    result = IdentityResult(name="x", bound="1")
    result.record_row([0.5, math.nan, 0.9], 1.0, [3, 7, 8])
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_seed == 7


def record_per_trial(result, residuals, limits, seeds):
    """The reference of IdentityResult.record_row: add the trials one at a
    time, each with its own limit."""
    for residual, limit, seed in zip(residuals, limits, seeds):
        if (result.count == 0 or residual > result.max_residual
                or (math.isnan(residual) and not math.isnan(result.max_residual))):
            result.max_residual = residual
            result.worst_seed = seed
        result.sum_residual += residual
        result.count += 1
        if not residual <= limit:
            result.passed = False


def outcome(result):
    """The fields of an IdentityResult, floats as bit patterns."""
    return (bits([result.max_residual, result.sum_residual]).tolist(), result.count,
            result.worst_seed, result.passed)


NAN = math.nan
#: rows of residuals, each recorded with seeds 10, 11, ... and limit 1.0
#: or a list of limits, in one or more record_row calls (the chunks)
AGGREGATION_CASES = {
    "nan_first": [[NAN, 0.5, 0.9]],
    "nan_in_the_middle": [[0.5, NAN, 0.9, NAN]],
    "nan_last": [[0.5, 0.9, NAN]],
    "nan_after_a_chunk": [[0.5, 0.9], [0.2, NAN, 3.0]],
    "nan_before_a_chunk": [[NAN, 0.5], [0.9, NAN]],
    "tied_maxima": [[0.5, 0.9, 0.2, 0.9]],
    "tied_across_chunks": [[0.9, 0.1], [0.9, 0.3]],
    "negative_zeros": [[-0.0, 0.0, -0.0]],
    "negative_zeros_after_positive": [[0.0, -0.0], [-0.0]],
    "all_negative_zeros": [[-0.0, -0.0], [-0.0]],
    "over_the_limit": [[0.5, 1.5, 0.2]],
    "larger_in_a_later_chunk": [[0.1, 0.2], [0.2, 0.7], [0.7]],
    "empty_chunk": [[0.4], [], [0.3, 0.5]],
}
LIMIT_CASES = {"scalar": 1.0, "per_trial": [1.0, 2.0, -math.inf, NAN, 1.0, 0.5, 1.0, 1.0]}


@pytest.mark.parametrize("limits", LIMIT_CASES)
@pytest.mark.parametrize("case", AGGREGATION_CASES)
def test_record_row_is_bit_equal_to_the_per_trial_loop(case, limits):
    got, ref = IdentityResult(name="x", bound="1"), IdentityResult(name="x", bound="1")
    limit, first = LIMIT_CASES[limits], 10
    for chunk in AGGREGATION_CASES[case]:
        seeds = list(range(first, first + len(chunk)))
        per_trial = limit[:len(chunk)] if isinstance(limit, list) else [limit] * len(chunk)
        got.record_row(chunk, per_trial if isinstance(limit, list) else limit, seeds)
        record_per_trial(ref, chunk, per_trial, seeds)
        first += len(chunk)
    assert outcome(got) == outcome(ref)


@pytest.mark.parametrize("n", (3, 4))
def test_run_suite_aggregates_bit_equal_to_the_per_trial_loop(n, monkeypatch):
    # TRIAL_CHUNK + 5 trials carry every sum across a chunk boundary, and at
    # n = 4 the band row keeps a partial mask in both chunks
    import jarlskog.verify as verify

    exact_reconstructions, exact_chunk = verify._reconstructions, verify._check_chunk

    def gate_fails_on_trials_1_and_3(cols, j, r):
        ratio, degenerate, recon, max_error = exact_reconstructions(cols, j, r)
        degenerate[[1, 3]] = True
        max_error[[1, 3]] = math.nan
        return ratio, degenerate, recon, max_error

    chunks = []

    def kept_chunk(n, seeds, *args):
        rows = exact_chunk(n, seeds, *args)
        chunks.append((seeds, rows))
        return rows

    monkeypatch.setattr(verify, "_reconstructions", gate_fails_on_trials_1_and_3)
    monkeypatch.setattr(verify, "_check_chunk", kept_chunk)
    report = run_suite(n, verify.TRIAL_CHUNK + 5, 23)
    assert len(chunks) == 2
    expected = [IdentityResult(name=name, bound=bound) for name, bound, *_ in chunks[0][1]]
    for seeds, rows in chunks:
        for result, (_, _, residual, limit, kept) in zip(expected, rows):
            mask = np.ones(len(seeds), dtype=bool) if kept is None else kept
            record_per_trial(result, residual[mask].tolist(),
                             np.broadcast_to(limit, residual.shape)[mask].tolist(),
                             seeds[mask].tolist())
    assert [outcome(r) for r in report.identities] == [outcome(r) for r in expected]
    if n == 4:
        assert report.identities[-1].count == verify.TRIAL_CHUNK + 5 - 4


def test_verify_reports_an_injected_nan_residual_as_fail(monkeypatch):
    import jarlskog.verify as verify

    exact = verify._antisymmetry_residuals

    def nan_on_trial_2(plaq):
        out = exact(plaq)
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
    # the product identities read only the store columns of the index
    # tuples that their table keeps, so some columns are never read there;
    # a store whose symmetry breaks at such a column (one with a partner of
    # its own, a != b and j != k) must still fail verify
    import jarlskog.verify as verify

    read = set(phases._product_table(n)[0].ravel().tolist())
    k = n * n * (n * n + 1) // 2
    target = next(c for c, partner in enumerate(linalg._plaquette_layout(n)[2].tolist())
                  if partner != c and k + c not in read)
    exact = verify._validate_unitaries

    def flip_one_im_bit_of_trial_2(m):
        defects, cols, plaq = exact(m)
        plaq[1].view(np.uint64)[target, 2] ^= np.uint64(1)
        return defects, cols, plaq

    monkeypatch.setattr(verify, "_validate_unitaries", flip_one_im_bit_of_trial_2)
    report = run_suite(n, 5, 11)
    row = next(r for r in report.identities if r.name == "phase_antisymmetry_bitwise")
    assert not row.passed
    assert row.worst_seed == verify.derive_seed(11, 2)
    assert [r.name for r in report.identities if not r.passed] == [row.name]
    assert report.render().endswith("\noverall: FAIL\n")


@pytest.mark.parametrize("part", ("re", "im"))
@pytest.mark.parametrize("n", (3, 4))
def test_verify_fails_a_plaquette_entry_that_breaks_the_sum_rule_symmetry(n, part, monkeypatch):
    # the sum rules take only the alpha and j sums, and read the beta and k
    # families through the symmetry of re and the antisymmetry of im; one
    # store column off by an ulp, here (12;12), the first, leaves every
    # other row passing, so the antisymmetry row alone must fail it
    import jarlskog.verify as verify

    exact = verify._validate_unitaries

    def flip_one_bit_of_trial_2(m):
        defects, cols, plaq = exact(m)
        plaq[("re", "im").index(part)].view(np.uint64)[0, 2] ^= np.uint64(1)
        return defects, cols, plaq

    monkeypatch.setattr(verify, "_validate_unitaries", flip_one_bit_of_trial_2)
    report = run_suite(n, 5, 11)
    row = next(r for r in report.identities if r.name == "phase_antisymmetry_bitwise")
    assert not row.passed
    assert row.worst_seed == verify.derive_seed(11, 2)
    assert [r.name for r in report.identities if not r.passed] == [row.name]


@pytest.mark.parametrize("part", ("re", "im"))
@pytest.mark.parametrize("n", (3, 4))
def test_one_ulp_in_a_rephased_canonical_column_shows_in_the_phase_shift_row_alone(
        n, part, monkeypatch):
    # with the rephasing made the identity, the rephased stores are V's own
    # and the phase shift row reads exactly 0; one ulp added to the last
    # canonical column of trial 2's rephased copy, which no closed form
    # reads, must show in that row on that trial and move no other row
    import jarlskog.verify as verify

    monkeypatch.setattr(verify, "rephase", lambda v, row, col: v.copy())
    seeds = verify.derive_seed(11, np.arange(5))

    def residuals():
        return {name: residual for name, _, residual, *_ in verify._check_chunk(
            n, seeds, verify.CLOSED_REL[n], verify.PARITY_ABS)}

    exact, validate = residuals(), verify._validate_unitaries
    column = (n * (n - 1) // 2) ** 2 - 1

    def one_ulp_off(m):
        defects, cols, plaq = validate(m)
        x = plaq[("re", "im").index(part), :, len(seeds) + 2]
        x[column] = np.nextafter(x[column], np.inf)
        return defects, cols, plaq

    monkeypatch.setattr(verify, "_validate_unitaries", one_ulp_off)
    mutated = residuals()
    shift = mutated.pop("rephasing_phase_shift")
    assert not exact.pop("rephasing_phase_shift").any()
    assert shift[2] > 0.0 and not np.delete(shift, 2).any()
    assert list(mutated) == list(exact)
    for name in exact:
        assert np.array_equal(bits(mutated[name]), bits(exact[name])), name


def test_importing_the_cli_builds_no_product_table():
    # the product and sum rule tables are built on first use, not at import
    code = ("import jarlskog.cli, jarlskog.phases as p; "
            "print(*(f.cache_info().currsize for f in (p._product_table, p._sum_rule_table)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0 0\n"


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
    parts = [x for z in haar(4, 61).matrix.ravel().tolist() for x in (z.real, z.imag)]
    numbers = json.loads(json.dumps(edge + parts))[:32]
    raw = [[numbers[8 * i + 2 * j:8 * i + 2 * j + 2] for j in range(4)] for i in range(4)]
    parsed = problem_io._parse_complex_matrix(raw, 4, "V")
    expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in raw])
    assert np.array_equal(bits(parsed.view(np.float64)), bits(expected.view(np.float64)))

    values = [2 ** 53 + 1, -(2 ** 63) - 7, 10 ** 308, -0.0, 5e-324, 3, 0.1, parts[0]]
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
OVERFLOWING = _at([1, 2], [1e300, 0.0])


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
    # a finite entry of 1e300 overflows its factor's V V^+ to inf, and in
    # both factors V = U^+ U_prime too; the factor fails first, U before
    # U_prime, with no warning from the overflowing V
    "overflowing_U_prime": (
        {"U_prime": OVERFLOWING},
        "field 'U_prime': matrix is not unitary: max|V V+ - I| = inf > 1e-10"),
    "overflowing_U": (
        {"U": OVERFLOWING},
        "field 'U': matrix is not unitary: max|V V+ - I| = inf > 1e-10"),
    "overflowing_U_then_overflowing_U_prime": (
        {"U": OVERFLOWING, "U_prime": OVERFLOWING},
        "field 'U': matrix is not unitary: max|V V+ - I| = inf > 1e-10"),
}


@pytest.mark.parametrize("case", PAIR_FAULT_ORDER)
def test_pair_faults_are_named_structure_first_then_in_field_order(case, tmp_path, capsys):
    faults, message = PAIR_FAULT_ORDER[case]
    doc = _fixture_doc("U")
    for field, fault in faults.items():
        doc[field] = fault(doc[field])
    assert _input_error(doc, tmp_path, capsys) == f"error: {message}\n"


#: a problem file of each kind: n = 3 and n = 4, in the V and the U/U_prime forms
PROBLEM_KINDS = ("problem_n3_seed501.json", "problem_n3_uu_seed601.json",
                 "problem_n4_seed2024.json", "problem_n4_uu_seed602.json")


@pytest.mark.parametrize("argv", (["det", "--method", "both"], ["phases"]), ids=("det", "phases"))
@pytest.mark.parametrize("name", PROBLEM_KINDS)
def test_a_problem_command_validates_one_stack_and_reads_its_store(
        name, argv, monkeypatch, capsys):
    # one validation per command: the stack of V, or of U, U_prime and V,
    # whose results give V's UnitaryMatrix its column products and store
    path = os.path.join(DATA, name)
    assert main([argv[0], path, *argv[1:]]) == 0
    plain = capsys.readouterr().out
    calls, built = record_validations(monkeypatch)
    assert main([argv[0], path, *argv[1:]]) == 0
    assert capsys.readouterr().out == plain
    assert len(calls) == 1 and len(built) == 1
    [(stack, (defects, cols, plaq))], [v] = calls, built
    assert len(stack) == (3 if "_uu_" in name else 1)
    assert np.array_equal(bits(v.matrix.view(float)), bits(stack[-1].view(float)))
    assert v.unitarity_defect == defects[-1]
    assert np.array_equal(bits(v.plaquettes), bits(plaq[..., -1]))
    for got, ref in zip(v.column_products, cols):
        assert np.array_equal(bits(got), bits(ref[..., -1]))
    for x in (v.matrix, v.plaquettes, *v.column_products):
        assert not x.flags.writeable
    with pytest.raises(ValueError):
        v.plaquettes[0, 0] = 0.0
    with pytest.raises(AttributeError):
        v.plaquettes = plaq[..., -1].copy()


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
#: a matrix entry of +-1e308 overflows V V^+ to inf, a defect that fails
NOT_UNITARY_INF = "error: field '{}': matrix is not unitary: max|V V+ - I| = inf > 1e-10\n"

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
    (["verify", "--n", "5", "--trials", "5"], 1,
     "error: verification suites exist for n in {{3, 4}}, got n=5\n"),
    (["verify", "--trials", "0"], 1, "error: trials must be >= 1\n"),
    (["verify", "--n", "3", "--trials", "0"], 1, "error: trials must be >= 1\n"),
    (["sample", "--n", "9"], 1, "error: dimension 9 unsupported (need 2 <= n <= 8)\n"),
    (["sample", "--n", "12", "--seed", "0"], 1,
     "error: dimension 12 unsupported (need 2 <= n <= 8)\n"),
    (["phases", N3_FIXTURE, "--out", "{tmp}/taken"], 1, REFUSED),
    (["verify", "--n", "3", "--trials", "2", "--out", "{tmp}/taken"], 1, REFUSED),
    (["sample", "--out", "{tmp}/taken"], 1, REFUSED),
    (["det", "{tmp}/huge_entry.json", "--method", "both"], 1, NOT_UNITARY_INF.format("V")),
    (["phases", "{tmp}/huge_entry.json"], 1, NOT_UNITARY_INF.format("V")),
    (["det", "{tmp}/huge_negative_entry.json", "--method", "both"], 1,
     NOT_UNITARY_INF.format("V")),
    (["phases", "{tmp}/huge_negative_entry.json"], 1, NOT_UNITARY_INF.format("V")),
    (["det", "{tmp}/huge_u_entry.json", "--method", "both"], 1, NOT_UNITARY_INF.format("U")),
]


@pytest.fixture(scope="module")
def error_path_files(tmp_path_factory):
    """A directory holding an n=5 problem, the n=3 and n=4 fixtures with a
    and b scaled by 1e60 (which overflows both determinant routes), the n=4
    fixture with V[0][0] = +-1e308 and the n=3 U-form fixture with
    U[0][0] = 1e308 (which overflow the unitarity check), and an existing
    file named taken."""
    tmp = tmp_path_factory.mktemp("error_paths")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sample", "--n", "5", "--seed", "2", "--out", str(tmp / "n5.json")]) == 0
    for name, fixture in (("big3", N3_FIXTURE), ("big4", N4_FIXTURE)):
        with open(fixture, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in ("a", "b"):
            doc[key] = [x * 1e60 for x in doc[key]]
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    for name, fixture, key, x in (("huge_entry", N4_FIXTURE, "V", 1e308),
                                  ("huge_negative_entry", N4_FIXTURE, "V", -1e308),
                                  ("huge_u_entry", U_FIXTURE, "U", 1e308)):
        with open(fixture, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[key][0][0] = [x, 0.0]
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


def json_nodes(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


#: the n=3 and n=4 problem fixtures, with the path of every node in each
FUZZ_FIXTURES = []
for _fixture in (N3_FIXTURE, N4_FIXTURE):
    with open(_fixture, encoding="utf-8") as _fh:
        _doc = json.load(_fh)
    FUZZ_FIXTURES.append((_doc, list(json_nodes(_doc))))
#: the values a fuzzed node takes: wrong types, numbers at and past the
#: float range, NaN, signed and subnormal zeros and an integer that a float
#: cannot hold
FUZZ_VALUES = (None, True, "x", 1e308, -1e308, math.nan, 1e30, [], {}, [0.5, 0.5], -0.0,
               5e-324, 2 ** 53 + 1)


def run_main(argv):
    """(exit code, stdout, stderr) of cli.main(argv), argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_an_input_error(argv, out, err):
    """Exit 1's output: nothing on stdout, and on stderr one error line, or
    argparse's usage line and its error line."""
    lines = err.splitlines()
    assert (len(lines) == 1 and lines[0].startswith("error: ")
            or lines[0].startswith("usage: ") and "error: " in lines[-1]), (argv, err)
    assert out == "", argv


@settings(deadline=None, max_examples=150, database=None)
@given(fixture=st.sampled_from(FUZZ_FIXTURES), pick=st.integers(0, 10 ** 6),
       value=st.sampled_from(FUZZ_VALUES))
def test_a_problem_with_one_node_replaced_exits_on_purpose(fixture, pick, value):
    # every outcome is an exit code the CLI documents: 0 or 2 with a clean
    # stderr, or 1 with one error line (argparse's usage and error lines
    # if it refuses the arguments); no traceback and no numpy warning,
    # which the test configuration turns into an error
    doc, paths = fixture
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(replaced(doc, paths[pick % len(paths)], value), fh)
        for argv in (["det", path, "--method", "both"], ["phases", path]):
            code, out, err = run_main(argv)
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in err
            if code == 1:
                assert_an_input_error(argv, out, err)
            else:
                assert err == "", (argv, err)


#: the decimal digits of scripts whose digits int() reads: ASCII,
#: Arabic-Indic, Devanagari and fullwidth
DIGIT_SCRIPTS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                 "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
                 "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
#: integer arguments that int() refuses
BAD_INTEGERS = ("", "x", "1.5", "1e3", "nan", "-", "0x10", "3\x00", "\u0663.\u0660", "--3")
#: integers past every range the CLI accepts, and their negations
HUGE_INTEGERS = (10 ** 30, 2 ** 64, 2 ** 63)
#: seeds about 2^64 and -2^64, read mod 2^64
EDGE_SEEDS = tuple(s + d for s in (2 ** 64, -2 ** 64, 2 ** 63) for d in (-2, -1, 0, 1, 2))
#: tolerance arguments: not finite, signed zero, past the float range,
#: hexadecimal, negative, ordinary, not a number
TOLERANCES = ("nan", "inf", "-inf", "-0", "0", "1e400", "0x1p-3", "-1e-9", "1e-300", "1e-9",
              "1e308", "", "tol")
#: arguments after the options: none, unknown flags, flags with their
#: value missing, an ambiguous abbreviation, an unexpected positional
TRAILERS = ((), ("--bogus",), ("--bogus", "1"), ("--n",), ("--seed",), ("--trials",),
            ("--tol-rel",), ("--t", "1"), ("extra",))


def integer_text(draw, values, huge):
    """One integer argument: a bad one, one of huge, or one of values (a
    strategy), written in the digits of one of DIGIT_SCRIPTS."""
    kind = draw(st.sampled_from(("valid", "valid", "huge", "bad")))
    if kind == "bad":
        return draw(st.sampled_from(BAD_INTEGERS))
    value = draw(values if kind == "valid" else st.sampled_from(huge))
    return str(value).translate(str.maketrans(DIGIT_SCRIPTS[0],
                                              draw(st.sampled_from(DIGIT_SCRIPTS))))


@st.composite
def verify_or_sample_argv(draw):
    """A verify or sample command line with its options in any order and
    any subset.  Where verify would run its trials (--n absent, or read as
    3 or 4) it gets --trials, read as at most 3 or refused, so that no
    example runs long."""
    command = draw(st.sampled_from(("verify", "sample")))
    flags = ("--n", "--seed") + (("--trials", "--tol-rel", "--tol-abs") if command == "verify"
                                 else ())
    chosen = draw(st.lists(st.sampled_from(flags), unique=True))
    both_signs = HUGE_INTEGERS + tuple(-x for x in HUGE_INTEGERS)
    # n about the accepted ones: 3 and 4 for verify, 2..8 for sample
    low, high = (2, 5) if command == "verify" else (1, 9)
    options = {"--n": integer_text(draw, st.integers(low, high), both_signs),
               "--seed": draw(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(-5, 5)).map(str)
                              | st.sampled_from(BAD_INTEGERS)),
               "--tol-rel": draw(st.sampled_from(TOLERANCES)),
               "--tol-abs": draw(st.sampled_from(TOLERANCES))}
    try:
        runs = command == "verify" and int(options["--n"] if "--n" in chosen else 4) in (3, 4)
    except ValueError:
        runs = False
    if runs and "--trials" not in chosen:
        chosen.append("--trials")
    options["--trials"] = integer_text(draw, st.integers(-1, 3),
                                       tuple(-x for x in HUGE_INTEGERS) if runs else both_signs)
    # no trailer in about half the examples, so that some commands run
    trailer = draw(st.just(()) | st.sampled_from(TRAILERS))
    return [command] + [x for flag in chosen for x in (flag, options[flag])] + list(trailer)


@settings(deadline=None, max_examples=150, database=None)
@given(argv=verify_or_sample_argv())
# an identity violation (a zero closed-form tolerance) in Arabic-Indic and
# fullwidth digits, and a sample in Devanagari digits
@example(argv=["verify", "--n", "\u0663", "--trials", "\uff13", "--seed", str(2 ** 64 - 1),
               "--tol-rel", "-0"])
@example(argv=["sample", "--n", "\u096e", "--seed", str(-2 ** 64)])
def test_verify_and_sample_arguments_exit_on_purpose(argv):
    # exit 0 or 2 with a report on stdout and, on stderr, verify's wall
    # time alone (sample's stderr stays empty), or 1 with one error line
    # (argparse's usage and error lines if it refuses the arguments); no
    # traceback and no warning, which the test configuration turns into an
    # error
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert_an_input_error(argv, out, err)
    else:
        assert out, argv
        lines = err.splitlines()
        assert (len(lines) == 1 and lines[0].startswith("wall_time_s: ") if argv[0] == "verify"
                else err == ""), (argv, err)
