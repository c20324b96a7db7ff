"""Acceptance suite: every headline guarantee at its stated tolerance.

Criteria 01-10 read the rows of one seeded `run_suite` report per n in
{3, 4}, so each identity is computed by the same code that `verify` runs.
Each criterion asserts, for every row it reads, that the row passed over the
expected number of trials under exactly the bound label stated here: a bound
loosened in `verify` fails the criterion.  The few checks a report cannot
answer stay as short direct checks on the first draws of the same ensemble.

Each test prints one pass/fail line (use `pytest -s tests/test_acceptance.py`
to watch them).  Ensembles are seeded, so every number here is reproducible.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import haar_unitaries, phase

from jarlskog import (
    UnitaryMatrix,
    jr_matrices,
    n3_phase_table,
    phase_table,
    reconstruct_J,
)
from jarlskog.verify import run_suite

MASTER_SEED = 987654321
TRIALS = 10_000
#: draws of the direct checks: the first draws of the report's ensemble
DIRECT_DRAWS = 1000
#: seconds each report took to run, keyed by its suite name
REPORT_SECONDS = {}


def announce(number, description, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(
        f"acceptance {number:02d} {description}: {status} ({detail}) [{elapsed:.2f} s]",
        flush=True,
    )


@pytest.fixture(scope="module")
def reports():
    out = {}
    for n in (3, 4):
        started = time.perf_counter()
        out[n] = run_suite(n, TRIALS, MASTER_SEED)
        REPORT_SECONDS[out[n].suite] = time.perf_counter() - started
    return out


def haar_draws(n, count):
    """The mixing matrices of the report's first `count` trials: trial t
    draws V first from the stream seeded with derive_seed(MASTER_SEED, t)."""
    return haar_unitaries(n, count, MASTER_SEED)


def criterion(number, description, started, expected, direct=()):
    """Announce and assert criterion `number`.

    expected holds (report, row name, bound label, trial count) per report
    row; direct holds (ok, detail) per check the report cannot answer.  The
    printed time is the criterion's own time plus that of the reports it
    reads.
    """
    found, details = [], []
    for report, name, bound, count in expected:
        (row,) = [r for r in report.identities if r.name == name]
        found.append((row, (True, count, bound)))
        details.append(f"{report.suite} {name} worst {row.max_residual:.3e} vs {row.bound}, "
                       f"{row.count} trials")
    ok = all((row.passed, row.count, row.bound) == want for row, want in found)
    ok = ok and all(check for check, _ in direct)
    details += [detail for _, detail in direct]
    elapsed = time.perf_counter() - started + sum(
        {r.suite: REPORT_SECONDS[r.suite] for r, *_ in expected}.values())
    announce(number, description, ok, "; ".join(details), elapsed)
    for row, want in found:
        assert (row.passed, row.count, row.bound) == want, row.name
    for check, detail in direct:
        assert check, detail


def test_acceptance_01_closed_form_n3(reports):
    criterion(1, "n=3 closed form vs direct determinant, 10^4 trials", time.perf_counter(),
              [(reports[3], "closed_form_n3_vs_direct", "1e-10*max(1,|det|)", TRIALS)])


def test_acceptance_02_closed_form_n4(reports):
    criterion(2, "n=4 closed form vs direct determinant, 10^4 trials", time.perf_counter(),
              [(reports[4], "closed_form_n4_vs_direct", "1e-09*max(1,|det|)", TRIALS)])


def test_acceptance_03_parity(reports):
    criterion(3, "determinant parity (imaginary for n=3, real for n=4)", time.perf_counter(),
              [(reports[3], "parity_no_real_part", "1e-09*|det| + 1e-12", TRIALS),
               (reports[4], "parity_no_imag_part", "1e-09*|det| + 1e-12", TRIALS)])


def test_acceptance_04_difference_factor_sum_rule(reports):
    # each trial checks both of its spectra
    criterion(4, "difference-factor sum rule over 2*10^4 spectra", time.perf_counter(),
              [(reports[4], "difference_factor_sum", "1e-12 (relative)", TRIALS)])


def test_acceptance_05_unitarity_sum_rules(reports):
    criterion(5, "unitarity sum rules over 10^4 Haar samples per n in {3,4}",
              time.perf_counter(),
              [(reports[n], name, "1e-13", TRIALS)
               for n in (3, 4) for name in ("unitarity_sums_imag", "unitarity_sums_real")])


def test_acceptance_06_single_phase_structure(reports):
    # the det link 2i T B base is det3_closed, covered by criterion 01
    started = time.perf_counter()
    im = np.array([v.plaquettes[1] for v in haar_draws(3, DIRECT_DRAWS)])
    indeterminate = int(n3_phase_table(phase_table(im))[3].sum())
    criterion(6, "n=3 single-phase sign table", started,
              [(reports[3], "single_phase_sign_table", "1e-12*max(1,|base|)", TRIALS)],
              [(indeterminate == 0,
                f"{indeterminate} indeterminate base phases in {DIRECT_DRAWS} draws")])


def test_acceptance_07_phase_expansion(reports):
    started = time.perf_counter()
    worst_spot = 0.0
    for v in haar_draws(4, DIRECT_DRAWS):
        j = jr_matrices(v.plaquettes[:, None])[0][0]
        spots = (
            phase(v, 1, 2, 2, 4).imag - (j[0, 0] - j[0, 1]),
            phase(v, 1, 2, 1, 3).imag - (-j[0, 1] + j[0, 2]),
            phase(v, 1, 2, 1, 4).imag - (-j[0, 0] + j[0, 1] - j[0, 2]),
        )
        # np.max, unlike the built-in max, returns NaN if any value is NaN
        worst_spot = float(np.max(np.abs([worst_spot, *spots])))
    criterion(7, "36-phase expansion from J, 10^4 trials", started,
              [(reports[4], "phase_expansion_36", "1e-12", TRIALS)],
              [(worst_spot <= 1e-12,
                f"worst spot value {worst_spot:.3e} vs 1e-12 in {DIRECT_DRAWS} draws")])


def test_acceptance_08_product_identities(reports):
    criterion(8, "product identities over 10^4 trials (all index tuples)", time.perf_counter(),
              [(reports[n], "product_identities", "1e-12", TRIALS) for n in (3, 4)])


def test_acceptance_09_band_reconstruction(reports):
    started = time.perf_counter()
    report = reports[4]
    identity_flagged = reconstruct_J(UnitaryMatrix(np.eye(4))).degenerate
    criterion(9, "band reconstruction of J from its diagonal", started,
              [(report, "band_reconstruction", "1e-09*max(1,max|J|)",
                round(report.gate_pass_rate * TRIALS))],
              [(report.gate_pass_rate > 0, f"gate pass rate {report.gate_pass_rate:.3f}"),
               (identity_flagged, f"identity degenerate {identity_flagged}")])


def test_acceptance_10_rephasing_invariance(reports):
    criterion(10, "rephasing invariance, 10^4 rephasings per n in {3,4}", time.perf_counter(),
              [(reports[n], name, bound, TRIALS) for n in (3, 4)
               for name, bound in (("rephasing_phase_shift", "1e-12"),
                                   ("rephasing_det_shift", "1e-10*max(1,|det|)"))])


def test_acceptance_12_verification_reports_are_bit_identical(tmp_path):
    started = time.perf_counter()
    ok = True
    for n in (3, 4):
        paths = []
        for run in (1, 2):
            out = tmp_path / f"report_n{n}_run{run}.txt"
            res = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "jarlskog",
                    "verify",
                    "--n",
                    str(n),
                    "--trials",
                    "100",
                    "--seed",
                    "13579",
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            ok = ok and res.returncode == 0
            paths.append(out)
        ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - started
    announce(
        12,
        "verification reports bit-identical across runs (n=3 and n=4)",
        ok,
        "100 trials, seed 13579",
        elapsed,
    )
    assert ok
