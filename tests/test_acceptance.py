"""Acceptance suite: every headline guarantee at its stated tolerance.

Each test prints one pass/fail line (use `pytest -s tests/test_acceptance.py`
to watch them); the asserts carry the same bounds as the printed lines.
Ensembles are seeded, so every number here is reproducible.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from jarlskog import (
    MassPairInput,
    RephasingAngles,
    SeededRng,
    UnitaryMatrix,
    derive_seed,
    det3_closed,
    det4_closed,
    det_direct,
    expand_phases,
    expansion_residual,
    haar_unitary,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    random_spectrum,
    reconstruct_J,
    rephase,
    t_factors,
    unitary_relation_residuals,
)

MASTER_SEED = 987654321


def nan_max(*values):
    """The largest of the values, or NaN if any is NaN.  The built-in max
    keeps its first argument when compared with NaN, so it would hide a NaN
    residual."""
    return float(np.max(values))


def announce(number, description, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(
        f"acceptance {number:02d} {description}: {status} ({detail}) [{elapsed:.2f} s]",
        flush=True,
    )


def trial_input(n, index, salt=0):
    rng = SeededRng(derive_seed(MASTER_SEED + salt, index))
    v = haar_unitary(n, rng)
    a = random_spectrum(n, rng)
    b = random_spectrum(n, rng)
    return MassPairInput(a=a, b=b, v=v)


class EnsembleN3:
    """Shared 1000-trial n=3 ensemble feeding criteria 1, 3 and 6."""

    def __init__(self):
        started = time.perf_counter()
        self.worst_closed = 0.0
        self.worst_parity_excess = 0.0
        self.worst_signs = 0.0
        self.worst_link = 0.0
        self.pattern_ok = True
        self.indeterminate = 0
        for t in range(1000):
            inp = trial_input(3, t)
            d = det_direct(inp)
            c = det3_closed(inp)
            self.worst_closed = nan_max(
                self.worst_closed, abs(c - d) / max(1.0, abs(d))
            )
            self.worst_parity_excess = nan_max(
                self.worst_parity_excess, abs(d.real) - (1e-9 * abs(d) + 1e-12)
            )
            rep = n3_phase_table(inp.v)
            if rep.indeterminate:
                self.indeterminate += 1
            else:
                self.pattern_ok = self.pattern_ok and rep.matches_expected()
                self.worst_signs = nan_max(
                    self.worst_signs, rep.max_residual / max(1.0, abs(rep.base))
                )
            a, b = inp.a.values, inp.b.values
            tt = (a[0] - a[1]) * (a[1] - a[2]) * (a[2] - a[0])
            bb = (b[0] - b[1]) * (b[1] - b[2]) * (b[2] - b[0])
            link = 2j * (tt * bb * rep.base)
            self.worst_link = nan_max(
                self.worst_link, abs(link - d) / max(1.0, abs(d))
            )
        self.elapsed = time.perf_counter() - started


class EnsembleN4:
    """Shared 1000-trial n=4 ensemble feeding criteria 2, 3, 7, 8 and 9."""

    def __init__(self):
        started = time.perf_counter()
        self.worst_closed = 0.0
        self.worst_parity_excess = 0.0
        self.worst_expansion = 0.0
        self.worst_spots = 0.0
        self.worst_products = 0.0
        self.worst_reconstruction = 0.0
        self.gate_passes = 0
        for t in range(1000):
            inp = trial_input(4, t)
            v = inp.v
            d = det_direct(inp)
            c = det4_closed(inp)
            self.worst_closed = nan_max(
                self.worst_closed, abs(c - d) / max(1.0, abs(d))
            )
            self.worst_parity_excess = nan_max(
                self.worst_parity_excess, abs(d.imag) - (1e-9 * abs(d) + 1e-12)
            )
            table = phase_table(v)
            jr = jr_matrices(v)
            self.worst_expansion = nan_max(
                self.worst_expansion, expansion_residual(table, expand_phases(jr))
            )
            j = jr.j_mat
            spots = (
                abs(table.im_value(1, 2, 2, 4) - (j[0, 0] - j[0, 1])),
                abs(table.im_value(1, 2, 1, 3) - (-j[0, 1] + j[0, 2])),
                abs(table.im_value(1, 2, 1, 4) - (-j[0, 0] + j[0, 1] - j[0, 2])),
            )
            self.worst_spots = nan_max(self.worst_spots, *spots)
            self.worst_products = nan_max(
                self.worst_products, nonlinear_relation_residuals(v).max_residual()
            )
            recon = reconstruct_J(v)
            if not recon.degenerate:
                self.gate_passes += 1
                scale = max(1.0, float(np.max(np.abs(recon.j_direct))))
                self.worst_reconstruction = nan_max(
                    self.worst_reconstruction, recon.max_error / scale
                )
        self.elapsed = time.perf_counter() - started


@pytest.fixture(scope="module")
def ensemble_n3():
    return EnsembleN3()


@pytest.fixture(scope="module")
def ensemble_n4():
    return EnsembleN4()


def test_acceptance_01_closed_form_n3(ensemble_n3):
    worst = ensemble_n3.worst_closed
    ok = worst <= 1e-10
    announce(
        1,
        "n=3 closed form vs direct determinant, 1000 trials",
        ok,
        f"worst rel {worst:.3e} vs 1e-10",
        ensemble_n3.elapsed,
    )
    assert ok


def test_acceptance_02_closed_form_n4(ensemble_n4):
    worst = ensemble_n4.worst_closed
    ok = worst <= 1e-9
    announce(
        2,
        "n=4 closed form vs direct determinant, 1000 trials",
        ok,
        f"worst rel {worst:.3e} vs 1e-9",
        ensemble_n4.elapsed,
    )
    assert ok


def test_acceptance_03_parity(ensemble_n3, ensemble_n4):
    started = time.perf_counter()
    ok = ensemble_n3.worst_parity_excess <= 0.0 and ensemble_n4.worst_parity_excess <= 0.0
    announce(
        3,
        "determinant parity (imaginary for n=3, real for n=4)",
        ok,
        f"worst bound excess n3 {ensemble_n3.worst_parity_excess:.3e}, "
        f"n4 {ensemble_n4.worst_parity_excess:.3e}",
        time.perf_counter() - started,
    )
    assert ok


def test_acceptance_04_difference_factor_sum_rule():
    started = time.perf_counter()
    rng = SeededRng(derive_seed(MASTER_SEED, 777))
    worst = 0.0
    for _ in range(10_000):
        tf = t_factors(random_spectrum(4, rng))
        worst = nan_max(worst, abs(tf.sum_rule_residual()) / tf.sum_rule_scale())
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12
    announce(
        4,
        "difference-factor sum rule over 10^4 spectra",
        ok,
        f"worst rel {worst:.3e} vs 1e-12",
        elapsed,
    )
    assert ok


def test_acceptance_05_unitarity_sum_rules():
    started = time.perf_counter()
    worst = 0.0
    for n in (3, 4):
        rng = SeededRng(derive_seed(MASTER_SEED, 500 + n))
        for _ in range(10_000):
            rep = unitary_relation_residuals(haar_unitary(n, rng))
            worst = nan_max(worst, rep.max_residual())
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-13
    announce(
        5,
        "unitarity sum rules over 10^4 Haar samples per n in {3,4}",
        ok,
        f"worst residual {worst:.3e} vs 1e-13",
        elapsed,
    )
    assert ok


def test_acceptance_06_single_phase_structure(ensemble_n3):
    started = time.perf_counter()
    ok = (
        ensemble_n3.pattern_ok
        and ensemble_n3.indeterminate == 0
        and ensemble_n3.worst_signs <= 1e-12
        and ensemble_n3.worst_link <= 1e-10
    )
    announce(
        6,
        "n=3 single-phase sign table and determinant link",
        ok,
        f"worst sign residual {ensemble_n3.worst_signs:.3e} vs 1e-12, "
        f"worst det link {ensemble_n3.worst_link:.3e} vs 1e-10",
        time.perf_counter() - started,
    )
    assert ok


def test_acceptance_07_phase_expansion(ensemble_n4):
    started = time.perf_counter()
    ok = ensemble_n4.worst_expansion <= 1e-12 and ensemble_n4.worst_spots <= 1e-12
    announce(
        7,
        "36-phase expansion from J over 1000 trials",
        ok,
        f"worst entry {ensemble_n4.worst_expansion:.3e}, "
        f"worst spot value {ensemble_n4.worst_spots:.3e} vs 1e-12",
        time.perf_counter() - started,
    )
    assert ok


def test_acceptance_08_product_identities(ensemble_n4):
    started = time.perf_counter()
    ok = ensemble_n4.worst_products <= 1e-12
    announce(
        8,
        "product identities over 1000 trials (all index tuples)",
        ok,
        f"worst residual {ensemble_n4.worst_products:.3e} vs 1e-12",
        time.perf_counter() - started,
    )
    assert ok


def test_acceptance_09_band_reconstruction(ensemble_n4):
    started = time.perf_counter()
    identity_flagged = reconstruct_J(UnitaryMatrix(np.eye(4))).degenerate
    rate = ensemble_n4.gate_passes / 1000.0
    ok = (
        identity_flagged
        and ensemble_n4.gate_passes > 0
        and ensemble_n4.worst_reconstruction <= 1e-9
    )
    announce(
        9,
        "band reconstruction of J from its diagonal",
        ok,
        f"worst scaled error {ensemble_n4.worst_reconstruction:.3e} vs 1e-9, "
        f"gate pass rate {rate:.3f}, identity degenerate {identity_flagged}",
        time.perf_counter() - started,
    )
    assert ok


def test_acceptance_10_rephasing_invariance():
    started = time.perf_counter()
    worst_phase = 0.0
    worst_det = 0.0
    for n in (3, 4):
        closed_fn = det3_closed if n == 3 else det4_closed
        for base_idx in range(100):
            inp = trial_input(n, base_idx, salt=1000 + n)
            base_table = phase_table(inp.v)
            base_jr = jr_matrices(inp.v) if n == 4 else None
            d0 = det_direct(inp)
            c0 = closed_fn(inp)
            rng = SeededRng(derive_seed(MASTER_SEED + 2000 + n, base_idx))
            for _ in range(100):
                angles = RephasingAngles(
                    tuple(2.0 * np.pi * rng.uniform() for _ in range(n)),
                    tuple(2.0 * np.pi * rng.uniform() for _ in range(n)),
                )
                w = rephase(inp.v, angles)
                table = phase_table(w)
                for tensor, base_tensor in ((table.im_tensor, base_table.im_tensor),
                                            (table.re_tensor, base_table.re_tensor)):
                    shift = table.canonical(tensor) - base_table.canonical(base_tensor)
                    worst_phase = nan_max(worst_phase, float(np.max(np.abs(shift))))
                if n == 4:
                    jr = jr_matrices(w)
                    worst_phase = nan_max(
                        worst_phase,
                        float(np.max(np.abs(jr.j_mat - base_jr.j_mat))),
                        float(np.max(np.abs(jr.r_mat - base_jr.r_mat))),
                    )
                inp_w = MassPairInput(a=inp.a, b=inp.b, v=w)
                d1 = det_direct(inp_w)
                c1 = closed_fn(inp_w)
                scale = max(1.0, abs(d0))
                worst_det = nan_max(
                    worst_det, abs(d1 - d0) / scale, abs(c1 - c0) / scale
                )
    elapsed = time.perf_counter() - started
    ok = worst_phase <= 1e-12 and worst_det <= 1e-10
    announce(
        10,
        "rephasing invariance, 100 rephasings x 100 bases, n in {3,4}",
        ok,
        f"worst phase shift {worst_phase:.3e} vs 1e-12, "
        f"worst det shift {worst_det:.3e} vs 1e-10",
        elapsed,
    )
    assert ok


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
