"""Seeded ensemble verification of every identity in the library.

A suite is a fixed list of identities checked over `trials` independent
draws.  Trial t uses the stream seeded with derive_seed(master_seed, t) and
draws, in order: the mixing matrix, the a-spectrum, the b-spectrum, and one
set of rephasing angles.  Residual accumulation follows trial order, so a
report is a pure function of (suite, master_seed, trials, tolerances): the
rendered text is byte-identical across runs.  Wall time is therefore kept
out of the rendered report and surfaced separately by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .determinant import (
    MassPairInput,
    det3_closed,
    det4_closed,
    det_direct,
    t_factors,
)
from .phases import (
    expand_phases,
    expansion_residual,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    reconstruct_J,
    unitary_relation_residuals,
)
from .sampling import (
    RephasingAngles,
    SeededRng,
    derive_seed,
    haar_unitary,
    random_spectrum,
    rephase,
)

#: default tolerances, keyed by identity name; (rel, abs) pairs where a
#: relative part applies
PARITY_REL = 1e-9
PARITY_ABS = 1e-12
#: closed form vs det_direct, by n; `det --method both` uses it too
CLOSED_REL = {3: 1e-10, 4: 1e-9}
SUM_RULE_ABS = 1e-13
SIGN_TABLE_REL = 1e-12
EXPANSION_ABS = 1e-12
PRODUCT_ABS = 1e-12
FACTOR_SUM_REL = 1e-12
RECONSTRUCT_REL = 1e-9
REPHASE_PHASE_ABS = 1e-12
REPHASE_DET_REL = 1e-10


@dataclass
class IdentityResult:
    """Aggregated outcome of one identity over the trial ensemble."""

    name: str
    bound: str
    max_residual: float = 0.0
    sum_residual: float = 0.0
    count: int = 0
    worst_seed: int = 0
    passed: bool = True

    def record(self, residual, limit, seed):
        if residual > self.max_residual or self.count == 0:
            self.max_residual = residual
            self.worst_seed = seed
        self.sum_residual += residual
        self.count += 1
        if residual > limit:
            self.passed = False

    @property
    def mean_residual(self):
        return self.sum_residual / self.count if self.count else 0.0


@dataclass
class VerificationReport:
    """Deterministic outcome of a verification suite."""

    suite: str
    master_seed: int
    trials: int
    tool_version: str
    identities: list
    gate_pass_rate: float | None = None
    wall_time_s: float | None = field(default=None, compare=False)

    def passed(self):
        return all(r.passed for r in self.identities)

    def render(self):
        lines = []
        lines.append("commutator-determinant identity verification")
        lines.append(f"tool_version: {self.tool_version}")
        lines.append(f"suite: {self.suite}")
        lines.append(f"master_seed: {self.master_seed}")
        lines.append(f"trials: {self.trials}")
        lines.append("")
        name_w = max(len(r.name) for r in self.identities)
        header = (
            f"{'identity':<{name_w}}  {'status':<6}  {'max_residual':<24}  "
            f"{'mean_residual':<24}  {'worst_seed':<20}  bound"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.identities:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"{r.name:<{name_w}}  {status:<6}  {r.max_residual:<24.17e}  "
                f"{r.mean_residual:<24.17e}  {r.worst_seed:<20d}  {r.bound}"
            )
        if self.gate_pass_rate is not None:
            lines.append("")
            lines.append(f"reconstruction_gate_pass_rate: {self.gate_pass_rate:.17e}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.passed() else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _antisymmetry_residual(table):
    """Exact comparison of the phase symmetries across the full tensors.

    The plaquette tensor evaluates every index order on its own operands,
    so entries at swapped indices are computed independently of each other.
    Both swaps conjugate the product exactly at the bit level, so the
    residual of a correct implementation is exactly zero.
    """
    im, re = table.im_tensor, table.re_tensor
    return float(max(
        np.max(np.abs(im + im.transpose(1, 0, 2, 3))),
        np.max(np.abs(im + im.transpose(0, 1, 3, 2))),
        np.max(np.abs(re - re.transpose(1, 0, 2, 3))),
        np.max(np.abs(re - re.transpose(0, 1, 3, 2))),
    ))


def _phase_shift(t1, t2):
    """Largest change of a canonical phase between two tables."""
    return float(max(
        np.max(np.abs(t2.canonical(t2.im_tensor) - t1.canonical(t1.im_tensor))),
        np.max(np.abs(t2.canonical(t2.re_tensor) - t1.canonical(t1.re_tensor))),
    ))


def run_suite(n, trials, master_seed, tol_rel=None, tol_abs=None):
    """Run the identity suite for dimension n in {3, 4} over `trials` draws.

    tol_rel overrides the closed-form-vs-direct relative tolerance; tol_abs
    overrides the parity absolute floor.  Everything else keeps its default.
    """
    if n not in (3, 4):
        raise ValueError(f"verification suites exist for n in {{3, 4}}, got n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    closed_rel = tol_rel if tol_rel is not None else CLOSED_REL[n]
    parity_abs = tol_abs if tol_abs is not None else PARITY_ABS

    results = {}

    def ident(name, bound):
        results[name] = IdentityResult(name=name, bound=bound)
        return results[name]

    parity_kind = "imag" if n % 2 == 0 else "real"
    parity = ident(
        f"parity_no_{parity_kind}_part",
        f"{PARITY_REL:.0e}*|det| + {parity_abs:.0e}",
    )
    closed = ident(
        f"closed_form_n{n}_vs_direct", f"{closed_rel:.0e}*max(1,|det|)"
    )
    antisym = ident("phase_antisymmetry_bitwise", "0 (exact)")
    sums_im = ident("unitarity_sums_imag", f"{SUM_RULE_ABS:.0e}")
    sums_re = ident("unitarity_sums_real", f"{SUM_RULE_ABS:.0e}")
    rephase_phases = ident("rephasing_phase_shift", f"{REPHASE_PHASE_ABS:.0e}")
    rephase_dets = ident(
        "rephasing_det_shift", f"{REPHASE_DET_REL:.0e}*max(1,|det|)"
    )
    products = ident("product_identities", f"{PRODUCT_ABS:.0e}")
    if n == 3:
        signs = ident(
            "single_phase_sign_table", f"{SIGN_TABLE_REL:.0e}*max(1,|base|)"
        )
    else:
        expansion = ident("phase_expansion_36", f"{EXPANSION_ABS:.0e}")
        factor_sum = ident("difference_factor_sum", f"{FACTOR_SUM_REL:.0e} (relative)")
        reconstruct = ident(
            "band_reconstruction", f"{RECONSTRUCT_REL:.0e}*max(1,max|J|)"
        )

    gate_passes = 0
    gate_total = 0

    for t in range(trials):
        seed = derive_seed(master_seed, t)
        rng = SeededRng(seed)
        v = haar_unitary(n, rng)
        a = random_spectrum(n, rng)
        b = random_spectrum(n, rng)
        angles = RephasingAngles(
            tuple(2.0 * math.pi * rng.uniform() for _ in range(n)),
            tuple(2.0 * math.pi * rng.uniform() for _ in range(n)),
        )
        inp = MassPairInput(a=a, b=b, v=v)

        d = det_direct(inp)
        if n % 2 == 0:
            parity.record(abs(d.imag), PARITY_REL * abs(d) + parity_abs, seed)
            c = det4_closed(inp)
        else:
            parity.record(abs(d.real), PARITY_REL * abs(d) + parity_abs, seed)
            c = det3_closed(inp)
        closed.record(abs(c - d), closed_rel * max(1.0, abs(d)), seed)

        table = phase_table(v)
        antisym.record(_antisymmetry_residual(table), 0.0, seed)

        rel = unitary_relation_residuals(v)
        im_worst = max(rel.families[k] for k in rel.families if k.startswith("im_"))
        re_worst = max(rel.families[k] for k in rel.families if k.startswith("re_"))
        sums_im.record(im_worst, SUM_RULE_ABS, seed)
        sums_re.record(re_worst, SUM_RULE_ABS, seed)

        products.record(
            nonlinear_relation_residuals(v).max_residual(), PRODUCT_ABS, seed
        )

        v2 = rephase(v, angles)
        rephase_phases.record(_phase_shift(table, phase_table(v2)), REPHASE_PHASE_ABS, seed)
        inp2 = MassPairInput(a=a, b=b, v=v2)
        d2 = det_direct(inp2)
        c2 = det4_closed(inp2) if n == 4 else det3_closed(inp2)
        det_shift = max(abs(d2 - d), abs(c2 - c))
        rephase_dets.record(det_shift, REPHASE_DET_REL * max(1.0, abs(d)), seed)

        if n == 3:
            rep = n3_phase_table(v)
            limit = SIGN_TABLE_REL * max(1.0, abs(rep.base))
            residual = rep.max_residual
            signs.record(residual, limit, seed)
            if not rep.matches_expected():
                signs.passed = False
        else:
            expanded = expand_phases(jr_matrices(v))
            expansion.record(expansion_residual(table, expanded), EXPANSION_ABS, seed)

            worst_tf = 0.0
            for spectrum in (a, b):
                tf = t_factors(spectrum)
                worst_tf = max(
                    worst_tf, abs(tf.sum_rule_residual()) / tf.sum_rule_scale()
                )
            factor_sum.record(worst_tf, FACTOR_SUM_REL, seed)

            recon = reconstruct_J(v)
            gate_total += 1
            if not recon.degenerate:
                gate_passes += 1
                j_scale = max(1.0, float(np.max(np.abs(recon.j_direct))))
                reconstruct.record(recon.max_error, RECONSTRUCT_REL * j_scale, seed)

    gate_rate = gate_passes / gate_total if gate_total else None
    return VerificationReport(
        suite=f"n={n}",
        master_seed=int(master_seed),
        trials=trials,
        tool_version=__version__,
        identities=list(results.values()),
        gate_pass_rate=gate_rate if n == 4 else None,
    )
