"""Seeded ensemble verification of every identity in the library.

A suite is a fixed list of identities checked over `trials` independent
draws.  Trial t uses the stream seeded with derive_seed(master_seed, t) and
draws, in stream order: the mixing matrix (2 n^2 outputs for its Ginibre
matrix), the a-spectrum and the b-spectrum (n outputs each, as shifted
order statistics with every gap at least sampling.MIN_GAP), and one set of 2n
rephasing angles.  Residual accumulation follows trial order, so a report
is a pure function of (suite, master_seed, trials, tolerances): the
rendered text is byte-identical across runs.  Wall time is therefore kept
out of the rendered report and surfaced separately by the CLI.

Trials run in chunks of TRIAL_CHUNK.  A chunk draws all of its trials at
once through sampling.draw_trials: one fixed-size block of 2 n^2 + 4n
outputs per trial from the start of its own stream.  Then every layer
(validation, determinants, closed forms, residual families) runs once on
the stack of the chunk's trials.  V and its rephased copy share one
validation, which builds their (2, 2T, K) plaquette store: every store
reader takes the (2, T, K) view of V's part, and the rephasing row
compares the halves of the one phase_table slice.  Each stacked draw and
layer gives, in slice t, the bits of its call on the stack of trial t
alone, so the report does not depend on the chunk size.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .determinant import _sum_rule, det3_closed, det4_closed, det_direct, t_factors
from .linalg import _modulus, _plaquette_layout, _validate_unitaries
from .phases import (
    _check_plaquettes,
    _reconstructions,
    N3_SIGN_PATTERN,
    expand_phases,
    expansion_residual,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    unitary_relation_residuals,
)
from .sampling import _MASK64, derive_seed, draw_trials, rephase

#: trials per stacked batch in run_suite.  Larger chunks spread numpy's
#: per-call cost over more trials; the chunk's peak transient, the n=4
#: product identities' one (6, 564, T) gather of factors (about 6.9 MB at
#: T = 256, the fastest of 64, 128 and 256 at n = 3 and 4), bounds it.
TRIAL_CHUNK = 256

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

#: N3_SIGN_PATTERN as the array the n = 3 row compares with
_N3_SIGNS = np.array(N3_SIGN_PATTERN)


@dataclass
class IdentityResult:
    """Aggregated outcome of one identity over the trial ensemble.

    run_suite adds each chunk's row of the identity (see _check_chunk) with
    one record_row call: the residuals of the trials the row keeps (every
    trial, or on the band row those that pass the gate), their seeds, and
    the row's limit, one float for a constant bound or one per trial.
    """

    name: str
    bound: str
    max_residual: float = 0.0
    sum_residual: float = 0.0
    count: int = 0
    worst_seed: int = 0
    passed: bool = True

    def record_row(self, residuals, limit, seeds):
        """Add the residuals of consecutive trials, given as lists with the
        trials' seeds, and a limit for each trial (a list) or for all of
        them (a float).

        The outcome is that of adding the trials one at a time in order: the
        first of equal largest residuals is the worst one, a NaN residual
        fails the check and becomes the worst one (the first NaN, so it is
        never hidden by a comparison), the sum adds the residuals left to
        right onto the running sum, and a trial passes when
        residual <= limit.
        """
        if not residuals:
            return
        total = self.sum_residual
        for x in residuals:
            total += x
        self.sum_residual = total
        nans = list(map(math.isnan, residuals))
        if True in nans:
            self.passed = False
            worst = None if math.isnan(self.max_residual) else nans.index(True)
        else:
            top = max(residuals)
            worst = residuals.index(top) if self.count == 0 or top > self.max_residual else None
            if self.passed:
                self.passed = (all(map(operator.le, residuals, limit)) if isinstance(limit, list)
                               else top <= limit)
        if worst is not None:
            self.max_residual = residuals[worst]
            self.worst_seed = seeds[worst]
        self.count += len(residuals)

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


def _antisymmetry_residuals(plaq):
    """(T,) the exact comparison of the phase symmetries across the (2, T,
    K) plaquette store of T matrices: the largest |im + im| and |re - re| of
    each column and its a <-> b (and j <-> k) partner
    (linalg._plaquette_layout), a column with operands of its own, or
    itself at a = b or j = k, where 2 im pins im to a zero.

    The swaps conjugate the product exactly at the bit level, so a correct
    kernel gives exactly 0.  Each unordered pair is compared twice, which
    changes no bit of the maximum: y + x is x + y and y - x is -(x - y) in
    IEEE arithmetic, so |.| has the same bits either way.  The sum rules
    and product identities skip, on the strength of these symmetries, what
    they can read off, so this check covers that too.

    One take of the partner columns, one add and one subtract into it, then
    one reduce.
    """
    partner = plaq.take(_plaquette_layout(_check_plaquettes(plaq))[2], axis=-1)
    np.add(plaq[1], partner[1], out=partner[1])
    np.subtract(plaq[0], partner[0], out=partner[0])
    return np.maximum.reduce(np.abs(partner, out=partner), axis=(0, 2))


def check_tolerance(value, name="tolerance"):
    """value, if it is a usable tolerance (finite and >= 0); else ValueError.

    A check passes when `residual <= limit`, so a NaN or negative
    tolerance would fail every trial.
    """
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _check_chunk(n, seeds, closed_rel, parity_abs):
    """The identities of the n suite on one chunk of trials, each layer run
    once on the stack.

    Returns the table of identities, in report order: one (name, bound
    label, residual, limit, kept) row per identity.  residual is (T,); limit
    is a float where the bound is a constant and (T,) where it scales with
    the trial.  kept is None (every trial counts) except on the band row at
    n = 4, the last, where it masks exactly the trials that pass the band
    gate.
    """
    v, a, b, row_phases, col_phases = draw_trials(n, seeds)
    t = len(seeds)
    # V and its rephased copy share every layer up to the closed forms
    both = np.concatenate([v, rephase(v, row_phases, col_phases)])
    # the spectra b, b, a, a of each trial: b2 and a2 for the 2T matrices,
    # and at n = 4 the b, a, a of the difference factors
    spectra = np.concatenate([b, b, a, a])
    b2, a2 = spectra[:2 * t], spectra[2 * t:]
    _, cols, plaq = _validate_unitaries(both)
    dets = det_direct(a2, b2, cols)
    if n == 3:
        closed = det3_closed(a2, b2, plaq)
    else:
        # the difference factors of the spectra b, a, a of each trial, as
        # one stack of 3T: the closed forms of V and its rephased copy take
        # the a rows, the sum rule the b rows and the first a rows
        factors = t_factors(spectra[t:])
        a_factors = tuple(x[t:] for x in factors)
        closed = det4_closed(a_factors, b2, cols, plaq)
    d, d2, c, c2 = dets[:t], dets[t:], closed[:t], closed[t:]
    cols = tuple(x[:t] for x in cols)
    # the canonical phases of V and of its rephased copy: the imaginary
    # ones of V, (T, m), and the largest change of any under rephasing
    table = phase_table(plaq)
    ims = table[1, :t]
    phase_shift = np.maximum.reduce(np.abs(table[:, t:] - table[:, :t]), axis=(0, 2))
    plaq = plaq[:, :t]

    mod_d, closed_error, det_shift, closed_shift = _modulus(
        np.concatenate([d, c - d, d2 - d, c2 - c]).reshape(4, t))
    det_scale = np.maximum(1.0, mod_d)
    sums = list(unitary_relation_residuals(cols, plaq).values())
    # the largest of the four im families, and of the four re families
    sums_im, sums_re = (functools.reduce(np.maximum, sums[f:f + 4]) for f in (0, 4))

    def row(name, bound, residual, limit, kept=None):
        return name, bound, residual, limit, kept

    rows = [
        row(f"parity_no_{'imag' if n % 2 == 0 else 'real'}_part",
            f"{PARITY_REL:.0e}*|det| + {parity_abs:.0e}",
            np.abs(d.imag if n % 2 == 0 else d.real), PARITY_REL * mod_d + parity_abs),
        row(f"closed_form_n{n}_vs_direct", f"{closed_rel:.0e}*max(1,|det|)",
            closed_error, closed_rel * det_scale),
        row("phase_antisymmetry_bitwise", "0 (exact)", _antisymmetry_residuals(plaq), 0.0),
        row("unitarity_sums_imag", f"{SUM_RULE_ABS:.0e}", sums_im, SUM_RULE_ABS),
        row("unitarity_sums_real", f"{SUM_RULE_ABS:.0e}", sums_re, SUM_RULE_ABS),
        row("rephasing_phase_shift", f"{REPHASE_PHASE_ABS:.0e}", phase_shift,
            REPHASE_PHASE_ABS),
        row("rephasing_det_shift", f"{REPHASE_DET_REL:.0e}*max(1,|det|)",
            np.maximum(det_shift, closed_shift), REPHASE_DET_REL * det_scale),
        row("product_identities", f"{PRODUCT_ABS:.0e}",
            functools.reduce(np.maximum, nonlinear_relation_residuals(plaq).values()),
            PRODUCT_ABS),
    ]
    if n == 3:
        base, signs, residuals, indeterminate = n3_phase_table(ims)
        matches = indeterminate | np.logical_and.reduce(signs == _N3_SIGNS, axis=1)
        # a wrong sign pattern fails its trial whatever the residual
        limit = np.where(matches, SIGN_TABLE_REL * np.maximum(1.0, np.abs(base)), -np.inf)
        rows.append(row("single_phase_sign_table", f"{SIGN_TABLE_REL:.0e}*max(1,|base|)",
                        np.maximum.reduce(residuals, axis=1), limit))
        return rows
    j, r = jr_matrices(plaq)
    res, scale = _sum_rule(*(x[:2 * t] for x in factors))
    factor_sum = np.abs(res) / scale
    _, degenerate, _, max_error = _reconstructions(cols, j, r)
    j_scale = np.maximum(1.0, np.maximum.reduce(np.abs(j), axis=(1, 2)))
    rows += [
        row("phase_expansion_36", f"{EXPANSION_ABS:.0e}",
            expansion_residual(ims, expand_phases(j)), EXPANSION_ABS),
        row("difference_factor_sum", f"{FACTOR_SUM_REL:.0e} (relative)",
            np.maximum(np.maximum(0.0, factor_sum[t:]), factor_sum[:t]), FACTOR_SUM_REL),
        row("band_reconstruction", f"{RECONSTRUCT_REL:.0e}*max(1,max|J|)",
            max_error, RECONSTRUCT_REL * j_scale, ~degenerate),
    ]
    return rows


def run_suite(n, trials, master_seed, tol_rel=None, tol_abs=None):
    """Run the identity suite for dimension n in {3, 4} over `trials` draws.

    tol_rel overrides the closed-form-vs-direct relative tolerance; tol_abs
    overrides the parity absolute floor.  Everything else keeps its default.
    Each override must pass check_tolerance, or ValueError is raised.
    """
    if n not in (3, 4):
        raise ValueError(f"verification suites exist for n in {{3, 4}}, got n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    closed_rel = check_tolerance(tol_rel, "tol_rel") if tol_rel is not None else CLOSED_REL[n]
    parity_abs = check_tolerance(tol_abs, "tol_abs") if tol_abs is not None else PARITY_ABS
    results = None

    for first in range(0, trials, TRIAL_CHUNK):
        seeds = derive_seed(master_seed, np.arange(first, min(first + TRIAL_CHUNK, trials)))
        rows = _check_chunk(n, seeds, closed_rel, parity_abs)
        if results is None:
            results = [IdentityResult(name=name, bound=bound) for name, bound, *_ in rows]
        every = seeds.tolist()
        for result, (_, _, residual, limit, kept) in zip(results, rows):
            row_seeds = every
            if kept is not None:
                residual, limit, row_seeds = residual[kept], limit[kept], seeds[kept].tolist()
            if isinstance(limit, np.ndarray):
                limit = limit.tolist()
            result.record_row(residual.tolist(), limit, row_seeds)

    return VerificationReport(
        suite=f"n={n}",
        # the seed the trials ran: derive_seed reads it mod 2^64
        master_seed=int(master_seed) & _MASK64,
        trials=trials,
        tool_version=__version__,
        identities=results,
        # the band row records the trials that pass the gate, and no other
        gate_pass_rate=results[-1].count / trials if n == 4 else None,
    )
