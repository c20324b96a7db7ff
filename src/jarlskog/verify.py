"""Seeded ensemble verification of every identity in the library.

A suite is a fixed list of identities checked over `trials` independent
draws.  Trial t uses the stream seeded with derive_seed(master_seed, t) and
draws, in stream order: the mixing matrix (2 n^2 outputs for its Ginibre
matrix), the a-spectrum and the b-spectrum (the first and the second
accepted of consecutive draws of n outputs each), and one set of 2n
rephasing angles.  Residual accumulation follows trial order, so a report
is a pure function of (suite, master_seed, trials, tolerances): the
rendered text is byte-identical across runs.  Wall time is therefore kept
out of the rendered report and surfaced separately by the CLI.

Trials run in chunks of TRIAL_CHUNK.  A chunk reads the outputs of all of
its draws at once (_draw_chunk): one block per trial from the start of its
own stream, holding the Ginibre matrix, a spectrum round that serves both
spectra in all but rare trials, and the angles after them.  Then every
layer (QR, validation, plaquettes, determinants, closed forms, residual
families) runs once on the stack of the chunk's trials.  Each stacked draw
and layer gives, in slice t, the bits of the single-trial call on trial t,
so the report does not depend on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .determinant import (
    _commutators,
    _det3_closed,
    _det4_closed,
    _det4_groups,
    _sum_rule,
    t_factors,
)
from .linalg import _complex, _plaquettes, _validate_unitaries, det
from .phases import (
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
from .sampling import (
    _DRAWS_PER_ROUND,
    _angles,
    _as_ginibre,
    _box_muller,
    _haar_from_ginibre,
    _spectra,
    _spectrum_draws,
    _stream,
    _unit_phases,
    derive_seed,
    rephase,
)

#: trials per stacked batch in run_suite.  Larger chunks spread numpy's
#: per-call cost over more trials; the chunk's peak transient, the n=4
#: product identities' one (6, 2320, T) gather of factors (about 7 MB at
#: T = 64), bounds it from above.
TRIAL_CHUNK = 64

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
        """Add one trial's residual.  A NaN residual fails the check and
        becomes the worst one, so it is never hidden by a comparison."""
        if (self.count == 0 or residual > self.max_residual
                or (math.isnan(residual) and not math.isnan(self.max_residual))):
            self.max_residual = residual
            self.worst_seed = seed
        self.sum_residual += residual
        self.count += 1
        if not residual <= limit:
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


def _antisymmetry_residuals(re, im):
    """(T,) exact comparison of the phase symmetries across (T, n, n, n, n)
    plaquette tensors.

    The plaquette tensor evaluates every index order on its own operands,
    so entries at swapped indices are computed independently of each other.
    Both swaps conjugate the product exactly at the bit level, so the
    residual of a correct implementation is exactly zero.  The product
    identities are evaluated once per orbit of index tuples on the strength
    of these symmetries, so this check also covers the entries they skip.
    """
    swapped = np.empty((len(re), 4) + re.shape[1:])
    np.add(im, im.swapaxes(1, 2), out=swapped[:, 0])
    np.add(im, im.swapaxes(3, 4), out=swapped[:, 1])
    np.subtract(re, re.swapaxes(1, 2), out=swapped[:, 2])
    np.subtract(re, re.swapaxes(3, 4), out=swapped[:, 3])
    return np.abs(swapped, out=swapped).reshape(len(re), -1).max(axis=1)


def _phase_shifts(tables):
    """(T,) largest change of a canonical phase under rephasing, from the
    (T, m) phase tables of re and im of the matrices and then of their
    rephased copies."""
    diff = [y - x for x, y in zip(tables[:2], tables[2:])]
    return np.abs(np.concatenate(diff, axis=1)).max(axis=1)


def _modulus(z):
    """|z| per entry, with the bits of CPython's abs(complex)."""
    return np.hypot(z.real, z.imag)


def check_tolerance(value, name="tolerance"):
    """value, if it is a usable tolerance (finite and >= 0); else ValueError.

    A check passes when `residual <= limit`, so a NaN or negative
    tolerance would fail every trial.
    """
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _draw_chunk(n, seeds):
    """The draws of each trial, in stream order: the Ginibre matrix of V,
    the a- and b-spectra and the rephasing angles.  seeds is the (T,) uint64
    array of per-trial seeds.  Returns the (T, n, n) Ginibre stack, the
    (T, n) spectra and the (T, n) row and column rephasing factors.

    The whole chunk reads one block of outputs, each trial from the start
    of its own stream: the 2 n^2 Ginibre outputs, one spectrum round of
    2 * _DRAWS_PER_ROUND draws, and 2n outputs beyond it.  a and b are the
    first and second accepted draws of that round, and the angles are the
    2n outputs after b, gathered at each trial's own end position.  Only a
    stream with fewer than two accepted draws in the round continues past
    the block, through the redraw loop _spectra, and reads its angles after
    it.  One log pass serves the Box-Muller radii, and one cos and one sin
    pass serve the Box-Muller angles and the rephasing angles together.
    """
    t, k = len(seeds), 2 * _DRAWS_PER_ROUND
    start = 2 * n * n
    stop = start + k * n
    u, _ = _stream(seeds, np.zeros(t, dtype=np.int64), stop + 2 * n)
    draws, accepted = _spectrum_draws(u[:, start:stop], n)
    # the indices of the first and second accepted draws, k where missing
    picks = (accepted.cumsum(axis=1)[:, :, None] <= np.arange(2)).sum(axis=1)
    rows = np.arange(t)[:, None]
    a, b = draws[rows, np.minimum(picks, k - 1)].transpose(1, 0, 2)
    # just past b, or the end of the round for the streams that redraw
    end = np.minimum(start + (picks[:, 1] + 1) * n, stop)
    # the angle outputs: the Box-Muller ones, then the rephasing ones
    turns = np.concatenate([u[:, 1:start:2], u[rows, end[:, None] + np.arange(2 * n)]], axis=1)
    if k in picks[:, 1].tolist():
        redraw = np.flatnonzero(picks[:, 1] == k)
        end = end[redraw]
        no_a = picks[redraw, 0] == k
        if no_a.any():
            a[redraw[no_a]], end[no_a] = _spectra(seeds[redraw[no_a]], end[no_a], n)
        b[redraw], end = _spectra(seeds[redraw], end, n)
        turns[redraw, n * n:] = _stream(seeds[redraw], end, 2 * n)[0]
    unit = _unit_phases(_angles(turns))
    g = _as_ginibre(_box_muller(u[:, 0:start:2], unit[:, :n * n]), n)
    return g, a, b, unit[:, n * n:n * n + n], unit[:, n * n + n:]


def _check_chunk(n, seeds, closed_rel, parity_abs):
    """The identities of the n suite on one chunk of trials, each layer run
    once on the stack.

    Returns the table of identities, in report order: one (name, bound
    label, residual, limit, kept) row per identity, with (T,) residuals and
    limits, and kept masking the trials to record.  At n = 4 the last row,
    band_reconstruction, keeps exactly the trials that pass the band gate.
    """
    g, a, b, row_phases, col_phases = _draw_chunk(n, seeds)
    t = len(seeds)
    v = _haar_from_ginibre(g)
    # V and its rephased copy share every layer up to the closed forms
    both = np.concatenate([v, rephase(v, row_phases, col_phases)])
    a2, b2 = np.concatenate([a, a]), np.concatenate([b, b])
    _, cols = _validate_unitaries(both)
    plaq = _plaquettes(both)
    dets = det(_commutators(a2, b2, cols))
    if n == 3:
        closed = _complex(*_det3_closed(a2, b2, plaq[1]))
    else:
        # the difference factors of the spectra b, a, a of each trial, as
        # one stack of 3T: the closed forms of V and its rephased copy take
        # the a rows, the sum rule the b rows and the first a rows
        factors = t_factors(np.concatenate([b, a2]))
        a_factors = tuple(x[t:] for x in factors)
        closed = _complex(*_det4_closed(_det4_groups(a_factors, b2, cols, plaq)[0]))
    d, d2, c, c2 = dets[:t], dets[t:], closed[:t], closed[t:]
    re, im = (x[:t] for x in plaq)
    cols = tuple(x[:t] for x in cols)
    # the canonical phases of re and im, of V and then of its rephased copy
    tables = [phase_table(x) for x in (re, im, *(x[t:] for x in plaq))]
    ims = tables[1]

    mod_d = _modulus(d)
    det_scale = np.maximum(1.0, mod_d)
    # the largest of the four im families, and of the four re families
    sums_im, sums_re = np.reshape(list(unitary_relation_residuals(cols, re, im).values()),
                                  (2, 4, t)).max(axis=1)
    every = np.ones(t, dtype=bool)

    def row(name, bound, residual, limit, kept=every):
        return name, bound, residual, np.full(t, limit), kept

    rows = [
        row(f"parity_no_{'imag' if n % 2 == 0 else 'real'}_part",
            f"{PARITY_REL:.0e}*|det| + {parity_abs:.0e}",
            np.abs(d.imag if n % 2 == 0 else d.real), PARITY_REL * mod_d + parity_abs),
        row(f"closed_form_n{n}_vs_direct", f"{closed_rel:.0e}*max(1,|det|)",
            _modulus(c - d), closed_rel * det_scale),
        row("phase_antisymmetry_bitwise", "0 (exact)", _antisymmetry_residuals(re, im), 0.0),
        row("unitarity_sums_imag", f"{SUM_RULE_ABS:.0e}", sums_im, SUM_RULE_ABS),
        row("unitarity_sums_real", f"{SUM_RULE_ABS:.0e}", sums_re, SUM_RULE_ABS),
        row("rephasing_phase_shift", f"{REPHASE_PHASE_ABS:.0e}",
            _phase_shifts(tables), REPHASE_PHASE_ABS),
        row("rephasing_det_shift", f"{REPHASE_DET_REL:.0e}*max(1,|det|)",
            np.maximum(_modulus(d2 - d), _modulus(c2 - c)), REPHASE_DET_REL * det_scale),
        row("product_identities", f"{PRODUCT_ABS:.0e}",
            np.max(list(nonlinear_relation_residuals(re, im).values()), axis=0), PRODUCT_ABS),
    ]
    if n == 3:
        base, signs, residuals, indeterminate = n3_phase_table(ims)
        matches = indeterminate | (signs == N3_SIGN_PATTERN).all(axis=1)
        # a wrong sign pattern fails its trial whatever the residual
        limit = np.where(matches, SIGN_TABLE_REL * np.maximum(1.0, np.abs(base)), -np.inf)
        rows.append(row("single_phase_sign_table", f"{SIGN_TABLE_REL:.0e}*max(1,|base|)",
                        residuals.max(axis=1), limit))
        return rows
    j, r = jr_matrices(re, im)
    res, scale = _sum_rule(*(x[:2 * t] for x in factors))
    factor_sum = np.abs(res) / scale
    _, degenerate, _, max_error = _reconstructions(cols, j, r)
    j_scale = np.maximum(1.0, np.abs(j).max(axis=(1, 2)))
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
        for result, (_, _, residual, limit, kept) in zip(results, rows):
            for x, bound, seed in zip(residual[kept].tolist(), limit[kept].tolist(),
                                      seeds[kept].tolist()):
                result.record(x, bound, seed)

    return VerificationReport(
        suite=f"n={n}",
        master_seed=int(master_seed),
        trials=trials,
        tool_version=__version__,
        identities=results,
        # the band row records the trials that pass the gate, and no other
        gate_pass_rate=results[-1].count / trials if n == 4 else None,
    )
