"""Dense complex linear algebra for small (n <= 8) matrices.

Everything here is sized for mixing-matrix work: matrices are tiny, so the
routines favour determinism and transparency over asymptotic speed.  All
loops accumulate in a fixed index order, which makes results bit-reproducible
across platforms (no BLAS dispatch).

Determinants use LU with partial pivoting on the complex modulus; the
eigensolver is a cyclic Jacobi iteration specialised to Hermitian input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_DIM = 8
MIN_DIM = 2

#: construction tolerances for validated types
UNITARITY_TOL = 1e-10
UNIT_DET_TOL = 1e-9
HERMITICITY_TOL = 1e-10

#: Jacobi sweep control: converged when the off-diagonal Frobenius norm drops
#: below JACOBI_OFF_TOL times the Frobenius norm of the input.
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100

#: eigenvalue gaps below DEGENERACY_TOL * spread are treated as degenerate
DEGENERACY_TOL = 1e-8


class DimensionError(ValueError):
    """Raised when matrix/spectrum dimensions are unsupported or mismatched."""


class DegenerateSpectrumError(ValueError):
    """Raised when eigenvalues coincide; every formula here assumes simple spectra."""


class ConvergenceError(RuntimeError):
    """Raised when the Jacobi iteration fails to reach its tolerance."""


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def check_dimension(n):
    if not (MIN_DIM <= n <= MAX_DIM):
        raise DimensionError(f"dimension {n} unsupported (need {MIN_DIM} <= n <= {MAX_DIM})")


def _cmul(xr, xi, yr, yi):
    """(xr + i xi) * (yr + i yi) as a (re, im) pair of float arrays.

    The operations are those of CPython's complex product, one float ufunc
    each, so every entry is bit-equal to the scalar product.  A real factor
    s enters as (s, 0.0), which is how mixed real-complex products are
    evaluated in scalar code.
    """
    return xr * yr - xi * yi, xr * yi + xi * yr


def _ksum(t, start=0.0):
    """start + t[0] + t[1] + ... over the leading axis, in ascending order.

    The one fixed-order accumulation of the package, applied to the real and
    the imaginary arrays of _cmul products separately.  With start 0.0 these
    are the operations of the scalar `acc = 0j; acc += term` loop.  With
    start -0.0, the additive identity, they are those of the spelled-out
    t[0] + t[1] + ...; the two differ only when every term is -0.0.
    """
    acc = start
    for term in t:
        acc = acc + term
    return acc


def _row_products(m):
    """h[a, j, k] = m[a, j] * conj(m[a, k]) as a (re, im) pair of float arrays.

    The one place where products of a matrix with its own conjugate are
    formed: the plaquettes use it on V, the commutator entries on V^T.
    """
    re, im = m.real, m.imag
    return _cmul(re[:, :, None], im[:, :, None], re[:, None, :], -im[:, None, :])


def matmul(a, b):
    """Matrix product of two equal-sized square complex matrices.

    Written as an explicit triple loop (k innermost, ascending) so the
    result is independent of the BLAS in use.
    """
    a = _as_square(a, "left factor")
    b = _as_square(b, "right factor")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"dimension mismatch in product: left is {a.shape[0]}x{a.shape[0]}, "
            f"right is {b.shape[0]}x{b.shape[0]}"
        )
    n = a.shape[0]
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def adjoint(m):
    """Conjugate transpose: entry (i, j) of the result is conj(m[j, i])."""
    m = _as_square(m)
    return np.conj(m.T).copy()


def det(m):
    """Determinant via LU with partial pivoting on the complex modulus.

    Pivot rule: at column k pick the row with the largest |entry|, lowest
    index on ties.  A zero pivot column means the matrix is singular and 0
    is returned directly.
    """
    a = _as_square(m).copy()
    n = a.shape[0]
    sign = 1.0
    value = complex(1.0, 0.0)
    for k in range(n):
        pivot_row = k
        pivot_mag = abs(a[k, k])
        for i in range(k + 1, n):
            mag = abs(a[i, k])
            if mag > pivot_mag:
                pivot_mag = mag
                pivot_row = i
        if pivot_mag == 0.0:
            return 0j
        if pivot_row != k:
            a[[k, pivot_row], :] = a[[pivot_row, k], :]
            sign = -sign
        pivot = a[k, k]
        value *= complex(pivot)
        for i in range(k + 1, n):
            factor = a[i, k] / pivot
            a[i, k + 1:] -= factor * a[k, k + 1:]
    return sign * value


def commutator(h, hp):
    """h @ hp - hp @ h.  Anti-Hermitian whenever both inputs are Hermitian."""
    h = _as_square(h)
    hp = _as_square(hp)
    if h.shape[0] != hp.shape[0]:
        raise DimensionError(
            f"dimension mismatch in commutator: {h.shape[0]} vs {hp.shape[0]}"
        )
    return matmul(h, hp) - matmul(hp, h)


@dataclass(frozen=True)
class Spectrum:
    """Ordered real eigenvalues with all pairwise gaps nonzero."""

    values: tuple
    min_gap: float = field(init=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        check_dimension(len(vals))
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("spectrum values must be finite")
        gap = min(
            abs(x - y) for i, x in enumerate(vals) for y in vals[i + 1:]
        )
        if gap == 0.0:
            raise DegenerateSpectrumError(
                "spectrum has a repeated eigenvalue; only simple spectra are supported"
            )
        object.__setattr__(self, "min_gap", gap)

    @property
    def n(self):
        return len(self.values)

    def as_array(self):
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class UnitaryMatrix:
    """A validated unitary matrix.

    Construction fails unless every entry is finite, max|V V^+ - I| <=
    UNITARITY_TOL and |det V| is within UNIT_DET_TOL of 1.  The wrapped
    array is frozen (non-writeable).
    """

    matrix: np.ndarray
    unitarity_defect: float = field(init=False)

    def __post_init__(self):
        m = _as_square(self.matrix, "unitary candidate")
        check_dimension(m.shape[0])
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        defect = float(np.max(np.abs(matmul(m, adjoint(m)) - np.eye(m.shape[0]))))
        if defect > UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary: max|V V+ - I| = {defect:.3e} > {UNITARITY_TOL:.0e}"
            )
        mod_det = abs(det(m))
        if not (1.0 - UNIT_DET_TOL <= mod_det <= 1.0 + UNIT_DET_TOL):
            raise ValueError(f"|det| = {mod_det!r} is not within {UNIT_DET_TOL:.0e} of 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "unitarity_defect", defect)

    @property
    def n(self):
        return self.matrix.shape[0]

    @cached_property
    def plaquettes(self):
        """p[a, b, j, k] = V[a,j] conj(V[a,k]) V[b,k] conj(V[b,j]), 0-based.

        A read-only (re, im) pair of float tensors, built once per matrix as
        h[a, j, k] * h[b, k, j] from the row products h.  Each entry is
        bit-equal to the scalar complex evaluation with that grouping.
        """
        hr, hi = _row_products(self.matrix)
        hr_t, hi_t = hr.transpose(0, 2, 1), hi.transpose(0, 2, 1)
        pair = _cmul(hr[:, None], hi[:, None], hr_t[None], hi_t[None])
        for x in pair:
            x.setflags(write=False)
        return pair

    @cached_property
    def column_products(self):
        """c[k, i, j] = V[i,k] conj(V[j,k]), 0-based: the row products of V^T.

        A read-only (re, im) pair of float tensors, built once per matrix and
        shared by the commutator entries and the n=4 closed form.
        """
        pair = _row_products(self.matrix.T)
        for x in pair:
            x.setflags(write=False)
        return pair


def hermitian_from_spectrum(u, d):
    """Assemble U diag(d) U^+ and symmetrise it.

    The average with its own adjoint is returned, so the result is Hermitian
    exactly (bitwise), not merely to roundoff.
    """
    if u.n != d.n:
        raise DimensionError(f"unitary is {u.n}x{u.n} but spectrum has {d.n} values")
    dm = np.diag(d.as_array()).astype(np.complex128)
    h = matmul(matmul(u.matrix, dm), adjoint(u.matrix))
    return (h + adjoint(h)) / 2.0


def hermiticity_defect(h):
    h = _as_square(h)
    return float(np.max(np.abs(h - adjoint(h))))


def jacobi_eig(h):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    Returns (u, spectrum) with h = u diag(spectrum) u^+ and eigenvalues in
    ascending order.  Each rotation annihilates one off-diagonal entry using
    a phase factor followed by a real Givens rotation.

    Raises if the input is not Hermitian to HERMITICITY_TOL, if the spectrum
    is degenerate (smallest gap below DEGENERACY_TOL times the spread; all
    eigenvalue multiplicities must be 1), or if JACOBI_MAX_SWEEPS sweeps do
    not reach the convergence tolerance.
    """
    h = _as_square(h, "hermitian input")
    n = h.shape[0]
    check_dimension(n)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"input is not Hermitian: max|H - H+| = {defect:.3e} > {HERMITICITY_TOL:.0e}"
        )

    w = h.copy()
    v = np.eye(n, dtype=np.complex128)
    fro = float(np.sqrt(np.sum(np.abs(h) ** 2)))
    threshold = JACOBI_OFF_TOL * fro
    # entries this small cannot push the off-norm above the convergence
    # threshold, so rotating on them only risks overflow in 1/|entry|
    skip_tol = threshold / (2.0 * n)

    def off_norm(m):
        mags = np.abs(m) ** 2
        np.fill_diagonal(mags, 0.0)
        return float(np.sqrt(mags.sum()))

    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm(w) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = w[p, q]
                mag = abs(b)
                if mag <= skip_tol:
                    continue
                phase = b / mag
                tau = (w[q, q].real - w[p, p].real) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # column combine with the phase folded into index q
                pc = np.conj(phase)
                wp = w[:, p].copy()
                wq = w[:, q].copy()
                w[:, p] = c * wp - s * pc * wq
                w[:, q] = s * wp + c * pc * wq
                rp = w[p, :].copy()
                rq = w[q, :].copy()
                w[p, :] = c * rp - s * phase * rq
                w[q, :] = s * rp + c * phase * rq
                w[p, q] = 0.0
                w[q, p] = 0.0
                w[p, p] = w[p, p].real
                w[q, q] = w[q, q].real
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * pc * vq
                v[:, q] = s * vp + c * pc * vq
    else:
        off = off_norm(w)
        if off > threshold:
            raise ConvergenceError(
                f"Jacobi iteration stalled: off-norm {off:.3e} > {threshold:.3e} "
                f"after {JACOBI_MAX_SWEEPS} sweeps"
            )
        converged = True

    if not converged:  # pragma: no cover - loop exits set the flag
        raise ConvergenceError("Jacobi iteration did not converge")

    evals = np.diag(w).real.copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    v = v[:, order]

    spread = float(evals[-1] - evals[0])
    gap = float(np.min(np.diff(evals))) if n > 1 else spread
    if gap <= DEGENERACY_TOL * spread:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gap:.3e} is below {DEGENERACY_TOL:.0e} x spread "
            f"{spread:.3e}; only spectra with all multiplicities 1 are supported"
        )

    return UnitaryMatrix(v), Spectrum(tuple(evals))
