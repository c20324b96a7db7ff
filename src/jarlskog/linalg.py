"""Dense complex linear algebra for small (n <= 8) matrices.

Everything here is sized for mixing-matrix work: matrices are tiny, so the
routines favour determinism and transparency over asymptotic speed.  All
loops accumulate in a fixed index order, which makes results bit-reproducible
across platforms (no BLAS dispatch).

Every complex product goes through one kernel, _cmul on split real and
imaginary float arrays, and every k-sum through _ksum.  Determinants use LU
with partial pivoting on the complex modulus.
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


class DimensionError(ValueError):
    """Raised when matrix/spectrum dimensions are unsupported or mismatched."""


class DegenerateSpectrumError(ValueError):
    """Raised when eigenvalues coincide; every formula here assumes simple spectra."""


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
    formed: the plaquettes use it on V, V V^+ and the commutator entries
    on V^T.
    """
    re, im = m.real, m.imag
    return _cmul(re[:, :, None], im[:, :, None], re[:, None, :], -im[:, None, :])


def _complex(re, im):
    """Complex array with exactly the given real and imaginary parts."""
    out = re.astype(np.complex128)
    out.imag = im
    return out


def matmul(a, b):
    """Matrix product of two equal-sized square complex matrices.

    Entry (i, j) is the k-ascending sum of a[i,k] * b[k,j] from the product
    kernel, bit-equal to the scalar `acc = 0j; acc += a[i,k] * b[k,j]` loop
    and independent of the BLAS in use.
    """
    a = _as_square(a, "left factor")
    b = _as_square(b, "right factor")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"dimension mismatch in product: left is {a.shape[0]}x{a.shape[0]}, "
            f"right is {b.shape[0]}x{b.shape[0]}"
        )
    # term k of entry (i, j) is a[i, k] * b[k, j]
    ar, ai = a.T.real[:, :, None], a.T.imag[:, :, None]
    tr, ti = _cmul(ar, ai, b.real[:, None, :], b.imag[:, None, :])
    return _complex(_ksum(tr), _ksum(ti))


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


@dataclass(frozen=True)
class UnitaryMatrix:
    """A validated unitary matrix.

    Construction fails unless every entry is finite, max|V V^+ - I| <=
    UNITARITY_TOL and |det V| is within UNIT_DET_TOL of 1.  The wrapped
    array is frozen (non-writeable).

    column_products holds c[k, i, j] = V[i,k] conj(V[j,k]), 0-based: the
    row products of V^T, as a read-only (re, im) pair of float tensors.
    Their k-sums are the entries of V V^+ checked at construction; the
    commutator entries and the n=4 closed form reuse them.
    """

    matrix: np.ndarray
    unitarity_defect: float = field(init=False)
    column_products: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_square(self.matrix, "unitary candidate")
        check_dimension(m.shape[0])
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        cr, ci = _row_products(m.T)
        gram = _complex(_ksum(cr), _ksum(ci))
        defect = float(np.max(np.abs(gram - np.eye(m.shape[0]))))
        if defect > UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary: max|V V+ - I| = {defect:.3e} > {UNITARITY_TOL:.0e}"
            )
        mod_det = abs(det(m))
        if not (1.0 - UNIT_DET_TOL <= mod_det <= 1.0 + UNIT_DET_TOL):
            raise ValueError(f"|det| = {mod_det!r} is not within {UNIT_DET_TOL:.0e} of 1")
        m = m.copy()
        for x in (m, cr, ci):
            x.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "unitarity_defect", defect)
        object.__setattr__(self, "column_products", (cr, ci))

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
