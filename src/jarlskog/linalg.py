"""Dense complex linear algebra for small (n <= 8) matrices.

Everything here is sized for mixing-matrix work: matrices are tiny, so the
routines favour determinism and transparency over asymptotic speed.  All
loops accumulate in a fixed index order, which makes results bit-reproducible
across platforms (no BLAS dispatch).

Every complex product goes through one kernel, _cmul on split real and
imaginary float arrays, and every k-sum through _ksum.  Determinants use LU
with partial pivoting on the complex modulus.

The kernels run on a stack of T matrices at once, one numpy call per step
for the whole stack; a single matrix is the stack of one, and trial t of a
stacked result is bit-equal to the call on matrix t alone.  det and the
unitarity check take a (T, n, n) stack and work with the trials on the last
axis, so that each inner loop runs over the T trials, not over n entries.
The check's results keep that layout: the column products c[k, i, j, t]
and the stack's (2, K, T) plaquette store, re then im (_plaquette_layout),
which its readers take through index tables composed with the layout's map.

Stacks are small (a few trials, or one), so most of a call is numpy's
per-call dispatch.  The kernels here and in the modules built on them call
ndarray and ufunc methods (np.add.reduce, np.maximum.reduce, .diagonal,
.sort, ...), never the Python-level wrappers of numpy's fromnumeric,
shape_base, stride-tricks, _methods and twodim_base modules (np.sum,
np.stack, np.broadcast_to, x.max(), np.eye, ...), which call the same
methods with the same bits; tests/test_numpy_dispatch.py guards that.  The
identity is one read-only array per n (_identity).  A gather by a fixed
index table is ndarray.take on a flat table, never advanced indexing.
_ksum takes the same route where that keeps its loop's bits: one
np.add.reduce from +0.0 over its first entries, fewer than 8.  Every sum
of 8 or more entries goes through _ksum, for a trials-last stack of one
puts them on an axis that numpy sums pairwise (see _ksum).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

MAX_DIM = 8
MIN_DIM = 2

#: construction tolerance of UnitaryMatrix: the largest max|V V^+ - I|
UNITARITY_TOL = 1e-10


class DimensionError(ValueError):
    """Raised when matrix/spectrum dimensions are unsupported or mismatched."""


class DegenerateSpectrumError(ValueError):
    """Raised when eigenvalues coincide; every formula here assumes simple spectra."""


class _InvalidUnitary(ValueError):
    """Raised by _validate_unitaries; index is the position in the stack of
    the matrix that failed."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


@cache
def _identity(n):
    """The n x n float identity, one read-only array per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _as_square(m, name="matrix", stack=False):
    """m as a complex array of one square matrix, or with stack=True also of
    a (T, n, n) stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def check_dimension(n):
    if not (MIN_DIM <= n <= MAX_DIM):
        raise DimensionError(f"dimension {n} unsupported (need {MIN_DIM} <= n <= {MAX_DIM})")


def _cmul(xr, xi, yr, yi, out=None):
    """(xr + i xi) * (yr + i yi) as a (re, im) pair of float arrays, or
    written into out[0] and out[1] of a float array out, which is returned.

    The operations are those of CPython's complex product, one float ufunc
    each, so every entry is bit-equal to the scalar product.  A real factor
    s enters as (s, 0.0), which is how mixed real-complex products are
    evaluated in scalar code.
    """
    if out is None:
        return xr * yr - xi * yi, xr * yi + xi * yr
    re, im = out
    np.subtract(np.multiply(xr, yr, out=re), xi * yi, out=re)
    np.add(np.multiply(xr, yi, out=im), xi * yr, out=im)
    return out


def _ksum(t, start=0.0, axis=0):
    """start + t[0] + t[1] + ... over one axis (the leading one by default),
    in ascending order.

    The one fixed-order accumulation of the package, applied to the real and
    the imaginary parts of _cmul products, separately or stacked on another
    axis.  With start 0.0 these are the operations of the scalar
    `acc = 0j; acc += term` loop.  The spelled-out t[0] + t[1] + ... is
    _ksum over t[1:] from start t[0]; the two differ only when every term is
    -0.0.

    The loop defines the order.  From the float +0.0 the first min(7, k)
    of the k entries are one np.add.reduce from initial=0.0, and the loop
    adds entries 7 onward to it in order.  Over fewer than 8 entries that
    reduce has the loop's bits in every memory layout: numpy adds along an
    outer axis in index order onto initial, and along the innermost one, or
    a leading one whose later axes all have length 1 (a trials-last stack
    of one), in index order too (pairwise only from 8 entries on) before
    adding that onto initial, which moves no bit.  Other starts, -0.0 and
    arrays, take the loop from the first entry.
    """
    acc, first = start, 0
    lead = (slice(None),) * axis
    # start is +0.0, not -0.0
    if type(start) is float and (start, math.copysign(1, start)) == (0, 1):
        if t.shape[axis] < 8:
            return np.add.reduce(t, axis, initial=0.0)
        acc, first = np.add.reduce(t[(*lead, slice(7))], axis, initial=0.0), 7
    for k in range(first, t.shape[axis]):
        acc = acc + t[(*lead, k)]
    return acc


def _row_products(re, im, out=None):
    """h[..., a, j, k, t] = m[..., a, j, t] * conj(m[..., a, k, t]) as a
    (re, im) pair (or into out, as _cmul), from the planes re, im of a stack.

    The one place where products of a matrix with its own conjugate are
    formed: _validate_unitaries takes it once on the planes of V (for the
    plaquettes) and V^T (for V V^+ and the commutator entries).
    """
    return _cmul(re[..., :, :, None, :], im[..., :, :, None, :], re[..., :, None, :, :],
                 -im[..., :, None, :, :], out=out)


def _modulus(z):
    """|z| per entry of a complex array, with the bits of CPython's
    abs(complex) (np.hypot, not np.abs).  The LU pivot search, the Haar
    phases and verify's determinant moduli all take it from here."""
    return np.hypot(z.real, z.imag)


def _moduli_squared(cols):
    """|V_t[i,k]|^2 as (n, n, T), the one place it is formed: the real
    diagonal c[k, i, i, t] of the column products, re*re + im*im (the
    imaginary diagonal is exactly +-0)."""
    return cols[0].diagonal(0, 1, 2).transpose(2, 0, 1)


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

    m is one square matrix, giving a complex number, or a (T, n, n) stack,
    giving a complex array of T determinants.  Pivot rule, per matrix: at
    column k pick the row with the largest |entry|, lowest index on ties,
    where a NaN candidate never wins (a NaN on the diagonal keeps its row).
    A zero pivot column means the matrix is singular and its determinant is
    exactly 0j.

    The working copy keeps the trials last.  Each step is one set of numpy
    calls for the whole stack, with the operations of the scalar
    elimination: moduli by _modulus (the bits of CPython's abs), pivot rows
    swapped by one gather, pivots multiplied in by the scalar complex
    product _cmul, row updates by numpy's complex product.
    """
    a = _as_square(m, stack=True)
    single = a.ndim == 2
    a = a.reshape(-1, *a.shape[-2:]).transpose(1, 2, 0).copy()
    n, t = a.shape[0], a.shape[-1]
    trials = np.arange(t)
    odd = np.zeros(t, dtype=bool)
    singular = None
    vr, vi = np.ones(t), np.zeros(t)
    for k in range(n):
        last = k + 1 == n
        # the last column has one candidate row, so it needs no search
        if not last:
            mag = _modulus(a[k:, k])
            # argmax takes the first maximum; a NaN candidate is lifted to -1
            # so it never wins, except on the diagonal, where it keeps its row
            key = np.fmax(mag, -1.0)
            key[0] = np.fmin(mag[0], np.inf)
            offset = key.argmax(axis=0)
            if any(offset.tolist()):
                rows = k + offset
                top = a[k].copy()
                a[k] = a[rows, :, trials].T
                a[rows, :, trials] = top.T
                odd ^= offset != 0
        pivot = a[k, k]
        if 0j in pivot.tolist():
            # a zero pivot column: the matrix is singular.  It carries the
            # identity through the remaining steps, so they raise no
            # warnings, and reports 0j.
            zero = pivot == 0.0
            singular = zero if singular is None else singular | zero
            a[:, :, zero] = _identity(n)[:, :, None]
        vr, vi = _cmul(vr, vi, pivot.real, pivot.imag)
        if not last:
            factor = a[k + 1:, k] / pivot
            a[k + 1:, k + 1:] -= factor[:, None] * a[None, k, k + 1:]
    # the sign of the row permutation: 1.0 - 2.0 * odd is exactly +-1.0
    vr, vi = _cmul(1.0 - 2.0 * odd, 0.0, vr, vi)
    if singular is not None:
        vr[singular] = 0.0
        vi[singular] = 0.0
    if single:
        return complex(vr[0], vi[0])
    return _complex(vr, vi)


@dataclass(frozen=True)
class Spectrum:
    """Ordered real eigenvalues with all pairwise gaps nonzero."""

    values: tuple
    min_gap: float = field(init=False)

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "values", vals)
        check_dimension(len(vals))
        if not all(map(math.isfinite, vals)):
            raise ValueError("spectrum values must be finite")
        # rounding is monotone: the closest pair is adjacent in sorted order
        ordered = sorted(vals)
        gap = min(map(operator.sub, ordered[1:], ordered))
        if gap == 0.0:
            raise DegenerateSpectrumError(
                "spectrum has a repeated eigenvalue; only simple spectra are supported"
            )
        object.__setattr__(self, "min_gap", gap)

    @property
    def n(self):
        return len(self.values)


def _validate_unitaries(m):
    """Validate a (T, n, n) stack of candidate unitaries.

    Returns (defects, column_products, plaquettes): max|V V^+ - I| per
    matrix, the (re, im) pair of (n, n, n, T) c[k, i, j, t] = V_t[i,k]
    conj(V_t[j,k]), whose k-sums are the V V^+ entries, and the stack's
    (2, K, T) plaquette store.  The stack is turned once into the real and
    imaginary planes of V and V^T with the trials last; one _row_products
    call on them gives the row products h of V and c, from which
    _plaquette_store builds the store once every defect passes.  Raises
    _InvalidUnitary, a ValueError that holds the index of the first matrix
    that fails, on that matrix's first check failed of: finite entries, the
    defect within UNITARITY_TOL.

    The defect bound also puts |det V| within n * UNITARITY_TOL / 2 of 1 (to
    first order), so no determinant is taken: V V^+ = I + E with E Hermitian
    and |E_ij| <= d gives |det V|^2 = det(I + E), whose log is at most
    |tr E| + ||E||_F^2 <= n d + n^2 d^2 in modulus, twice log|det V|.  At
    n = 8 and d = UNITARITY_TOL, |det V| - 1 is thus within 4e-10.
    """
    t, n = m.shape[0], m.shape[-1]
    check_dimension(n)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        # the finite matrices before the first non-finite one may fail first
        first = int(np.logical_and.reduce(np.isfinite(m), axis=(1, 2)).argmin())
        _validate_unitaries(m[:first])
        raise _InvalidUnitary("matrix entries must be finite", first)
    # planes[p, w, r, c, t]: part p (re, im) of V_t (w = 0) and V_t^T (w = 1)
    parts = np.array((m.real, m.imag))
    planes = np.concatenate([parts.transpose(0, 2, 3, 1), parts.transpose(0, 3, 2, 1)], axis=1)
    products = np.empty((2, 2, n, n, n, t))
    with np.errstate(all="ignore"):  # overflow gives an inf or NaN defect, which fails
        _row_products(*planes.reshape(2, 2, n, n, t), out=products)
        # copied so the buffer is freed on return; held, it fragments the heap
        cr, ci = products[:, 1].copy()
        gram = _complex(_ksum(cr), _ksum(ci))
        defects = np.maximum.reduce(np.abs(gram - _identity(n)[:, :, None]), axis=(0, 1))
    for i, defect in enumerate(defects.tolist()):
        if not defect <= UNITARITY_TOL:
            raise _InvalidUnitary(
                f"matrix is not unitary: max|V V+ - I| = {defect:.3e} > {UNITARITY_TOL:.0e}",
                i,
            )
    return defects, (cr, ci), _plaquette_store(products.reshape(2, 2 * n ** 3, t), n)


@cache
def _plaquette_layout(n):
    """(operands, columns, partners): read-only tables of the plaquette store.

    Entry (a, b; j, k) is h[a, j, k] * h[b, k, j] of the row products h, and
    (b, a; k, j) the same operands in the other order, which IEEE * and +
    give the same bits.  So the store has one column per unordered operand
    pair, K = n^2 (n^2 + 1) / 2: the canonical a < b, j < k in table order,
    then (a, b; k, j) of each, then (a, b; j, j), (a, a; j, k), (a, a; j, j).
    operands (2, K) locate each column's factors in the flat h, columns
    (n^4,) is the column of each flat 0-based (a, b, j, k), and partners (K,)
    the column of each a <-> b swap, which is also the j <-> k swap.
    """
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    canonical = [(a, b, j, k) for a, b in pairs for j, k in pairs]
    a, b, j, k = np.array(canonical + [(a, b, k, j) for a, b, j, k in canonical]
                          + [(a, b, j, j) for a, b in pairs for j in range(n)]
                          + [(a, a, j, k) for a in range(n) for j, k in pairs]
                          + [(a, a, j, j) for a in range(n) for j in range(n)]).T
    columns = np.empty(n ** 4, dtype=np.intp)
    for order in ((a, b, j, k), (b, a, k, j)):
        columns[np.ravel_multi_index(order, (n,) * 4)] = np.arange(a.size)
    tables = (np.array([(a * n + j) * n + k, (b * n + k) * n + j]), columns,
              columns[np.ravel_multi_index((b, a, j, k), (n,) * 4)])
    for x in tables:
        x.setflags(write=False)
    return tables


def _plaquette_store(rows, n):
    """The (2, K, T) plaquette store, re then im, in the layout of
    _plaquette_layout, of a stack of n x n matrices: one take of both
    operands of every column, then one _cmul.  rows is a C-contiguous
    (2, R, T) array, re then im, whose first n^3 rows are the row products
    h[a, j, k] of the stack in C order, so that the take reads it in place."""
    t = rows.shape[-1]
    operands = _plaquette_layout(n)[0]
    x = rows.take(operands, axis=1)
    return _cmul(x[0, 0], x[1, 0], x[0, 1], x[1, 1], out=np.empty((2, operands.shape[1], t)))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A validated unitary matrix.

    Construction fails unless every entry is finite and max|V V^+ - I| <=
    UNITARITY_TOL.  That bound keeps |det V| within about n * UNITARITY_TOL
    / 2 of 1 (4e-10 at n = 8; see _validate_unitaries), so |det V| is not
    checked separately.  Every field is slot t of the results of one
    _validate_unitaries call, on the stack of one at construction or, by
    _from_stack, on a stack validated already; every array is read-only.

    column_products holds c[k, i, j] = V[i,k] conj(V[j,k]), 0-based: the
    row products of V^T, as an (re, im) pair of float tensors.  Their k-sums
    are the entries of V V^+ checked at construction; the commutator
    entries, the n=4 closed form and every |V|^2 (their real diagonal)
    reuse them.  plaquettes is the (2, K) plaquette store of V; each entry,
    at every index order, is bit-equal to the scalar complex evaluation
    with the grouping (V[a,j] conj(V[a,k])) * (V[b,k] conj(V[b,j])).  The
    stacked layers take x[..., None] of each array as its stack of one,
    with the trials on the last axis.
    """

    matrix: np.ndarray
    unitarity_defect: float = field(init=False)
    column_products: tuple = field(init=False, repr=False, compare=False)
    plaquettes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_square(self.matrix, "unitary candidate")[None]
        self._from_stack(m, _validate_unitaries(m), 0, self)

    @classmethod
    def _from_stack(cls, stack, validated, t, v=None):
        """The UnitaryMatrix of stack[t], where validated is what
        _validate_unitaries(stack) returned; v, if given, is filled in."""
        v = object.__new__(cls) if v is None else v
        defects, (cr, ci), plaq = validated
        m, cr, ci, plaq = stack[t].copy(), cr[..., t], ci[..., t], plaq[..., t]
        for x in (m, cr, ci, plaq):
            x.setflags(write=False)
        for name, value in zip(("matrix", "unitarity_defect", "column_products", "plaquettes"),
                               (m, float(defects[t]), (cr, ci), plaq)):
            object.__setattr__(v, name, value)
        return v

    @property
    def n(self):
        return self.matrix.shape[0]
