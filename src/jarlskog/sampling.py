"""Seeded sampling: Haar-random unitaries, random simple spectra, rephasing.

The generator is splitmix64 (Vigna 2015): a 64-bit counter stream passed
through a finalizer.  It is specified exactly by integer arithmetic, so the
same seed produces the same uniform doubles on every platform; frozen test
vectors from the reference C implementation live in the test suite.  The
Gaussian and Haar samplers on top of it are deterministic for a fixed seed,
but route through libm transcendentals, so their bits are pinned per
platform rather than universally.

Haar sampling trap: QR-factorising a complex Ginibre matrix does NOT give a
Haar-distributed Q, because the QR factorisation is only unique up to the
phases of diag(R).  Each column of Q must be rescaled by the phase of the
corresponding diagonal entry of R; with that correction the distribution is
exactly Haar.  The QR factorisation itself is a plain Householder sweep,
kept in-repo so no result depends on the LAPACK/BLAS build in use.  It and
the phase correction run on a (T, n, n) stack of Ginibre draws at once;
haar_unitary is the stack of one.  The draws themselves stay one trial at a
time, in stream order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, Spectrum, UnitaryMatrix, _as_square, _cmul, check_dimension

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi

#: whole-vector redraws before random_spectrum gives up (the feasibility
#: check below catches truly impossible requests; this catches merely
#: astronomically unlikely ones)
_MAX_REDRAWS = 100_000

DEFAULT_MIN_GAP = 0.05


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SeededRng:
    """splitmix64 stream with an explicit position counter.

    Not thread-safe; concurrent work should use one instance per task,
    seeded via derive_seed.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._state = self.seed
        self.position = 0

    def next_u64(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        self.position += 1
        return _mix64(self._state)

    def uniform(self):
        """Double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_symmetric(self):
        """Double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def normal_pair(self):
        """Two independent standard normals via Box-Muller.

        The radial uniform is shifted into (0, 1] so log never sees zero.
        """
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        t = _TWO_PI * u2
        return r * math.cos(t), r * math.sin(t)


def derive_seed(master_seed, index):
    """Per-trial seed from a master seed and a trial index.

    Trials are order-independent: seed i never has to be generated before
    seed j.  The finalizer scrambles the affine combination so neighbouring
    indices land in unrelated stream positions.
    """
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    return _mix64((int(master_seed) & _MASK64) + ((index + 1) * _GOLDEN & _MASK64))


@dataclass(frozen=True)
class RephasingAngles:
    """Row phases theta and column phases theta_prime, reduced mod 2 pi."""

    theta: tuple
    theta_prime: tuple

    def __post_init__(self):
        th = tuple(float(x) for x in self.theta)
        tp = tuple(float(x) for x in self.theta_prime)
        if len(th) != len(tp):
            raise DimensionError(
                f"got {len(th)} row angles but {len(tp)} column angles"
            )
        if not (all(math.isfinite(x) for x in th) and all(math.isfinite(x) for x in tp)):
            raise ValueError("rephasing angles must be finite")
        object.__setattr__(self, "theta", tuple(x % _TWO_PI for x in th))
        object.__setattr__(self, "theta_prime", tuple(x % _TWO_PI for x in tp))

    @property
    def n(self):
        return len(self.theta)


def householder_qr(a):
    """QR by Householder reflections, without the diag(R) phase correction.

    a is one square complex matrix or a (T, n, n) stack of them; returns
    (q, r) of the same shape with a = q r per matrix.  Each reflection is
    one set of numpy calls for the whole stack, in a fixed loop order, so
    the factorisation is deterministic everywhere and slice t of a stacked
    result is bit-equal to the QR of matrix t alone.  |x0| is taken by
    np.hypot, the bits of the scalar modulus, and phase(x0) * norm by the
    scalar complex product _cmul.
    """
    r = _as_square(a, stack=True)
    single = r.ndim == 2
    r = r.reshape(-1, *r.shape[-2:]).copy()
    n = r.shape[-1]
    q = np.zeros_like(r)
    q.reshape(len(r), -1)[:, ::n + 1] = 1.0
    for k in range(n - 1):
        x = r[:, k:, k]
        norm_x = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
        phase = _phase_of(x[:, 0])
        v = x.copy()
        # v[0] += phase * norm_x, the scalar complex product, part by part
        shift_r, shift_i = _cmul(phase.real, phase.imag, norm_x, 0.0)
        v.real[:, 0] += shift_r
        v.imag[:, 0] += shift_i
        vnorm = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
        # a zero reflector, as from a zero column (norm_x == 0 implies
        # vnorm == 0), leaves r and q as they are
        skip = 0.0 in vnorm.tolist()
        if skip:
            act = vnorm != 0.0
            vnorm = np.where(act, vnorm, 1.0)
        v /= vnorm[:, None]
        # reductions spelled out with numpy sums (not @) to stay off BLAS
        r_upd = 2.0 * (v[:, :, None] * (np.conj(v)[:, :, None] * r[:, k:, k:]).sum(axis=1)[:, None, :])
        q_upd = 2.0 * ((q[:, :, k:] * v[:, None, :]).sum(axis=2)[:, :, None] * np.conj(v)[:, None, :])
        if skip:
            r[act, k:, k:] -= r_upd[act]
            q[act, :, k:] -= q_upd[act]
        else:
            r[:, k:, k:] -= r_upd
            q[:, :, k:] -= q_upd
    if single:
        return q[0], r[0]
    return q, r


def _phase_of(z):
    """z / |z| per entry, with the bits of the scalar modulus (np.hypot), and
    1 where z == 0."""
    mag = np.hypot(z.real, z.imag)
    if 0.0 in mag.ravel().tolist():
        return np.where(mag != 0.0, z / np.where(mag != 0.0, mag, 1.0), 1.0)
    return z / mag


def _haar_from_ginibre(g):
    """Haar unitaries from a (T, n, n) Ginibre stack: QR, then each column
    of Q times the phase of the matching diagonal entry of R."""
    q, r = householder_qr(g)
    q *= _phase_of(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q


def ginibre(n, rng):
    """n x n complex Ginibre matrix drawn from the given stream.

    Entries are filled row-major, real component before imaginary, each a
    standard normal scaled by 1/sqrt(2), so E|g_ij|^2 = 1.
    """
    check_dimension(n)
    g = np.empty((n, n), dtype=np.complex128)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(n):
        for j in range(n):
            re, im = rng.normal_pair()
            g[i, j] = complex(re * inv_sqrt2, im * inv_sqrt2)
    return g


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary drawn from the given stream.

    A Ginibre draw, then QR plus the diag(R) phase correction.
    """
    return UnitaryMatrix(_haar_from_ginibre(ginibre(n, rng)[None])[0])


def random_spectrum(n, rng, min_gap=DEFAULT_MIN_GAP):
    """n values uniform on [-1, 1], redrawn until all pairwise gaps reach
    min_gap, returned ascending.

    Infeasible requests (min_gap * (n - 1) >= 2, i.e. the values cannot fit
    in the interval) are rejected up front.
    """
    check_dimension(n)
    # NaN must fail here: it passes the feasibility check and no gap reaches it
    if not min_gap > 0.0:
        raise ValueError("min_gap must be positive")
    if min_gap * (n - 1) >= 2.0:
        raise ValueError(
            f"min_gap {min_gap} is infeasible for n={n}: "
            f"{min_gap} * {n - 1} >= 2 leaves no room in [-1, 1]"
        )
    for _ in range(_MAX_REDRAWS):
        values = sorted([rng.uniform_symmetric() for _ in range(n)])
        if all(values[i + 1] - values[i] >= min_gap for i in range(n - 1)):
            return Spectrum(tuple(values))
    raise RuntimeError(
        f"no spectrum with min_gap {min_gap} found for n={n} "
        f"after {_MAX_REDRAWS} redraws"
    )


def rephase(v, angles):
    """Multiply entry (i, j) of v by exp(i (theta_i + theta_prime_j)).

    Every plaquette product, and hence every invariant built from them, is
    unchanged by this action.
    """
    if angles.n != v.n:
        raise DimensionError(f"matrix is {v.n}x{v.n} but angles have length {angles.n}")
    row, col = _unit_phases([angles.theta]), _unit_phases([angles.theta_prime])
    return UnitaryMatrix(_rephased(v.matrix[None], row, col)[0])


def _unit_phases(angle_rows):
    """(T, n) array of complex(cos t, sin t), by libm, for T rows of n angles."""
    return np.array([[complex(math.cos(t), math.sin(t)) for t in row] for row in angle_rows])


def _rephased(m, row, col):
    """m[t, i, j] * row[t, i] * col[t, j] for a (T, n, n) stack, by numpy's
    complex product in that order."""
    return row[:, :, None] * m * col[:, None, :]
