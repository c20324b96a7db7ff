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
kept in-repo so no result depends on the LAPACK/BLAS build in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, Spectrum, UnitaryMatrix, check_dimension

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


def _qr_householder(a):
    """QR of a square complex matrix by Householder reflections.

    Returns (q, r) with a = q r.  Loop order is fixed, so the factorisation
    is deterministic everywhere.
    """
    a = np.array(a, dtype=np.complex128)
    n = a.shape[0]
    q = np.eye(n, dtype=np.complex128)
    r = a
    for k in range(n - 1):
        x = r[k:, k]
        norm_x = float(np.sqrt(np.sum(np.abs(x) ** 2)))
        if norm_x == 0.0:
            continue
        x0 = x[0]
        phase = x0 / abs(x0) if x0 != 0 else complex(1.0, 0.0)
        v = x.copy()
        v[0] += phase * norm_x
        vnorm = float(np.sqrt(np.sum(np.abs(v) ** 2)))
        if vnorm == 0.0:
            continue
        v /= vnorm
        # reductions spelled out with numpy sums (not @) to stay off BLAS
        r[k:, k:] -= 2.0 * np.outer(v, (np.conj(v)[:, None] * r[k:, k:]).sum(axis=0))
        q[:, k:] -= 2.0 * np.outer((q[:, k:] * v[None, :]).sum(axis=1), np.conj(v))
    return q, r


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
    q, r = _qr_householder(ginibre(n, rng))
    for k in range(n):
        d = r[k, k]
        mag = abs(d)
        q[:, k] *= d / mag if mag != 0.0 else 1.0
    return UnitaryMatrix(q)


def random_spectrum(n, rng, min_gap=DEFAULT_MIN_GAP):
    """n values uniform on [-1, 1], redrawn until all pairwise gaps reach
    min_gap, returned ascending.

    Infeasible requests (min_gap * (n - 1) >= 2, i.e. the values cannot fit
    in the interval) are rejected up front.
    """
    check_dimension(n)
    if min_gap <= 0.0:
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
    row = np.array([complex(math.cos(t), math.sin(t)) for t in angles.theta])
    col = np.array([complex(math.cos(t), math.sin(t)) for t in angles.theta_prime])
    return UnitaryMatrix(row[:, None] * v.matrix * col[None, :])
