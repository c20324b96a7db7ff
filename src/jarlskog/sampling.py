"""Seeded sampling: Haar-random unitaries, random simple spectra, rephasing.

The generator is splitmix64 (Vigna 2015): a 64-bit counter stream passed
through a finalizer.  It is specified exactly by integer arithmetic, so the
same seed produces the same uniform doubles on every platform; frozen test
vectors from the reference C implementation live in the test suite.  The
Gaussian and Haar draws on top of it are deterministic for a fixed seed,
but route through libm transcendentals, so their bits are pinned per
platform rather than universally.

Output p of a stream depends only on its seed and p, so a stack of streams
is drawn at once, each from its start: uint64 array arithmetic for the
stream, exact elementwise float operations on top, and log, cos and sin as
scalar libm calls over the entries (numpy's own loops for them round
differently).  Reading outputs (_stream) is kept apart from turning them
into draws, which has one definition per kind of draw: _box_muller for
normal pairs, _angles and _unit_phases for angles and their phases,
_spectrum for spectra.  draw_trials is the one sampler: it reads every
output a trial needs in one fixed-size block, from the start of the
trial's own stream, and gives the Haar unitary, the two spectra and the
rephasing phases of every trial of a stack.  verify draws its chunks
through it, and sample draws a stack of one, so slice t of a stacked draw
has the bits of the draw on seed t alone.

A spectrum is n uniform values on [-1, 1 - (n - 1) MIN_GAP], sorted, with
i MIN_GAP added to the i-th smallest (0-based): the shifted order
statistics.  That is exactly the uniform distribution on the sorted
n-tuples in [-1, 1] whose gaps all reach MIN_GAP, drawn without rejection,
so every draw reads the same n outputs.

Haar sampling trap: QR-factorising a complex Ginibre matrix does NOT give a
Haar-distributed Q, because the QR factorisation is only unique up to the
phases of diag(R).  Each column of Q must be rescaled by the phase of the
corresponding diagonal entry of R; with that correction the distribution is
exactly Haar.  The QR factorisation itself is a plain Householder sweep,
kept in-repo so no result depends on the LAPACK/BLAS build in use.  It and
the phase correction run on the (T, n, n) stack of Ginibre draws at once.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _cmul, _modulus, check_dimension

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: smallest gap between the values of a drawn spectrum; _spectrum shifts
#: the i-th smallest value by i * MIN_GAP
MIN_GAP = 0.05


def _mix64(z):
    """splitmix64's finalizer on a uint64 array.  numpy's array arithmetic
    wraps mod 2^64 without a warning; its scalar arithmetic would warn, so
    every draw keeps at least one axis."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def _stream(seeds, count):
    """The first count outputs of each stream: a (T, count) uint64 array
    from (T,) uint64 seeds.

    splitmix64 is counter-based: output p (1-based) of the stream seeded
    with s is mix64(s + p * GOLDEN mod 2^64), so the outputs of a whole
    stack of streams are a few array operations.
    """
    steps = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64(seeds[:, None] + steps * _GOLDEN)


def _uniform(u):
    """Doubles in [0, 1) with 53 random bits, from uint64 outputs."""
    return (u >> 11) * 2.0 ** -53


def _libm(f, x):
    """f, a scalar libm function such as math.log, on every entry of the
    float array x.  numpy's own transcendental loops are not libm and round
    differently on some inputs, so the draws never use them."""
    return np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _angles(u):
    """Angles 2 pi u from uint64 outputs.  u <= 1 - 2^-53 keeps 2 pi u below
    2 pi after rounding, so the angles need no reduction mod 2 pi."""
    return _TWO_PI * _uniform(u)


def _box_muller(radial, unit):
    """Box-Muller normals: a (..., 2) array of (r cos t, r sin t) pairs from
    the radial outputs and the unit phases complex(cos t, sin t) of the
    angles t, both (...).  The radial uniform is shifted into (0, 1] so log
    never sees zero."""
    r = np.sqrt(-2.0 * _libm(math.log, ((radial >> 11) + 1) * 2.0 ** -53))
    z = np.empty((*r.shape, 2))
    np.multiply(r, unit.real, out=z[..., 0])
    np.multiply(r, unit.imag, out=z[..., 1])
    return z


def _as_ginibre(z, n):
    """(T, n, n) complex Ginibre matrices from (T, n * n, 2) normal pairs:
    entries row-major, real component before imaginary, each a standard
    normal scaled by 1/sqrt(2)."""
    return (z * _INV_SQRT2).view(np.complex128).reshape(-1, n, n)


def _spectrum(u):
    """Spectra from uint64 outputs u, n to a spectrum along the last axis:
    the values -1 + (2 - (n - 1) MIN_GAP) u, sorted ascending, plus
    i MIN_GAP on the i-th (0-based)."""
    n = u.shape[-1]
    values = (2.0 - (n - 1) * MIN_GAP) * _uniform(u) - 1.0
    values.sort(axis=-1)
    values += np.arange(n) * MIN_GAP
    return values


def derive_seed(master_seed, index):
    """Per-trial seed from a master seed and a trial index.

    Trials are order-independent: seed i never has to be generated before
    seed j.  The finalizer scrambles the affine combination so neighbouring
    indices land in unrelated stream positions.  index may be an array of
    trial indices; the seeds are then a uint64 array of its shape.
    """
    indices = np.asarray(index)
    if np.logical_or.reduce(indices < 0, axis=None):
        raise ValueError("trial index must be nonnegative")
    steps = np.array(index, dtype=np.uint64, ndmin=1) + 1
    seeds = _mix64((int(master_seed) & _MASK64) + steps * _GOLDEN)
    return int(seeds[0]) if indices.ndim == 0 else seeds


def householder_qr(a):
    """QR by Householder reflections, without the diag(R) phase correction.

    a is a (T, n, n) stack of square complex matrices; returns the (q, r)
    stacks with a = q r per matrix.  Each reflection is one set of numpy
    calls for the whole stack, in a fixed loop order, so the factorisation
    is deterministic everywhere and slice t of a stacked result is
    bit-equal to the QR of matrix t alone.  |x0| is taken by _modulus, the
    bits of the scalar modulus, and phase(x0) * norm by the scalar complex
    product _cmul.
    """
    r = np.array(a, dtype=np.complex128)
    n = r.shape[-1]
    q = np.zeros(r.shape, dtype=np.complex128)
    q.reshape(len(r), n * n)[:, ::n + 1] = 1.0
    for k in range(n - 1):
        x = r[:, k:, k]
        norm_x = np.sqrt(np.add.reduce(np.abs(x) ** 2, axis=1))
        phase = _phase_of(x[:, 0])
        v = x.copy()
        # v[0] += phase * norm_x, the scalar complex product, part by part
        shift_r, shift_i = _cmul(phase.real, phase.imag, norm_x, 0.0)
        v.real[:, 0] += shift_r
        v.imag[:, 0] += shift_i
        vnorm = np.sqrt(np.add.reduce(np.abs(v) ** 2, axis=1))
        # a zero reflector, as from a zero column (norm_x == 0 implies
        # vnorm == 0), leaves r and q as they are
        skip = 0.0 in vnorm.tolist()
        if skip:
            act = vnorm != 0.0
            vnorm = np.where(act, vnorm, 1.0)
        v /= vnorm[:, None]
        # reductions spelled out with numpy sums (not @) to stay off BLAS
        r_upd = 2.0 * (v[:, :, None]
                       * np.add.reduce(np.conj(v)[:, :, None] * r[:, k:, k:], axis=1)[:, None, :])
        q_upd = 2.0 * (np.add.reduce(q[:, :, k:] * v[:, None, :], axis=2)[:, :, None]
                       * np.conj(v)[:, None, :])
        if skip:
            r[act, k:, k:] -= r_upd[act]
            q[act, :, k:] -= q_upd[act]
        else:
            r[:, k:, k:] -= r_upd
            q[:, :, k:] -= q_upd
    return q, r


def _phase_of(z):
    """z / |z| per entry, with the scalar modulus _modulus, and 1 where
    z == 0."""
    mag = _modulus(z)
    if 0.0 in mag.ravel().tolist():
        return np.where(mag != 0.0, z / np.where(mag != 0.0, mag, 1.0), 1.0)
    return z / mag


def _haar_from_ginibre(g):
    """Haar unitaries from a (T, n, n) Ginibre stack: QR, then each column
    of Q times the phase of the matching diagonal entry of R."""
    q, r = householder_qr(g)
    q *= _phase_of(r.diagonal(0, 1, 2))[:, None, :]
    return q


def draw_trials(n, seeds):
    """The draws of each trial, in stream order: the Haar unitary V (from
    its Ginibre matrix), the a- and b-spectra and the rephasing angles.
    seeds is the (T,) uint64 array of per-trial seeds.  Returns the
    (T, n, n) Haar stack, the (T, n) spectra a and b, and the (T, n) row and
    column rephasing phases.

    Every trial reads one block of 2 n^2 + 4n outputs from the start of its
    own stream, each part at a fixed offset: 2 n^2 Ginibre outputs (radial,
    then angle, per normal pair), n for a, n for b and 2n rephasing angles.
    One log pass serves the Box-Muller radii, and one cos and one sin pass
    serve the Box-Muller angles and the rephasing angles together.  Slice t
    of the result is bit-equal to the draw of the stack of one
    seeds[t:t + 1].
    """
    check_dimension(n)
    start = 2 * n * n
    u = _stream(seeds, start + 4 * n)
    a, b = _spectrum(u[:, start:start + 2 * n].reshape(-1, 2, n)).transpose(1, 0, 2)
    # the angle outputs: the Box-Muller ones, then the rephasing ones
    turns = np.concatenate([u[:, 1:start:2], u[:, start + 2 * n:]], axis=1)
    unit = _unit_phases(_angles(turns))
    v = _haar_from_ginibre(_as_ginibre(_box_muller(u[:, 0:start:2], unit[:, :n * n]), n))
    return v, a, b, unit[:, n * n:n * n + n], unit[:, n * n + n:]


def _unit_phases(angles):
    """complex(cos t, sin t), by libm, for every entry of an array of angles."""
    angles = np.asarray(angles, dtype=float)
    out = np.empty(angles.shape, dtype=np.complex128)
    out.real = _libm(math.cos, angles)
    out.imag = _libm(math.sin, angles)
    return out


def rephase(m, row, col):
    """The rephasing action on a (T, n, n) stack: m[t, i, j] * row[t, i] *
    col[t, j], by numpy's complex product in that order, for (T, n) unit
    phases row = exp(i theta) and col = exp(i theta_prime).

    Every plaquette product, and hence every invariant built from them, is
    unchanged by this action.  _unit_phases makes the phases from angles.
    """
    return row[:, :, None] * m * col[:, None, :]
