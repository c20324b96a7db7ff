import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, phase, rephased, uniforms

from jarlskog import (
    DimensionError,
    SeededRng,
    derive_seed,
    haar_unitary,
    householder_qr,
    random_spectrum,
)
from jarlskog import linalg, sampling

# frozen vectors from the reference C implementation of splitmix64
SPLITMIX64_VECTORS = {
    0: (
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ),
    42: (
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ),
    0x123456789ABCDEF: (
        1547611027431991965,
        15380727978956804243,
        3427440727199435966,
        11733030637320693740,
        90156556503711752,
    ),
    0xFFFFFFFFFFFFFFFF: (
        16490336266968443936,
        16834447057089888969,
        4048727598324417001,
        7862637804313477842,
        13015481187462834606,
    ),
}


def test_stream_matches_reference_vectors():
    for seed, expected in SPLITMIX64_VECTORS.items():
        rng = SeededRng(seed)
        assert tuple(int(rng._draw(sampling._stream, 1)[0]) for _ in range(5)) == expected
        assert rng.position == 5


def test_uniform_range_and_determinism():
    rng = SeededRng(7)
    values = [uniforms(rng, 1)[0] for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values == uniforms(SeededRng(7), 1000)


def test_normal_pair_moments():
    # 20000 normal pairs of SeededRng(123), drawn as one stack; the first
    # 100 pairs are those of one-pair draws, bit for bit
    rng = SeededRng(123)
    pairs, _ = sampling._normals(np.array([rng.seed], dtype=np.uint64), np.array([0]), 20000)
    assert [rng._draw(sampling._normals, 1)[0].tolist() for _ in range(100)] == \
        pairs[0, :100].tolist()
    arr = pairs.ravel()
    assert abs(arr.mean()) < 0.02
    assert abs(arr.var() - 1.0) < 0.03


def test_derive_seed_is_deterministic_and_spread_out():
    seeds = [derive_seed(99, i) for i in range(1000)]
    assert seeds == [derive_seed(99, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    with pytest.raises(ValueError):
        derive_seed(1, -1)


# ---------------------------------------------------------------- QR

def test_householder_qr_factorises(rng):
    for n in (2, 3, 4, 8):
        # row-major entries, each a normal pair (re, im)
        a = rng._draw(sampling._normals, n * n).view(np.complex128).reshape(n, n)
        q, r = householder_qr(a)
        assert np.max(np.abs(q @ r - a)) <= 1e-13
        assert np.max(np.abs(q @ np.conj(q.T) - np.eye(n))) <= 1e-13
        lower = np.tril(r, -1)
        assert np.max(np.abs(lower)) <= 1e-13


# ---------------------------------------------------------------- haar

def test_haar_unitary_is_unitary_for_many_seeds():
    for seed in range(30):
        v = haar_unitary(4, SeededRng(seed))
        assert v.unitarity_defect <= 1e-12


def test_haar_unitary_fixed_seed_is_reproducible():
    a = haar_unitary(3, SeededRng(42))
    b = haar_unitary(3, SeededRng(42))
    assert np.array_equal(a.matrix, b.matrix)


def test_haar_unitary_rejects_unsupported_dimension():
    with pytest.raises(DimensionError):
        haar_unitary(1, SeededRng(0))
    with pytest.raises(DimensionError):
        haar_unitary(9, SeededRng(0))


def haar_stack(n, rng, trials):
    """trials Haar unitaries as one (T, n, n) stack: the Ginibre matrices
    that trials haar_unitary(n, rng) calls would draw, in the same order,
    drawn as one stack of positions along rng's stream, then the diag(R)
    fix and the validation once on the stack."""
    seeds = np.full(trials, rng.seed, dtype=np.uint64)
    z, _ = sampling._normals(seeds, rng.position + 2 * n * n * np.arange(trials), n * n)
    v = sampling._haar_from_ginibre(sampling._as_ginibre(z, n))
    linalg._validate_unitaries(v)
    return v


def assert_first_draws_match_the_scalar_loop(values, per_draw, seed, count=100):
    """values[:count] are bit-equal to per_draw(haar_unitary(3, rng)) over
    count successive draws from SeededRng(seed)."""
    rng = SeededRng(seed)
    expected = [per_draw(haar_unitary(3, rng)) for _ in range(count)]
    assert np.array_equal(bits(values[:count]), bits(expected))


def test_haar_first_entry_moment_matches_one_over_n():
    # E|V11|^2 = 1/n for Haar; tolerance fixed after an independent
    # simulation with numpy's own RNG and QR gave 0.3328 over 10^4 draws
    # (standard error about 0.0024)
    trials = 10_000
    # abs of each numpy complex scalar, as the per-draw loop takes it
    values = np.array([abs(z) ** 2 for z in haar_stack(3, SeededRng(99), trials)[:, 0, 0]])
    assert_first_draws_match_the_scalar_loop(values, lambda v: abs(v.matrix[0, 0]) ** 2, 99)
    assert abs(values.mean() - 1.0 / 3.0) < 0.02


def test_haar_mean_phase_unchanged_by_fixed_rephasing():
    # any rephasing-invariant statistic has identical distribution after a
    # fixed rephasing; the base phase is literally invariant sample by
    # sample, so the two means agree far inside 3 standard errors
    theta, theta_prime = (0.3, 1.1, 5.2), (2.5, 0.4, 3.9)
    v = haar_stack(3, SeededRng(17), 10_000)
    w = sampling.rephase(v, *(sampling._unit_phases([x]) for x in (theta, theta_prime)))
    linalg._validate_unitaries(w)
    plain, shifted = (linalg._plaquettes(x)[1][:, 0, 1, 0, 1] for x in (v, w))
    assert_first_draws_match_the_scalar_loop(
        plain, lambda v: phase(v, 1, 2, 1, 2).imag, 17)
    assert_first_draws_match_the_scalar_loop(
        shifted, lambda v: phase(rephased(v, theta, theta_prime), 1, 2, 1, 2).imag, 17)
    se = plain.std() / math.sqrt(plain.size)
    assert abs(plain.mean() - shifted.mean()) < 3.0 * se


# ---------------------------------------------------------------- spectra

def test_random_spectrum_gaps_honoured(rng):
    s = random_spectrum(4, rng)
    vals = s.values
    assert vals == tuple(sorted(vals))
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(vals[i] - vals[j]) >= 0.05
    assert all(-1.0 <= v <= 1.0 for v in vals)


# ---------------------------------------------------------------- rephasing

def test_rephase_with_zero_angles_is_bitwise_noop(rng):
    v = haar_unitary(3, rng)
    out = rephased(v, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert np.array_equal(out.matrix, v.matrix)


def test_rephase_by_pi_rows_flips_sign(rng):
    v = haar_unitary(3, rng)
    out = rephased(v, (math.pi,) * 3, (0.0,) * 3)
    assert np.max(np.abs(out.matrix + v.matrix)) <= 1e-15


def test_drawn_angles_need_no_reduction():
    # the largest uniform, 1 - 2^-53, keeps 2 pi u below 2 pi after
    # rounding, so the stacked angle draw needs no reduction mod 2 pi
    angle = 2.0 * math.pi * ((2 ** 53 - 1) * 2.0 ** -53)
    assert angle < 2.0 * math.pi


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
def test_rephase_composes_additively(t1, p1, t2, p2):
    v = haar_unitary(3, SeededRng(8))
    two_step = rephased(rephased(v, t1, p1), t2, p2)
    one_step = rephased(v, [x + y for x, y in zip(t1, t2)], [x + y for x, y in zip(p1, p2)])
    assert np.max(np.abs(two_step.matrix - one_step.matrix)) <= 1e-13


def test_rephase_leaves_plaquettes_unchanged(rng):
    v = haar_unitary(4, rng)
    theta, theta_prime = ([u * 6.0 for u in uniforms(rng, 4)] for _ in "rc")
    w = rephased(v, theta, theta_prime)
    for idx in ((1, 2, 1, 2), (1, 3, 2, 4), (2, 4, 1, 3), (3, 4, 3, 4)):
        assert abs(phase(v, *idx) - phase(w, *idx)) <= 1e-13
