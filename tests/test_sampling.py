import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SEED,
    bits,
    ginibre_stack,
    haar,
    haar_stack,
    normal_pairs,
    phase,
    rephased,
    seed_array,
    uniforms,
)

from jarlskog import DimensionError, UnitaryMatrix, derive_seed, draw_trials, householder_qr
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
        seeds = seed_array(seed)
        assert tuple(sampling._stream(seeds, 5)[0].tolist()) == expected
        # output p depends only on the seed and p
        assert tuple(int(sampling._stream(seeds, p + 1)[0, p]) for p in range(5)) == expected


def test_uniform_range_and_determinism():
    values = uniforms(7, 1000)
    assert all(0.0 <= v < 1.0 for v in values)
    # the same doubles, each read as the last of its own stretch
    seeds = seed_array(7)
    assert values == [sampling._uniform(sampling._stream(seeds, p + 1)[:, p:])[0, 0]
                      for p in range(1000)]


def test_normal_pair_moments():
    # 20000 normal pairs of the stream seeded with 123, drawn as one stack;
    # the first 100 pairs are those read at their own positions, bit for bit
    pairs = normal_pairs(123, 20000)
    seeds = seed_array(123)
    single = [sampling._box_muller(u[:, :1], sampling._unit_phases(sampling._angles(u[:, 1:])))
              for u in (sampling._stream(seeds, 2 * p + 2)[:, 2 * p:] for p in range(100))]
    assert [x[0, 0].tolist() for x in single] == pairs[0, :100].tolist()
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

def test_householder_qr_factorises():
    for t, n in enumerate((2, 3, 4, 8)):
        a = ginibre_stack(n, 1, SEED, t)
        q, r = (x[0] for x in householder_qr(a))
        assert np.max(np.abs(q @ r - a[0])) <= 1e-13
        assert np.max(np.abs(q @ np.conj(q.T) - np.eye(n))) <= 1e-13
        lower = np.tril(r, -1)
        assert np.max(np.abs(lower)) <= 1e-13


# ---------------------------------------------------------------- haar

def test_haar_unitary_is_unitary_for_many_seeds():
    for m in draw_trials(4, seed_array(range(30)))[0]:
        assert UnitaryMatrix(m).unitarity_defect <= 1e-12


def test_haar_unitary_fixed_seed_is_reproducible():
    a = haar(3, 42)
    b = haar(3, 42)
    assert np.array_equal(a.matrix, b.matrix)


def test_draw_trials_rejects_unsupported_dimension():
    with pytest.raises(DimensionError):
        draw_trials(1, seed_array(0))
    with pytest.raises(DimensionError):
        draw_trials(9, seed_array(0))


@pytest.mark.parametrize("n", range(2, 9))
def test_draw_trials_of_no_seeds_is_five_empty_stacks(n):
    # pytest turns any numpy warning into an error (pyproject.toml)
    v, a, b, row, col = draw_trials(n, np.array([], dtype=np.uint64))
    assert v.shape == (0, n, n) and v.dtype == np.complex128
    for x in (a, b, row, col):
        assert x.shape == (0, n)


def validated_haar_stack(n, master_seed, trials):
    """haar_stack of trials, validated once on the stack."""
    v = haar_stack(n, trials, master_seed)
    linalg._validate_unitaries(v)
    return v


def assert_first_draws_match_the_scalar_loop(values, per_draw, master_seed, count=100):
    """values[:count] are bit-equal to per_draw(haar(3, seed)) over the
    seeds of the first count trials, each drawn as a stack of one."""
    expected = [per_draw(haar(3, derive_seed(master_seed, t))) for t in range(count)]
    assert np.array_equal(bits(values[:count]), bits(expected))


def test_haar_first_entry_moment_matches_one_over_n():
    # E|V11|^2 = 1/n for Haar; tolerance fixed after an independent
    # simulation with numpy's own RNG and QR gave 0.3328 over 10^4 draws
    # (standard error about 0.0024)
    trials = 10_000
    # abs of each numpy complex scalar, as the per-draw loop takes it
    values = np.array([abs(z) ** 2 for z in validated_haar_stack(3, 99, trials)[:, 0, 0]])
    assert_first_draws_match_the_scalar_loop(values, lambda v: abs(v.matrix[0, 0]) ** 2, 99)
    assert abs(values.mean() - 1.0 / 3.0) < 0.02


def test_haar_mean_phase_unchanged_by_fixed_rephasing():
    # any rephasing-invariant statistic has identical distribution after a
    # fixed rephasing; the base phase is literally invariant sample by
    # sample, so the two means agree far inside 3 standard errors
    theta, theta_prime = (0.3, 1.1, 5.2), (2.5, 0.4, 3.9)
    v = validated_haar_stack(3, 17, 10_000)
    w = sampling.rephase(v, *(sampling._unit_phases([x]) for x in (theta, theta_prime)))
    # im(12;12), the store's first column, of the stores that validation builds
    plain, shifted = (linalg._validate_unitaries(x)[2][1][:, 0] for x in (v, w))
    assert_first_draws_match_the_scalar_loop(
        plain, lambda v: phase(v, 1, 2, 1, 2).imag, 17)
    assert_first_draws_match_the_scalar_loop(
        shifted, lambda v: phase(rephased(v, theta, theta_prime), 1, 2, 1, 2).imag, 17)
    se = plain.std() / math.sqrt(plain.size)
    assert abs(plain.mean() - shifted.mean()) < 3.0 * se


# ---------------------------------------------------------------- spectra

def drawn_spectra(n, trials, master_seed):
    """The (trials, n) a- and b-spectra of the trials seeded by
    derive_seed(master_seed, t), drawn in stacks of 4096 trials."""
    draws = [draw_trials(n, derive_seed(master_seed, np.arange(t, min(t + 4096, trials))))[1:3]
             for t in range(0, trials, 4096)]
    return tuple(np.concatenate([d[i] for d in draws]) for i in (0, 1))


def test_random_spectrum_gaps_honoured():
    # every drawn spectrum is sorted, keeps every gap at MIN_GAP or more and
    # lies in [-1, 1]: the shifted order statistics need no rejection
    for n in range(2, 9):
        for values in drawn_spectra(n, 4096, SEED + n):
            gaps = values[:, 1:] - values[:, :-1]
            assert np.min(gaps) >= sampling.MIN_GAP, n
            assert np.min(values) >= -1.0 and np.max(values) <= 1.0, n


def order_statistic_fourth_moment(k, n):
    """Fourth central moment of the k-th smallest (1-based) of n uniforms
    on [0, 1], which is Beta(k, n + 1 - k), from its raw moments
    E[U^r] = prod_{i < r} (k + i) / (n + 1 + i)."""
    m1, m2, m3, m4 = (math.prod((k + i) / (n + 1 + i) for i in range(r)) for r in range(1, 5))
    return m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 ** 4


@pytest.mark.parametrize("n", (3, 4, 8))
def test_spectrum_order_statistics_match_their_exact_moments(n):
    # value k (1-based) of a spectrum is -1 + L U_(k) + (k - 1) MIN_GAP,
    # with U_(k) the k-th smallest of n uniforms and L = 2 - (n - 1) MIN_GAP;
    # its sample mean and variance over 20000 trials stay within 4 standard
    # errors of the exact values, for the a- and the b-spectra alike
    trials, gap = 20_000, sampling.MIN_GAP
    width = 2.0 - (n - 1) * gap
    for values in drawn_spectra(n, trials, 4242 + n):
        for k in range(1, n + 1):
            mean = -1.0 + width * k / (n + 1) + (k - 1) * gap
            var = width ** 2 * k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2))
            mu4 = width ** 4 * order_statistic_fourth_moment(k, n)
            column = values[:, k - 1]
            z_mean = (column.mean() - mean) / math.sqrt(var / trials)
            z_var = (column.var(ddof=1) - var) / math.sqrt((mu4 - var * var) / trials)
            assert abs(z_mean) < 4.0, (k, z_mean)
            assert abs(z_var) < 4.0, (k, z_var)


# ---------------------------------------------------------------- rephasing

def test_rephase_with_zero_angles_is_bitwise_noop():
    v = haar(3, SEED)
    out = rephased(v, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert np.array_equal(out.matrix, v.matrix)


def test_rephase_by_pi_rows_flips_sign():
    v = haar(3, SEED)
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
    v = haar(3, 8)
    two_step = rephased(rephased(v, t1, p1), t2, p2)
    one_step = rephased(v, [x + y for x, y in zip(t1, t2)], [x + y for x, y in zip(p1, p2)])
    assert np.max(np.abs(two_step.matrix - one_step.matrix)) <= 1e-13


def test_rephase_leaves_plaquettes_unchanged():
    v = haar(4, SEED)
    # the angles of two more seeds
    theta, theta_prime = ([u * 6.0 for u in uniforms(derive_seed(SEED, t), 4)] for t in (0, 1))
    w = rephased(v, theta, theta_prime)
    for idx in ((1, 2, 1, 2), (1, 3, 2, 4), (2, 4, 1, 3), (3, 4, 3, 4)):
        assert abs(phase(v, *idx) - phase(w, *idx)) <= 1e-13
