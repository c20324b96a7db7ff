import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import SEED, bits, haar_stack, signed_permutations, uniforms

from jarlskog import (
    DegenerateSpectrumError,
    DimensionError,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    derive_seed,
    det,
    linalg,
    matmul,
)
from jarlskog.linalg import UNITARITY_TOL


def random_complex_matrix(n, seed):
    # row-major entries, real part before imaginary, each 2u - 1, from the
    # stream seeded with seed
    u = np.array(uniforms(seed, 2 * n * n))
    return (2.0 * u - 1.0).view(np.complex128).reshape(n, n)


# ---------------------------------------------------------------- matmul

def test_matmul_identity_is_noop():
    m = random_complex_matrix(4, SEED)
    assert np.array_equal(matmul(np.eye(4), m), m)


def test_matmul_diagonals_multiply_elementwise():
    a = np.diag([1.0 + 2.0j, -0.5j, 3.0])
    b = np.diag([2.0, 1.0 + 1.0j, -1.0])
    expected = np.diag([(1.0 + 2.0j) * 2.0, -0.5j * (1.0 + 1.0j), -3.0])
    assert np.array_equal(matmul(a, b), expected)


def test_matmul_matches_pure_python_triple_loop_exactly():
    # independent oracle: plain Python complex arithmetic, same index order;
    # signed permutations make most terms zeros of either sign, and a zero
    # left factor makes every real term -0.0, which pins the 0.0 start
    a, b = (random_complex_matrix(4, derive_seed(SEED, t)) for t in (0, 1))
    pairs = [(a, b), (np.zeros((3, 3)), np.full((3, 3), -1.0 + 1.0j))]
    for t, n in enumerate((3, 4), 2):
        perms = [p.matrix for p in signed_permutations(n)]
        c = random_complex_matrix(n, derive_seed(SEED, t))
        for p, q in zip(perms, perms[1:] + perms[:1]):
            pairs.extend(((p, q), (p, c), (c, p)))
    for a, b in pairs:
        n = len(a)
        expected = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                acc = complex(0.0, 0.0)
                for k in range(n):
                    acc += complex(a[i, k]) * complex(b[k, j])
                expected[i, j] = acc
        got = matmul(a, b)
        assert np.array_equal(bits(got.real), bits(expected.real))
        assert np.array_equal(bits(got.imag), bits(expected.imag))


def test_matmul_dimension_mismatch_names_both_sizes():
    with pytest.raises(DimensionError, match="3x3.*4x4"):
        matmul(np.eye(3), np.eye(4))


# ---------------------------------------------------------------- adjoint

def test_adjoint_of_identity():
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))


def test_adjoint_fixes_real_symmetric():
    m = np.array([[1.0, 2.0], [2.0, -3.0]])
    assert np.array_equal(adjoint(m), m.astype(complex))


def test_adjoint_is_involution():
    m = random_complex_matrix(5, SEED)
    assert np.array_equal(adjoint(adjoint(m)), m)


# ---------------------------------------------------------------- det

def _cofactor_det(m):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = complex(0.0, 0.0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_det_identity():
    assert det(np.eye(4)) == 1.0 + 0.0j


def test_det_diagonal_is_product():
    d = [1.5, -2.0 + 1.0j, 0.25j, 3.0]
    expected = d[0] * d[1] * d[2] * d[3]
    assert abs(det(np.diag(d)) - expected) <= 1e-15 * abs(expected)


def test_det_matches_cofactor_expansion():
    for t in range(25):
        m = random_complex_matrix(4, derive_seed(SEED, t))
        expected = _cofactor_det([[complex(z) for z in row] for row in m])
        assert abs(det(m) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_det_singular_matrix_is_zero():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    assert det(m) == 0j


def test_det_is_multiplicative():
    for i, n in enumerate((2, 3, 4)):
        a, b = (random_complex_matrix(n, derive_seed(SEED, 2 * i + t)) for t in (0, 1))
        lhs = det(matmul(a, b))
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------- Spectrum

def test_spectrum_rejects_repeats():
    with pytest.raises(DegenerateSpectrumError):
        Spectrum((1.0, 1.0, 2.0))


def test_spectrum_records_min_gap():
    s = Spectrum((0.0, 0.25, 1.0))
    assert s.min_gap == 0.25
    assert s.n == 3


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=5))
def test_spectrum_accepts_distinct_and_rejects_repeats(values):
    distinct = len(set(values)) == len(values)
    if distinct:
        s = Spectrum(tuple(float(v) for v in values))
        assert s.min_gap > 0
    else:
        with pytest.raises(DegenerateSpectrumError):
            Spectrum(tuple(float(v) for v in values))


def all_pairs_gap(values):
    """The smallest |x - y| over every pair of values, the definition that
    Spectrum's sorted-neighbour minimum must match bit for bit."""
    return min(abs(x - y) for i, x in enumerate(values) for y in values[i + 1:])


#: values that make repeats (+-0.0 among them), overflowing gaps (+-1e308)
#: and non-finite entries likely
SPECTRUM_POOL = (0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e308, -1e308, 0.1, 0.30000000000000004,
                 math.nan, math.inf, -math.inf)


@given(st.lists(st.sampled_from(SPECTRUM_POOL) | st.floats(), min_size=0, max_size=10))
@example([0.0, -0.0, 1.0])
@example([1e308, -1e308])
@example([-1e308, 1e308])
@example([math.nan, 1.0, 1.0])
@example([math.nan] * 9)
def test_spectrum_gap_is_the_all_pairs_minimum_and_errors_keep_their_order(values):
    # errors come in the order dimension, finiteness, gap; a gap that
    # overflows reads inf under both definitions
    if not 2 <= len(values) <= 8:
        with pytest.raises(DimensionError):
            Spectrum(tuple(values))
    elif not all(map(math.isfinite, values)):
        with pytest.raises(ValueError, match="must be finite") as exc:
            Spectrum(tuple(values))
        assert type(exc.value) is ValueError
    elif all_pairs_gap(values) == 0.0:
        with pytest.raises(DegenerateSpectrumError):
            Spectrum(tuple(values))
    else:
        gap = Spectrum(tuple(values)).min_gap
        assert bits([gap]) == bits([all_pairs_gap(values)])
        if sorted(values) == [-1e308, 1e308]:
            assert gap == math.inf


# ---------------------------------------------------------------- UnitaryMatrix

def test_unitary_accepts_identity_and_rejects_nonunitary():
    u = UnitaryMatrix(np.eye(3))
    assert u.unitarity_defect == 0.0
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", range(2, 9))
def test_unitarity_bound_keeps_the_determinant_modulus_near_one(n):
    # V V^+ = I + E with |E_ij| <= d puts |det V| within n d / 2 of 1 to
    # first order, so UnitaryMatrix checks no determinant: at the edge of
    # UNITARITY_TOL, s * I and s * (Haar draws) with s = 1 +- 4.99e-11 stay
    # within that bound, and within 1e-9, for every n up to MAX_DIM
    for i, s in enumerate((1.0 + 4.99e-11, 1.0 - 4.99e-11)):
        for m in [np.eye(n), *haar_stack(n, 5, 300 + n, first=5 * i)]:
            v = UnitaryMatrix(s * m)
            assert 0.99 * UNITARITY_TOL < v.unitarity_defect <= UNITARITY_TOL
            slack = abs(abs(det(v.matrix)) - 1.0)
            assert slack <= n * v.unitarity_defect / 2 + 16 * n * np.finfo(float).eps
            assert slack <= 1e-9


@pytest.mark.parametrize(
    ("faults", "index", "message"),
    (
        ({2: "scale"}, 2, "not unitary"),
        ({1: "scale", 2: "nan"}, 1, "not unitary"),
        ({1: "nan", 2: "scale"}, 1, "must be finite"),
        ({0: "inf", 1: "nan"}, 0, "must be finite"),
    ),
)
def test_stacked_validation_names_the_first_matrix_that_fails(faults, index, message):
    # each matrix's checks run in order, finite entries first, and the
    # first failing matrix of the stack is named whatever the later ones hold
    stack = np.stack([np.eye(3, dtype=complex)] * 4)
    for t, fault in faults.items():
        if fault == "scale":
            stack[t] *= 1.5
        else:
            stack[t, 1, 2] = float(fault)
    with pytest.raises(ValueError, match=message) as exc:
        linalg._validate_unitaries(stack)
    assert exc.value.index == index


def test_unitary_matrix_is_frozen():
    u = UnitaryMatrix(np.eye(3))
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 2.0
