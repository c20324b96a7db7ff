import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, signed_permutations

from jarlskog import (
    DegenerateSpectrumError,
    DimensionError,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    det,
    matmul,
)


def random_complex_matrix(n, rng):
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i, j] = complex(rng.uniform_symmetric(), rng.uniform_symmetric())
    return m


# ---------------------------------------------------------------- matmul

def test_matmul_identity_is_noop(rng):
    m = random_complex_matrix(4, rng)
    assert np.array_equal(matmul(np.eye(4), m), m)


def test_matmul_diagonals_multiply_elementwise():
    a = np.diag([1.0 + 2.0j, -0.5j, 3.0])
    b = np.diag([2.0, 1.0 + 1.0j, -1.0])
    expected = np.diag([(1.0 + 2.0j) * 2.0, -0.5j * (1.0 + 1.0j), -3.0])
    assert np.array_equal(matmul(a, b), expected)


def test_matmul_matches_pure_python_triple_loop_exactly(rng):
    # independent oracle: plain Python complex arithmetic, same index order;
    # signed permutations make most terms zeros of either sign, and a zero
    # left factor makes every real term -0.0, which pins the 0.0 start
    a = random_complex_matrix(4, rng)
    b = random_complex_matrix(4, rng)
    pairs = [(a, b), (np.zeros((3, 3)), np.full((3, 3), -1.0 + 1.0j))]
    for n in (3, 4):
        perms = [p.matrix for p in signed_permutations(n)]
        c = random_complex_matrix(n, rng)
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


def test_adjoint_is_involution(rng):
    m = random_complex_matrix(5, rng)
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


def test_det_matches_cofactor_expansion(rng):
    for _ in range(25):
        m = random_complex_matrix(4, rng)
        expected = _cofactor_det([[complex(z) for z in row] for row in m])
        assert abs(det(m) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_det_singular_matrix_is_zero():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    assert det(m) == 0j


def test_det_is_multiplicative(rng):
    for n in (2, 3, 4):
        a = random_complex_matrix(n, rng)
        b = random_complex_matrix(n, rng)
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


# ---------------------------------------------------------------- UnitaryMatrix

def test_unitary_accepts_identity_and_rejects_nonunitary():
    u = UnitaryMatrix(np.eye(3))
    assert u.unitarity_defect == 0.0
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_unitary_matrix_is_frozen():
    u = UnitaryMatrix(np.eye(3))
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 2.0
