import itertools

import numpy as np
import pytest

from jarlskog import (
    MassPairInput,
    SeededRng,
    UnitaryMatrix,
    haar_unitary,
    random_spectrum,
    rephase,
)
from jarlskog import sampling


def seeded_input(n, seed):
    """One mixing matrix plus two spectra from a single stream."""
    rng = SeededRng(seed)
    v = haar_unitary(n, rng)
    a = random_spectrum(n, rng)
    b = random_spectrum(n, rng)
    return MassPairInput(a=a, b=b, v=v)


def uniforms(rng, count):
    """The next count doubles in [0, 1) of rng's stream, as a list."""
    return sampling._uniform(rng._draw(sampling._stream, count)).tolist()


def rephased(v, theta, theta_prime):
    """v with entry (i, j) times exp(i (theta_i + theta_prime_j)): the
    rephasing kernel on a stack of one."""
    row, col = (sampling._unit_phases([x]) for x in (theta, theta_prime))
    return UnitaryMatrix(rephase(v.matrix[None], row, col)[0])


def phase(v, a, b, j, k):
    """The complex plaquette of v at 1-based indices (a b; j k), the usual
    physics labels, read from the 0-based tensors v.plaquettes."""
    re, im = (x[a - 1, b - 1, j - 1, k - 1] for x in v.plaquettes)
    return complex(re, im)


def givens(n, p, q, theta, phi=0.0):
    """Complex rotation in the (p, q) plane, for building structured unitaries."""
    m = np.eye(n, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    m[p, p] = c
    m[q, q] = c
    m[p, q] = s * np.exp(1j * phi)
    m[q, p] = -s * np.exp(-1j * phi)
    return m


def orthogonal4():
    """A real 4x4 rotation: every imaginary phase is exactly zero."""
    m = (
        givens(4, 0, 1, 0.7)
        @ givens(4, 1, 2, 1.1)
        @ givens(4, 2, 3, 0.5)
        @ givens(4, 0, 2, 0.9)
        @ givens(4, 1, 3, 0.4)
    )
    return UnitaryMatrix(m.astype(complex))


def signed_permutations(n):
    """Every n x n permutation matrix times each of the phases 1, -i, -1."""
    for perm in itertools.permutations(range(n)):
        for phase in (1, -1j, -1):
            m = np.zeros((n, n), dtype=complex)
            m[np.arange(n), perm] = phase
            yield UnitaryMatrix(m)


def bits(x):
    """float64 bit patterns as uint64, so signed zeros compare unequal."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@pytest.fixture
def rng():
    return SeededRng(20240817)
