import itertools

import numpy as np
import pytest

from jarlskog import MassPairInput, SeededRng, UnitaryMatrix, haar_unitary, random_spectrum


def seeded_input(n, seed):
    """One mixing matrix plus two spectra from a single stream."""
    rng = SeededRng(seed)
    v = haar_unitary(n, rng)
    a = random_spectrum(n, rng)
    b = random_spectrum(n, rng)
    return MassPairInput(a=a, b=b, v=v)


def givens(n, p, q, theta, phi=0.0):
    """Complex rotation in the (p, q) plane, for building structured unitaries."""
    m = np.eye(n, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    m[p, p] = c
    m[q, q] = c
    m[p, q] = s * np.exp(1j * phi)
    m[q, p] = -s * np.exp(-1j * phi)
    return m


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
