"""Bitwise pins of the product kernel behind plaquettes and commutator entries.

The references below are plain scalar complex arithmetic with the grouping
the library documents.  The kernel must reproduce them bit for bit, signed
zeros included, so results are compared as uint64 bit patterns.
"""

import os

import numpy as np
import pytest

from jarlskog import (
    MassPairInput,
    SeededRng,
    UnitaryMatrix,
    haar_unitary,
    random_spectrum,
)
from jarlskog.cli import main
from jarlskog.determinant import commutator_matrix
from jarlskog.problem_io import load_problem

DATA = os.path.join(os.path.dirname(__file__), "data")
PROBLEMS = ("problem_n3_identity", "problem_n3_seed501", "problem_n4_seed2024")


def scalar_plaquette(m, a, b, j, k):
    """(V[a,j] conj(V[a,k])) * (V[b,k] conj(V[b,j])), 0-based, scalar."""
    za = complex(m[a, j]) * complex(m[a, k]).conjugate()
    zb = complex(m[b, k]) * complex(m[b, j]).conjugate()
    return za * zb


def scalar_commutator(inp):
    """u[i, j] = (a_i - a_j) sum_k b_k (V[i,k] conj(V[j,k])), k ascending."""
    n = inp.n
    a, b, v = inp.a.values, inp.b.values, inp.v.matrix
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += b[k] * (v[i, k] * np.conj(v[j, k]))
            out[i, j] = (a[i] - a[j]) * complex(acc)
    return out


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def pinned_matrices():
    rng = SeededRng(20261017)
    mats = [haar_unitary(n, rng) for n in (3, 4) for _ in range(40)]
    for n in (3, 4):
        mats.append(UnitaryMatrix(np.eye(n)))
        mats.append(UnitaryMatrix(np.eye(n)[::-1]))
    mats.extend(load_problem(os.path.join(DATA, f"{p}.json")).v for p in PROBLEMS)
    return mats


def test_plaquette_tensor_is_bit_equal_to_scalar_reference():
    for v in pinned_matrices():
        n, m = v.n, v.matrix
        ref = np.empty((n, n, n, n), dtype=np.complex128)
        for idx in np.ndindex(ref.shape):
            ref[idx] = scalar_plaquette(m, *idx)
        re, im = v.plaquettes
        assert np.array_equal(bits(re), bits(ref.real))
        assert np.array_equal(bits(im), bits(ref.imag))


def test_plaquette_tensor_is_read_only_and_computed_once():
    v = haar_unitary(4, SeededRng(3))
    re, im = v.plaquettes
    assert v.plaquettes[0] is re
    with pytest.raises(ValueError):
        im[0, 1, 0, 1] = 0.0


def test_commutator_matrix_is_bit_equal_to_scalar_reference():
    rng = SeededRng(777)
    for v in pinned_matrices():
        inp = MassPairInput(a=random_spectrum(v.n, rng), b=random_spectrum(v.n, rng), v=v)
        got = commutator_matrix(inp)
        ref = scalar_commutator(inp)
        assert np.array_equal(bits(got.real), bits(ref.real))
        assert np.array_equal(bits(got.imag), bits(ref.imag))


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("command", (("det", "--method", "both"), ("phases",)))
def test_report_bytes_match_golden_file(problem, command, capsys):
    path = os.path.join(DATA, f"{problem}.json")
    assert main([command[0], path, *command[1:]]) == 0
    with open(os.path.join(DATA, f"{problem}.{command[0]}.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
