"""Bitwise pins of the product kernel and the fixed-order k-sums built on it.

The references below are plain scalar complex arithmetic with the grouping
and the summation order the library documents: the plaquettes, the
commutator entries, the nine term groups of the n=4 closed form and the
3x3 products of the 36-phase expansion.  The library must reproduce them
bit for bit, signed zeros included, so results are compared as uint64 bit
patterns.  Golden report files pin the printed digits end to end.
"""

import itertools
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
from jarlskog.determinant import (
    DET4_GROUPS,
    commutator_matrix,
    cycle_groups,
    decompose_det4,
    det4_closed,
    t_factors,
)
from jarlskog.phases import A_MATRIX, expand_phases, jr_matrices
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


def scalar_det4_groups(inp):
    """The nine term groups and the raw cycle sums, scalar complex code.

    Returns (parts, cycles) shaped like decompose_det4 and cycle_groups.
    Every factor is a 3-term sum over the columns k = 0..2, weighted by
    bw[k] = b_k - b_4: spelled out as t0 + t1 + t2, except the plaquette
    forms, which accumulate from 0j with k2 innermost.
    """
    m, b = inp.v.matrix, inp.b.values
    bw = [b[k] - b[3] for k in range(3)]
    q12, q13, q23 = (
        [[scalar_plaquette(m, a, c, j, k) for k in range(3)] for j in range(3)]
        for a, c in ((0, 1), (0, 2), (1, 2))
    )
    x = {(a, c): [complex(m[a, k]) * complex(m[c, k]).conjugate() for k in range(3)]
         for a in range(3) for c in range(3) if a != c}
    m1, m2, m3 = ([float(abs(m[r, k]) ** 2) for k in range(3)] for r in range(3))

    def wsum(t):
        return bw[0] * t[0] + bw[1] * t[1] + bw[2] * t[2]

    def w2sum(t):
        return (bw[0] * bw[0]) * t[0] + (bw[1] * bw[1]) * t[1] + (bw[2] * bw[2]) * t[2]

    def qform(q):
        acc = 0j
        for k1 in range(3):
            for k2 in range(3):
                acc += (bw[k1] * bw[k2]) * q[k1][k2]
        return acc

    def pair(t, q, row, qx, qy):
        wm = wsum(row)
        return t * (qform(q) * w2sum(row) - qform(qx) * qform(qy) - qform(q) * (wm * wm))

    tf = t_factors(inp.a)
    tp, tc = list(tf.pair.values()), list(tf.cycle.values())
    parts = {
        "pair_12_34": pair(tp[0], q12, m3, q13, q23),
        "pair_13_24": pair(tp[1], q13, m2, q12, q23),
        "pair_14_23": pair(tp[2], q23, m1, q12, q13),
    }
    cyc = (
        (x[(2, 0)], x[(0, 1)], x[(1, 2)], [m2[k] + m3[k] for k in range(3)]),
        (x[(0, 2)], x[(2, 1)], x[(1, 0)], [m1[k] + m2[k] for k in range(3)]),
        (x[(0, 1)], x[(1, 2)], x[(2, 0)], [m1[k] + m3[k] for k in range(3)]),
    )
    cycles = {}
    for name, t, (xa, xb, xc, _) in zip(DET4_GROUPS[3:6], tc, cyc):
        cycles[name] = (-2.0 * t, wsum(xa) * wsum(xb) * w2sum(xc))
    for name, t, (xa, xb, xc, mw) in zip(DET4_GROUPS[6:], tc, cyc):
        cycles[name] = (2.0 * t, wsum(xa) * wsum(xb) * wsum(xc) * wsum(mw))
    for name, (weight, raw) in cycles.items():
        parts[name] = complex(weight * raw.real, 0.0)
    return parts, cycles


def spelled_product(x, y):
    """3x3 product x y, each entry spelled out in ascending k."""
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            out[i, j] = x[i, 0] * y[0, j] + x[i, 1] * y[1, j] + x[i, 2] * y[2, j]
    return out


#: block order of the expansion: adjacent pairs, then (24), (14), (13)
BLOCK_ORDER = ((1, 2), (2, 3), (3, 4), (2, 4), (1, 4), (1, 3))


def reference_expansion(j):
    """The 36-phase expansion of J as a full tensor, from spelled-out products."""
    aj = spelled_product(A_MATRIX, j)
    block = np.block([[j, spelled_product(j, A_MATRIX)], [aj, spelled_product(aj, A_MATRIX)]])
    t = np.zeros((4, 4, 4, 4))
    for (r, (a, b)), (c, (k, l)) in itertools.product(enumerate(BLOCK_ORDER), repeat=2):
        t[a - 1, b - 1, k - 1, l - 1] = block[r, c]
    return t - t.transpose(1, 0, 2, 3) - t.transpose(0, 1, 3, 2) + t.transpose(1, 0, 3, 2)


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def cbits(z):
    return bits([z.real, z.imag])


def signed_permutations(n):
    """Every n x n permutation matrix times each of the phases 1, -i, -1."""
    for perm in itertools.permutations(range(n)):
        for phase in (1, -1j, -1):
            m = np.zeros((n, n), dtype=complex)
            m[np.arange(n), perm] = phase
            yield UnitaryMatrix(m)


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


def test_column_products_are_read_only_and_computed_once():
    v = haar_unitary(4, SeededRng(3))
    re, im = v.column_products
    assert v.column_products[0] is re
    with pytest.raises(ValueError):
        im[0, 1, 0] = 0.0


def test_commutator_matrix_is_bit_equal_to_scalar_reference():
    rng = SeededRng(777)
    mats = [*pinned_matrices(), *signed_permutations(3), *signed_permutations(4)]
    for v in mats:
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


def test_det4_groups_are_bit_equal_to_scalar_reference():
    rng = SeededRng(4321)
    mats = [v for v in pinned_matrices() if v.n == 4] + list(signed_permutations(4))
    assert len(mats) == 40 + 2 + 1 + 72
    for v in mats:
        inp = MassPairInput(a=random_spectrum(4, rng), b=random_spectrum(4, rng), v=v)
        ref_parts, ref_cycles = scalar_det4_groups(inp)
        parts = decompose_det4(inp)
        assert list(parts) == list(DET4_GROUPS)
        for name in DET4_GROUPS:
            assert np.array_equal(cbits(parts[name]), cbits(ref_parts[name])), name
        cycles = cycle_groups(inp)
        assert list(cycles) == list(ref_cycles)
        for name, (weight, raw) in cycles.items():
            assert bits([weight]) == bits([ref_cycles[name][0]]), name
            assert np.array_equal(cbits(raw), cbits(ref_cycles[name][1])), name
        acc = 0j
        for name in DET4_GROUPS:
            acc += ref_parts[name]
        assert np.array_equal(cbits(det4_closed(inp)), cbits(acc))


def test_phase_expansion_is_bit_equal_to_spelled_out_products():
    mats = [v for v in pinned_matrices() if v.n == 4] + list(signed_permutations(4))
    for v in mats:
        jr = jr_matrices(v)
        got = expand_phases(jr).im_tensor
        assert np.array_equal(bits(got), bits(reference_expansion(jr.j_mat)))


@pytest.mark.parametrize("n", (3, 4))
def test_verify_report_bytes_match_golden_file(n, capsys):
    assert main(["verify", "--n", str(n), "--trials", "20", "--seed", "13579"]) == 0
    name = f"verify_n{n}_seed13579_t20.txt"
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
