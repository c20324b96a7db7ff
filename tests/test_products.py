"""Bitwise pins of the product kernel, the fixed-order k-sums built on it
and the stacked (trial-axis) kernels.

The references below are plain scalar complex arithmetic with the grouping
and the summation order the library documents: the plaquettes, the
column products and V V^+ of the unitarity check, the commutator entries,
the nine term groups of the n=4 closed form and the 3x3 products of the
36-phase expansion, the band reconstruction of J in pure Python floats,
the one-matrix-at-a-time LU determinant and
Householder QR, the one-output-at-a-time splitmix64 draws of a trial, the product identities evaluated at every index tuple, which
the library evaluates at one tuple per set of tuples with bit-equal
residuals, and the sum rules summed
over each family's own axis at every index, of which the library sums only
the distinct alpha and j sums.  The library
must reproduce them bit for bit, signed zeros included, so results are
compared as uint64 bit patterns.  Every stacked
layer must give, in slice t of a stack, the bits of its call on trial t
alone.  Golden report files pin the printed digits end to end.
"""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (
    bits,
    ginibre_stack,
    givens,
    haar,
    haar_stack,
    haar_unitaries,
    orthogonal4,
    seeded_input,
    signed_permutations,
    stack_of_one,
    tensor,
    trial_seeds,
    uniforms,
)

from jarlskog import (
    MassPairInput,
    Spectrum,
    UnitaryMatrix,
    derive_seed,
    det,
    draw_trials,
    householder_qr,
)
from jarlskog import determinant, linalg, phases, sampling, verify
from jarlskog.cli import main
from jarlskog.determinant import DET4_GROUPS, decompose_det4, det4_closed, t_factors
from jarlskog.phases import A_MATRIX, expand_phases, jr_matrices, nonlinear_relation_residuals
from jarlskog.problem_io import load_problem

DATA = os.path.join(os.path.dirname(__file__), "data")
PROBLEMS = ("problem_n3_identity", "problem_n3_seed501", "problem_n4_seed2024")
#: problems given as the diagonalising pair U, U_prime, so V = U^+ U_prime
PAIR_PROBLEMS = ("problem_n3_uu_seed601", "problem_n4_uu_seed602")


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

    Returns (parts, cycles): parts maps the nine groups, in DET4_GROUPS
    order, to their complex values, and cycles the six cycle groups to their
    (weight, raw sum), the entries of decompose_det4's arrays.
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
    m1, m2, m3 = ([m[r, k].real * m[r, k].real + m[r, k].imag * m[r, k].imag for k in range(3)]
                  for r in range(3))

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

    tp, tc = (x[0].tolist() for x in t_factors(np.array([inp.a.values])))
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


def scalar_det(m):
    """LU determinant one matrix at a time, with scalar pivot arithmetic.

    Pivot rule: at column k pick the row with the largest |entry|, lowest
    index on ties (strict >, so a NaN candidate never wins).  A zero pivot
    column returns 0j.
    """
    a = np.array(m, dtype=np.complex128)
    n = a.shape[0]
    sign = 1.0
    value = complex(1.0, 0.0)
    for k in range(n):
        pivot_row = k
        pivot_mag = abs(a[k, k])
        for i in range(k + 1, n):
            mag = abs(a[i, k])
            if mag > pivot_mag:
                pivot_mag = mag
                pivot_row = i
        if pivot_mag == 0.0:
            return 0j
        if pivot_row != k:
            a[[k, pivot_row], :] = a[[pivot_row, k], :]
            sign = -sign
        pivot = a[k, k]
        value *= complex(pivot)
        for i in range(k + 1, n):
            factor = a[i, k] / pivot
            a[i, k + 1:] -= factor * a[k, k + 1:]
    return sign * value


def scalar_qr(a):
    """Householder QR of one matrix, scalar phase arithmetic, no diag(R) fix."""
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
        r[k:, k:] -= 2.0 * np.outer(v, (np.conj(v)[:, None] * r[k:, k:]).sum(axis=0))
        q[:, k:] -= 2.0 * np.outer((q[:, k:] * v[None, :]).sum(axis=1), np.conj(v))
    return q, r


def full_product_residual_tensors(re, im):
    """{family: |t1 +/- t2 - t3| at every index tuple} of the four product
    identities for (T, K) plaquette stores, each a (T, n, ..., n) tensor
    with the family's free indices as axes in the order of
    phases._PRODUCT_IDENTITIES: the broadcast evaluation over every tuple
    of the tensors of every index order that the stores map to, of which
    the library evaluates the tuples that its table keeps."""
    re, im = tensor(re), tensor(im)
    re_kk = np.einsum("tabkk->tabk", re)
    re_bb = np.einsum("tbbjk->tbjk", re)
    families = {
        # over (a, b, j, k, l):
        # re(ab;jk) im(ab;kl) + re(ab;kl) im(ab;jk) - re(ab;kk) im(ab;jl)
        "mixed_same_rows": ((
            (re[:, :, :, :, :, None], im[:, :, :, None, :, :]),
            (re[:, :, :, None, :, :], im[:, :, :, :, :, None]),
            (re_kk[:, :, :, None, :, None], im[:, :, :, :, None, :]),
        ), np.add),
        # over (a, b, g, j, k):
        # re(ab;jk) im(bg;jk) + re(bg;jk) im(ab;jk) - re(bb;jk) im(ag;jk)
        "mixed_same_cols": ((
            (re[:, :, :, None, :, :], im[:, None, :, :, :, :]),
            (im[:, :, :, None, :, :], re[:, None, :, :, :, :]),
            (re_bb[:, None, :, None, :, :], im[:, :, None, :, :, :]),
        ), np.add),
        # over (a, b, j, k, l, m): re(ab;jk) re(ab;lm) - re(ab;jm) re(ab;kl)
        # - im(ab;jl) im(ab;km)
        "product_same_rows": ((
            (re[:, :, :, :, :, None, None], re[:, :, :, None, None, :, :]),
            (re[:, :, :, :, None, None, :], re[:, :, :, None, :, :, None]),
            (im[:, :, :, :, None, :, None], im[:, :, :, None, :, None, :]),
        ), np.subtract),
        # over (a, b, g, d, j, k): re(ab;jk) re(gd;jk) - re(ad;jk) re(bg;jk)
        # - im(ag;jk) im(bd;jk)
        "product_same_cols": ((
            (re[:, :, :, None, None, :, :], re[:, None, None, :, :, :, :]),
            (re[:, :, None, None, :, :, :], re[:, None, :, :, None, :, :]),
            (im[:, :, None, :, None, :, :], im[:, None, :, None, :, :, :]),
        ), np.subtract),
    }
    out = {}
    for name, (((x1, y1), (x2, y2), (x3, y3)), combine) in families.items():
        out[name] = np.abs(combine(x1 * y1, x2 * y2) - x3 * y3)
    return out


def full_product_residuals(re, im):
    """{family: (T,) max residual} of the product identities over every
    index tuple, as phases.nonlinear_relation_residuals reports them."""
    return {name: x.reshape(len(re), -1).max(axis=1)
            for name, x in full_product_residual_tensors(re, im).items()}


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def scalar_mix64(z):
    """splitmix64's finalizer on one Python integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def scalar_derive_seed(master_seed, index):
    return scalar_mix64((master_seed & MASK64) + ((index + 1) * GOLDEN & MASK64))


class ScalarRng:
    """splitmix64 one output at a time, in Python integers and floats, with
    the draws built on it as scalar libm calls."""

    def __init__(self, seed):
        self.state = int(seed) & MASK64

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        return scalar_mix64(self.state)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal_pair(self):
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        t = 2.0 * math.pi * u2
        return r * math.cos(t), r * math.sin(t)


def scalar_ginibre(n, rng):
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    g = np.empty((n, n), dtype=np.complex128)
    for i, j in itertools.product(range(n), repeat=2):
        re, im = rng.normal_pair()
        g[i, j] = complex(re * inv_sqrt2, im * inv_sqrt2)
    return g


def scalar_spectrum(n, rng):
    """n values on [-1, 1 - (n - 1) MIN_GAP], sorted, the i-th shifted up
    by i MIN_GAP."""
    width = 2.0 - (n - 1) * sampling.MIN_GAP
    values = sorted(-1.0 + width * rng.uniform() for _ in range(n))
    return [v + i * sampling.MIN_GAP for i, v in enumerate(values)]


def scalar_unit_phases(angle_rows):
    return np.array([[complex(math.cos(t), math.sin(t)) for t in row] for row in angle_rows])


def scalar_draw_chunk(n, seeds):
    """draw_trials one trial at a time, in stream order: the Ginibre
    matrix, the a- and b-spectra and the rephasing angles of each seed."""
    g, a, b, angles = [], [], [], []
    for seed in seeds:
        rng = ScalarRng(seed)
        g.append(scalar_ginibre(n, rng))
        a.append(scalar_spectrum(n, rng))
        b.append(scalar_spectrum(n, rng))
        angles.append([2.0 * math.pi * rng.uniform() for _ in range(2 * n)])
    return (np.array(g), np.array(a), np.array(b),
            scalar_unit_phases([x[:n] for x in angles]),
            scalar_unit_phases([x[n:] for x in angles]))


def spelled_product(x, y):
    """3x3 product x y, each entry spelled out in ascending k from 0.0, as
    the scalar loop acc = 0.0; acc += x[i, k] y[k, j] (so a sum of -0.0
    terms is +0.0)."""
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            out[i, j] = 0.0 + x[i, 0] * y[0, j] + x[i, 1] * y[1, j] + x[i, 2] * y[2, j]
    return out


#: block order of the expansion: adjacent pairs, then (24), (14), (13)
BLOCK_ORDER = ((1, 2), (2, 3), (3, 4), (2, 4), (1, 4), (1, 3))


def reference_expansion(j):
    """The 36 canonical phases expanded from J, in table order, from
    spelled-out products."""
    aj = spelled_product(A_MATRIX, j)
    block = np.block([[j, spelled_product(j, A_MATRIX)], [aj, spelled_product(aj, A_MATRIX)]])
    pairs = phases._canonical_pairs(4)
    return np.array([block[BLOCK_ORDER.index(rp), BLOCK_ORDER.index(cp)]
                     for rp in pairs for cp in pairs])


def cbits(z):
    return bits([z.real, z.imag])


def pinned_matrices():
    mats = [*haar_unitaries(3, 40, 20261017), *haar_unitaries(4, 40, 20261017, first=40)]
    for n in (3, 4):
        mats.append(UnitaryMatrix(np.eye(n)))
        mats.append(UnitaryMatrix(np.eye(n)[::-1]))
    mats.extend(load_problem(os.path.join(DATA, f"{p}.json")).v for p in PROBLEMS)
    return mats


def assert_every_index_order_is_the_scalar_plaquette(m, re, im):
    """The tensors of every index order that the stores re and im of m map
    to hold the scalar plaquettes of m, bit for bit."""
    n = len(m)
    ref = np.empty((n, n, n, n), dtype=np.complex128)
    for idx in np.ndindex(ref.shape):
        ref[idx] = scalar_plaquette(m, *idx)
    assert np.array_equal(bits(tensor(re)), bits(ref.real))
    assert np.array_equal(bits(tensor(im)), bits(ref.imag))


def test_plaquette_tensor_is_bit_equal_to_scalar_reference():
    for v in pinned_matrices():
        assert_every_index_order_is_the_scalar_plaquette(v.matrix, *v.plaquettes)


def signed_permutation_stack(n, count, seed):
    """count seeded n x n signed permutations, each nonzero entry +-1 or
    +-i, with every zero part a seeded +0.0 or -0.0: the inputs from which
    im(aa;jk) and im(ab;jj) come out as -0.0 in some entries."""
    rng = np.random.default_rng(seed)
    parts = rng.choice([0.0, -0.0], (2, count, n, n))
    for t in range(count):
        rows = np.arange(n)
        parts[rng.integers(0, 2, n), t, rows, rng.permutation(n)] = rng.choice([1.0, -1.0], n)
    return linalg._complex(*parts)


def store_test_stacks(n):
    """A Haar stack, signed permutations with +-0.0 parts, 1 (+) a Haar
    V of dimension n - 1 (a phase at n = 2) and a real rotation, as
    (T, n, n) stacks."""
    yield haar_stack(n, 3, 60 + n)
    yield signed_permutation_stack(n, 4, 70 + n)
    block = np.eye(n, dtype=complex)
    block[1:, 1:] = haar_stack(n - 1, 1, 80 + n)[0] if n > 2 else np.exp(0.7j)
    yield np.array([block, real_rotation(n).matrix])


@pytest.mark.parametrize("n", range(2, 9))
def test_every_store_column_is_the_scalar_plaquette_at_both_index_orders(n):
    # each column serves (a, b; j, k) and (b, a; k, j), the same two
    # operands in either order; both must have its bits
    for m in store_test_stacks(n):
        re, im = linalg._validate_unitaries(m)[2]
        assert re.shape == (len(m), n * n * (n * n + 1) // 2)
        for t in range(len(m)):
            assert_every_index_order_is_the_scalar_plaquette(m[t], re[t], im[t])


def test_plaquette_tensor_is_read_only_and_computed_once():
    v = haar(4, 3)
    re, im = v.plaquettes
    assert v.plaquettes is v.plaquettes
    with pytest.raises(ValueError):
        im[0, 1, 0, 1] = 0.0


def test_column_products_are_read_only_and_computed_once():
    v = haar(4, 3)
    re, im = v.column_products
    assert v.column_products[0] is re
    with pytest.raises(ValueError):
        im[0, 1, 0] = 0.0


def test_unitarity_check_is_bit_equal_to_scalar_reference():
    # V V^+ from `acc = 0j; acc += V[i,k] * conj(V[j,k])`, k ascending.  The
    # defect takes np.abs of V V^+ - I, as the library does: numpy's complex
    # modulus and CPython's abs() differ in the last bit on some entries.
    mats = [*pinned_matrices(), *signed_permutations(3), *signed_permutations(4)]
    for i, n in enumerate((2, 5, 8)):
        mats.extend(haar_unitaries(n, 10, 2718, first=10 * i))
    for v in mats:
        n, m = v.n, v.matrix
        cols = np.empty((n, n, n), dtype=np.complex128)
        gram = np.empty((n, n), dtype=np.complex128)
        for i, j in itertools.product(range(n), repeat=2):
            acc = 0j
            for k in range(n):
                term = complex(m[i, k]) * complex(m[j, k]).conjugate()
                cols[k, i, j] = term
                acc += term
            gram[i, j] = acc
        re, im = v.column_products
        assert np.array_equal(bits(re), bits(cols.real))
        assert np.array_equal(bits(im), bits(cols.imag))
        defect = np.max(np.abs(gram - np.eye(n)))
        assert bits([v.unitarity_defect]) == bits([defect])


def test_moduli_squared_are_the_exact_real_diagonal_of_the_column_products():
    # |V[i,k]|^2 has one path, the kernel's diagonal c[k, i, i]: its
    # imaginary part is exactly +-0 and its real part re*re + im*im
    mats = [*pinned_matrices(), *signed_permutations(3), *signed_permutations(4)]
    for v in mats:
        cr, ci = v.column_products
        diag_im = np.diagonal(ci, axis1=1, axis2=2)
        assert np.array_equal(bits(np.abs(diag_im)), bits(np.zeros_like(diag_im)))
        m = v.matrix
        ref = np.array([[m[i, k].real * m[i, k].real + m[i, k].imag * m[i, k].imag
                         for k in range(v.n)] for i in range(v.n)])
        assert np.array_equal(bits(np.diagonal(cr, axis1=1, axis2=2).T), bits(ref))
        got = linalg._moduli_squared(tuple(x[None] for x in v.column_products))[0]
        assert np.array_equal(bits(got), bits(ref))


def test_commutator_matrix_is_bit_equal_to_scalar_reference():
    mats = [*pinned_matrices(), *signed_permutations(3), *signed_permutations(4)]
    for s, v in enumerate(mats):
        drawn = seeded_input(v.n, derive_seed(777, s))
        inp = MassPairInput(a=drawn.a, b=drawn.b, v=v)
        got = determinant._commutators(*stack_of_one(inp)[:3])[0]
        ref = scalar_commutator(inp)
        assert np.array_equal(bits(got.real), bits(ref.real))
        assert np.array_equal(bits(got.imag), bits(ref.imag))


@pytest.mark.parametrize("problem", PROBLEMS + PAIR_PROBLEMS)
@pytest.mark.parametrize("command", (("det", "--method", "both"), ("phases",)))
def test_report_bytes_match_golden_file(problem, command, capsys):
    path = os.path.join(DATA, f"{problem}.json")
    assert main([command[0], path, *command[1:]]) == 0
    with open(os.path.join(DATA, f"{problem}.{command[0]}.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def det4_signed_zero_matrices():
    """4x4 unitaries whose closed-form sums meet exact +-0 terms: 1 (+) V3
    and V3 (+) 1 for Haar V3, whose row or column sums over the unit
    entry's zeros, and a real rotation, whose imaginary parts are all +-0."""
    mats = [orthogonal4()]
    for v3 in haar_stack(3, 6, 8642):
        for lo in (0, 1):
            m = np.zeros((4, 4), dtype=complex)
            m[3 * lo, 3 * lo] = 1.0
            m[1 - lo:4 - lo, 1 - lo:4 - lo] = v3
            mats.append(UnitaryMatrix(m))
    return mats


def assert_groups_match_scalar_reference(groups, s, inp):
    """Trial s of the decompose_det4 result groups, bit-equal to
    scalar_det4_groups(inp); returns the reference parts."""
    (re, im), (weights, (raw_re, raw_im)) = groups
    ref_parts, ref_cycles = scalar_det4_groups(inp)
    assert re.shape[1] == im.shape[1] == len(DET4_GROUPS)
    for g, name in enumerate(DET4_GROUPS):
        assert np.array_equal(cbits(complex(re[s, g], im[s, g])), cbits(ref_parts[name])), name
    assert list(ref_cycles) == list(DET4_GROUPS[3:])
    for g, (name, (weight, raw)) in enumerate(ref_cycles.items()):
        assert bits([weights[s, g]]) == bits([weight]), name
        assert np.array_equal(cbits(complex(raw_re[s, g], raw_im[s, g])), cbits(raw)), name
    return ref_parts


def test_det4_groups_are_bit_equal_to_scalar_reference():
    mats = [v for v in pinned_matrices() if v.n == 4] + list(signed_permutations(4))
    assert len(mats) == 40 + 2 + 1 + 72
    mats += det4_signed_zero_matrices()
    for s, v in enumerate(mats):
        drawn = seeded_input(4, derive_seed(4321, s))
        inp = MassPairInput(a=drawn.a, b=drawn.b, v=v)
        a, b, cols, plaq = stack_of_one(inp)
        a_factors = t_factors(a)
        ref_parts = assert_groups_match_scalar_reference(
            decompose_det4(a_factors, b, cols, plaq), 0, inp)
        acc = 0j
        for name in DET4_GROUPS:
            acc += ref_parts[name]
        assert np.array_equal(cbits(det4_closed(a_factors, b, cols, plaq)[0]), cbits(acc))


def test_det4_groups_of_a_verify_stack_are_bit_equal_to_scalar_reference():
    # verify stacks V and its rephased copy (2T matrices) and takes the a
    # half of the difference factors of both spectra, as one t_factors call
    mats = det4_signed_zero_matrices()
    # the spectra and rephasing phases of one trial per matrix, and five
    # more trials with their Haar unitaries
    drawn, a, b, row, col = draw_trials(4, trial_seeds(len(mats) + 5, 97531))
    t = len(a)
    v = np.concatenate([np.array([x.matrix for x in mats]), drawn[len(mats):]])
    both = np.concatenate([v, sampling.rephase(v, row, col)])
    _, cols, plaq = linalg._validate_unitaries(both)
    factors = t_factors(np.concatenate([a, b]))
    a_factors = tuple(np.concatenate([x[:t], x[:t]]) for x in factors)
    groups = decompose_det4(a_factors, np.concatenate([b, b]), cols, plaq)
    for s in range(2 * t):
        inp = MassPairInput(a=Spectrum(a[s % t]), b=Spectrum(b[s % t]), v=UnitaryMatrix(both[s]))
        assert_groups_match_scalar_reference(groups, s, inp)


# ---------------------------------------------------------------- band reconstruction

def scalar_band_reconstruction(v):
    """The band reconstruction of one 4x4 unitary in pure Python floats, in
    the documented order: (gate ratio, degenerate, reconstructed J as a 3x3
    list, NaN where degenerate, max error).

    The six |V|^2 products, then the coefficients a, b, c of the six
    equations a_i y_i + b_i y_(i+1) = c_i, then prod a and prod b left to
    right, the Cramer numerators summed from 0.0 in ascending m (term m of
    y_j multiplies, left to right over p = j, ..., j+5 mod 6, -b_p before
    p = j+m, c_p at it and a_p after it), and one division by
    prod a - prod b.
    """
    m = [[complex(x) for x in row] for row in v.matrix]
    plaq = [[scalar_plaquette(v.matrix, a, a + 1, j, j + 1) for j in range(3)]
            for a in range(3)]
    jd = [[z.imag for z in row] for row in plaq]
    r = [[z.real for z in row] for row in plaq]

    def m2(i, k):
        return m[i][k].real * m[i][k].real + m[i][k].imag * m[i][k].imag

    # 1-based labels: q_ijkl = |V[i,j]|^2 |V[k,l]|^2
    q_1222 = m2(0, 1) * m2(1, 1)
    q_3334 = m2(2, 2) * m2(2, 3)
    q_2122 = m2(1, 0) * m2(1, 1)
    q_3343 = m2(2, 2) * m2(3, 2)
    q_3233 = m2(2, 1) * m2(2, 2)
    q_2333 = m2(1, 2) * m2(2, 2)
    a = [-(q_1222 + r[0][0]), q_3334, -r[1][1], -(q_2122 + r[0][0]), q_3343, -r[1][1]]
    b = [q_1222, -(q_3334 + r[2][2]), q_2333, q_2122, -(q_3343 + r[2][2]), q_3233]
    c = [r[0][1] * jd[0][0], r[1][2] * jd[2][2], (q_2333 + r[1][2]) * jd[1][1],
         r[1][0] * jd[0][0], r[2][1] * jd[2][2], (q_3233 + r[2][1]) * jd[1][1]]

    def product(xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = acc * x
        return acc

    pa, pb = product(a), product(b)
    determinant = pa - pb
    scale = abs(pa) + abs(pb)
    ratio = abs(determinant) / (scale if scale > 0.0 else 1.0)
    degenerate = ratio < phases.RECONSTRUCTION_GATE
    if degenerate:
        return ratio, True, [[math.nan] * 3 for _ in range(3)], math.nan
    recon = [row[:] for row in jd]
    for j, (row, col) in enumerate(((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))):
        numerator = 0.0
        for term in range(6):
            factors = []
            for k in range(6):
                p = (j + k) % 6
                factors.append(-b[p] if k < term else c[p] if k == term else a[p])
            numerator = numerator + product(factors)
        recon[row][col] = numerator / determinant
    errors = [abs(x - y) for xs, ys in zip(recon, jd) for x, y in zip(xs, ys)]
    max_error = math.nan if any(map(math.isnan, errors)) else max(errors)
    return ratio, False, recon, max_error


def near_identity4():
    """A unitary within 1e-3 of the identity: every J entry is tiny, but the
    band system's determinant does not cancel."""
    eps = 1e-3
    m = (givens(4, 0, 1, eps, 0.3) @ givens(4, 1, 2, 1.3 * eps, 0.7)
         @ givens(4, 2, 3, 0.8 * eps, 1.1) @ givens(4, 0, 2, 0.6 * eps, 2.0))
    return m


def assert_reconstructions_match_scalar_reference(v):
    """_reconstructions on the (T, 4, 4) stack v, bit-equal in every slice
    to scalar_band_reconstruction, NaN positions included."""
    _, cols, plaq = linalg._validate_unitaries(v)
    j, r = jr_matrices(plaq)
    ratio, degenerate, recon, max_error = phases._reconstructions(cols, j, r)
    for t, m in enumerate(v):
        ref = scalar_band_reconstruction(UnitaryMatrix(m))
        assert bits([ratio[t]]) == bits([ref[0]]), t
        assert bool(degenerate[t]) is ref[1], t
        assert np.array_equal(bits(recon[t]), bits(ref[2])), t
        assert bits([max_error[t]]) == bits([ref[3]]), t
    return degenerate


@pytest.mark.parametrize("trials", (1, 4, 64))
def test_band_reconstruction_is_bit_equal_to_scalar_reference_on_haar_stacks(trials):
    assert_reconstructions_match_scalar_reference(haar_stack(4, trials, trials + 7))


def real_rotations(count, seed):
    """Seeded real 4x4 rotations, products of six Givens rotations: every J
    entry is +-0, so each Cramer term is a signed zero."""
    for t in range(count):
        m = np.eye(4, dtype=complex)
        for (p, q), u in zip(itertools.combinations(range(4), 2),
                             uniforms(derive_seed(seed, t), 6)):
            m = m @ givens(4, p, q, 6.3 * u)
        yield m


def test_band_reconstruction_is_bit_equal_to_scalar_reference_on_structured_matrices():
    mats = [np.eye(4, dtype=complex), orthogonal4().matrix, near_identity4(),
            *(x.matrix for x in signed_permutations(4)), *real_rotations(100, 2468)]
    degenerate = assert_reconstructions_match_scalar_reference(np.array(mats))
    # the identity is degenerate, and the rotations are solved
    assert degenerate[0] and not degenerate[1:3].any()


def test_phase_expansion_is_bit_equal_to_spelled_out_products():
    mats = [v for v in pinned_matrices() if v.n == 4] + list(signed_permutations(4))
    for v in mats:
        j = jr_matrices(v.plaquettes[:, None])[0]
        assert np.array_equal(bits(expand_phases(j)[0]), bits(reference_expansion(j[0])))


def verify_report_matches_golden_file(n, trials, capsys):
    assert main(["verify", "--n", str(n), "--trials", str(trials), "--seed", "13579"]) == 0
    name = f"verify_n{n}_seed13579_t{trials}.txt"
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("n", (3, 4))
def test_verify_report_bytes_match_golden_file(n, capsys):
    verify_report_matches_golden_file(n, 20, capsys)


# The golden files were written by `jarlskog verify`; 20 trials fit in one
# chunk, and 69 trials cross a chunk boundary at a chunk of 64 and fit in
# one chunk of the default size.
@pytest.mark.parametrize("n", (3, 4))
def test_verify_report_across_a_chunk_boundary_matches_golden_file(n, capsys, monkeypatch):
    verify_report_matches_golden_file(n, 69, capsys)
    monkeypatch.setattr(verify, "TRIAL_CHUNK", 64)
    verify_report_matches_golden_file(n, 69, capsys)


@pytest.mark.parametrize("n", (3, 4))
def test_verify_report_does_not_depend_on_the_chunk_size(n, monkeypatch):
    expected = verify.run_suite(n, 11, 4242).render()
    for chunk in (1, 4):
        monkeypatch.setattr(verify, "TRIAL_CHUNK", chunk)
        assert verify.run_suite(n, 11, 4242).render() == expected


# ---------------------------------------------------------------- stacked LU and QR

def scalar_haar(g):
    """Haar unitary from one Ginibre matrix: scalar QR, then the diag(R) fix."""
    q, r = scalar_qr(g)
    for k in range(g.shape[0]):
        d = r[k, k]
        mag = abs(d)
        q[:, k] *= d / mag if mag != 0.0 else 1.0
    return q


def zero_column_matrices(n, master_seed, first=0):
    """Ginibre matrices with one column zeroed, one matrix per column, from
    the trials of trial_seeds(n, master_seed, first)."""
    mats = list(ginibre_stack(n, n, master_seed, first))
    for col, m in enumerate(mats):
        m[:, col] = 0.0
    return mats


def modulus_near_ties(count):
    """3x3 matrices whose first column holds z and the real number r that
    numpy's array modulus and the scalar modulus order differently: one of
    them ties |z| with r, the other does not, so the LU pivot row depends on
    which modulus is used."""
    mats = []
    trials = itertools.count()
    while len(mats) < count:
        m = ginibre_stack(3, 1, 91, next(trials))[0]
        z = m[0, 0]
        scalar, array = np.hypot(z.real, z.imag), np.abs(m[:1, 0])[0]
        if scalar != array:
            m[1, 0] = max(scalar, array)
            mats.append(m)
    return mats


def matrix_groups():
    """Stacks of one size each: the pinned matrices, the signed permutations
    (exact modulus ties), modulus near-ties, Haar and Ginibre draws at
    n = 2..8, and Ginibre draws with a zero column mixed into regular ones."""
    groups = {"modulus_near_ties": modulus_near_ties(8)}
    for v in pinned_matrices():
        groups.setdefault(f"pinned_n{v.n}", []).append(v.matrix)
    for n in (3, 4):
        groups[f"signed_permutations_n{n}"] = [v.matrix for v in signed_permutations(n)]
    # trials 0-11 give the Haar draws and 12-23 the Ginibre draws of each n
    for n in range(2, 9):
        groups[f"haar_n{n}"] = list(haar_stack(n, 12, 86))
        groups[f"ginibre_n{n}"] = list(ginibre_stack(n, 12, 86, first=12))
    for n in (2, 3, 4, 6):
        first, last = ginibre_stack(n, 2, 86, first=24)
        groups[f"zero_column_n{n}"] = [first, *zero_column_matrices(n, 86, first=26), last]
    return groups


MATRIX_GROUPS = matrix_groups()


@pytest.mark.parametrize("group", sorted(MATRIX_GROUPS))
def test_stacked_lu_is_bit_equal_to_scalar_lu(group):
    mats = MATRIX_GROUPS[group]
    stacked = det(np.array(mats))
    for t, m in enumerate(mats):
        ref = scalar_det(m)
        assert np.array_equal(cbits(stacked[t]), cbits(ref)), t
        assert np.array_equal(cbits(det(m)), cbits(ref)), t


def test_zero_pivot_column_gives_exact_zero_without_warnings():
    # pytest turns any warning into an error, so a division by the zero
    # pivot would fail here
    for n in (2, 3, 4, 6):
        mats = zero_column_matrices(n, 17)
        assert all(det(m) == 0j for m in mats)
        assert np.array_equal(bits(det(np.array(mats)).view(float)), bits(np.zeros(2 * n)))


def test_non_finite_candidates_follow_the_scalar_pivot_rule():
    # a NaN candidate never wins the pivot, a NaN on the diagonal keeps its
    # row, and infinities take part like any modulus
    draws = iter(ginibre_stack(4, 5 * 4 * 3, 6))
    mats = []
    for value in (np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)):
        for row in range(4):
            for col in range(3):
                m = next(draws)
                m[row, col] = value
                mats.append(m)
    with np.errstate(all="ignore"):
        stacked = det(np.array(mats))
        for t, m in enumerate(mats):
            assert np.array_equal(cbits(stacked[t]), cbits(scalar_det(m))), t


@pytest.mark.parametrize("group", sorted(MATRIX_GROUPS))
def test_stacked_qr_and_haar_fix_are_bit_equal_to_scalar_references(group):
    mats = MATRIX_GROUPS[group]
    q, r = householder_qr(np.array(mats))
    haar = sampling._haar_from_ginibre(np.array(mats))
    for t, m in enumerate(mats):
        q_ref, r_ref = scalar_qr(m)
        for got, ref in ((q[t], q_ref), (r[t], r_ref), (householder_qr(m[None])[0][0], q_ref),
                         (haar[t], scalar_haar(m))):
            assert np.array_equal(bits(got.view(float)), bits(ref.view(float))), t


# ---------------------------------------------------------------- every stacked layer

def stack_slice(x, t):
    """Trial t of a stacked argument, kept as a stack of one.  An array with
    a leading axis of 2 (LAYER_TRIALS is not 2) holds re and im: the
    plaquette buffer or the phase tables read from it, trials on axis 1."""
    if isinstance(x, tuple):
        return tuple(stack_slice(y, t) for y in x)
    return x[:, t:t + 1] if len(x) == 2 else x[t:t + 1]


def leaves(x):
    """The arrays of a nested result, complex ones split into re and im."""
    if isinstance(x, dict):
        return [y for key in sorted(x) for y in leaves(x[key])]
    if isinstance(x, (tuple, list)):
        return [y for item in x for y in leaves(item)]
    x = np.asarray(x)
    return [x.real, x.imag] if np.iscomplexobj(x) else [x]


#: trials in the stacks of stacked_layers
LAYER_TRIALS = 7


def phase_shifts(plaq, rephased):
    """verify's rephasing_phase_shift row, the largest |rephased - direct|
    of a canonical phase, from the stores of a stack and of its rephased
    copy, which verify holds as one store and reads with one phase_table."""
    table = phases.phase_table(np.concatenate([plaq, rephased], axis=1))
    t = plaq.shape[1]
    return np.maximum.reduce(np.abs(table[:, t:] - table[:, :t]), axis=(0, 2))


def stacked_layers(n):
    """{name: (function, stacked arguments, trial axis of its results)} of
    every layer that takes a leading trial axis, on LAYER_TRIALS seeded
    trials."""
    trials = LAYER_TRIALS
    g = ginibre_stack(n, trials, 1000 + n)
    v, a, b, row, col = draw_trials(n, trial_seeds(trials, 1000 + n))
    w = sampling.rephase(v, row, col)
    _, cols, plaq = linalg._validate_unitaries(v)
    layers = {
        "householder_qr": (householder_qr, (g,), 0),
        "haar_from_ginibre": (sampling._haar_from_ginibre, (g,), 0),
        "rephased": (sampling.rephase, (v, row, col), 0),
        # the defects and column products, then the store, with its trials on axis 1
        "validate_unitaries": (lambda m: linalg._validate_unitaries(m)[:2], (w,), 0),
        "plaquettes": (lambda m: linalg._validate_unitaries(m)[2], (v,), 1),
        "commutators": (determinant._commutators, (a, b, cols), 0),
        "det": (det, (determinant._commutators(a, b, cols),), 0),
        "sum_rule_residuals": (phases.unitary_relation_residuals, (cols, plaq), 0),
        "product_residuals": (phases.nonlinear_relation_residuals, (plaq,), 0),
        "antisymmetry_residuals": (verify._antisymmetry_residuals, (plaq,), 0),
        "phase_shifts": (phase_shifts, (plaq, linalg._validate_unitaries(w)[2]), 0),
    }
    if n == 3:
        layers["det3_closed"] = (determinant.det3_closed, (a, b, plaq), 0)
        layers["n3_signs"] = (phases.n3_phase_table, (phases.phase_table(plaq[1]),), 0)
    else:
        j, r = phases.jr_matrices(plaq)
        layers.update({
            "det4_groups": (determinant.decompose_det4, (t_factors(a), b, cols, plaq), 0),
            "det4_closed": (determinant.det4_closed, (t_factors(a), b, cols, plaq), 0),
            "t_factors": (determinant.t_factors, (a,), 0),
            "sum_rule": (determinant._sum_rule, determinant.t_factors(b), 0),
            "jr": (phases.jr_matrices, (plaq,), 0),
            "expand_block": (phases.expand_phases, (j,), 0),
            "expansion_residuals": (phases.expansion_residual,
                                    (phases.phase_table(plaq[1]), phases.expand_phases(j)), 0),
            # the coefficients carry trials on their last axis
            "band_systems": (phases._band_systems, (cols, j, r), -1),
            "reconstructions": (phases._reconstructions, (cols, j, r), 0),
        })
    return layers


LAYER_CASES = [(n, name) for n in (3, 4) for name in stacked_layers(n)]


@pytest.mark.parametrize(("n", "name"), LAYER_CASES, ids=[f"n{n}-{name}" for n, name in LAYER_CASES])
def test_slice_of_a_stacked_layer_is_bit_equal_to_its_stack_of_one(n, name):
    fn, args, axis = stacked_layers(n)[name]
    full = leaves(fn(*args))
    for t in range(LAYER_TRIALS):
        single = leaves(fn(*(stack_slice(x, t) for x in args)))
        assert len(single) == len(full)
        for got, ref in zip(full, single):
            assert np.array_equal(bits(np.take(got, t, axis=axis).astype(float)),
                                  bits(np.take(ref, 0, axis=axis).astype(float))), t


# ---------------------------------------------------------------- product identities by kept tuple

def haar_plaquettes(n, trials, master_seed):
    """The plaquettes of a stack of Haar unitaries, drawn as verify draws them."""
    return linalg._validate_unitaries(haar_stack(n, trials, master_seed))[2]


def assert_bit_equal_to_every_tuple(plaq):
    got = phases.nonlinear_relation_residuals(plaq)
    ref = full_product_residuals(*plaq)
    assert list(got) == list(ref)
    for name in ref:
        assert np.array_equal(bits(got[name]), bits(ref[name])), name


# 3 and 4 trials: the chunk sizes at which a second, product-sized
# temporary made the heap shrink and regrow on every call (the benchmark's
# n = 4 op is a chunk of 4)
@pytest.mark.parametrize("trials", (1, 3, 4, 7, 64))
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_product_residuals_by_orbit_are_bit_equal_to_every_tuple_on_haar_stacks(n, trials):
    assert_bit_equal_to_every_tuple(haar_plaquettes(n, trials, 40 + n))


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc (which sees numpy's buffers) traces
    during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_product_residuals_keep_their_transient_memory_at_the_one_gather():
    plaq = haar_plaquettes(4, 64, 44)
    phases.nonlinear_relation_residuals(plaq)  # the table is built on first use
    # the gather of the factors and the trials-last (2 K, T) copy of the
    # store it is taken from, the one transient the size of the input
    gather = phases._product_table(4)[0].size * 64 * 8
    assert traced_peak(phases.nonlinear_relation_residuals, plaq) <= 1.05 * (gather + plaq.nbytes)


def test_verify_peak_memory_stays_at_one_chunk_gather():
    # at its peak a chunk holds, per trial, the one gather of the product
    # factors (6 R floats) with the trials-last copy of re and im that it
    # is taken from (2 K), and the plaquette stores (2 * 2 K) and column
    # products (2 * 2 n^3) of V and its rephased copy; every other array of
    # the chunk is smaller, so 15% covers them, and a second gather-sized
    # temporary would not fit
    verify.run_suite(4, 1, 0)
    per_trial = 8 * (6 * phases._product_table(4)[0].shape[1] + 2 * 136 + 4 * 136 + 4 * 4 ** 3)
    assert traced_peak(verify.run_suite, 4, 1000, 0) <= 1.15 * verify.TRIAL_CHUNK * per_trial


def real_rotation(n):
    """A real n x n rotation, a Givens product over every plane: every
    imaginary phase is exactly zero."""
    m = np.eye(n, dtype=complex)
    for p, q in itertools.combinations(range(n), 2):
        m = m @ givens(n, p, q, 0.3 + 0.2 * p + 0.1 * q)
    return UnitaryMatrix(m)


def structured_matrices(n):
    """The pinned matrices, signed permutations and a real rotation of
    dimension n."""
    mats = [v for v in pinned_matrices() if v.n == n] + list(signed_permutations(n))
    return mats + [orthogonal4() if n == 4 else real_rotation(n)]


def structured_plaquettes(n, size=64):
    """The (2, T, K) plaquette stores of structured_matrices(n) in stacks of
    up to size."""
    mats = structured_matrices(n)
    for first in range(0, len(mats), size):
        yield np.array([v.plaquettes for v in mats[first:first + size]]).swapaxes(0, 1)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_product_residuals_by_orbit_are_bit_equal_to_every_tuple_on_structured_matrices(n):
    for plaq in structured_plaquettes(n):
        assert_bit_equal_to_every_tuple(plaq)
    for v in structured_matrices(n):
        plaq = v.plaquettes[:, None]
        got, ref = nonlinear_relation_residuals(plaq), full_product_residuals(*plaq)
        assert list(got) == list(ref)
        for name in ref:
            assert np.array_equal(bits(got[name]), bits(ref[name])), name


#: columns of the product table per family in _PRODUCT_IDENTITIES order, by
#: n: the index tuples whose residual can be nonzero, one per set of tuples
#: with bit-equal residuals, the per-trial entry count of the evaluation
#: (at n = 2 each mixed family keeps one exact 0, as it has no other)
KEPT_COUNTS = {
    2: (1, 1, 3, 3),
    3: (9, 9, 36, 36),
    4: (72, 72, 210, 210),
    5: (300, 300, 825, 825),
}


def test_product_table_holds_one_column_per_orbit_representative():
    # one column per set of index tuples with bit-equal residuals that can
    # be nonzero
    for n, counts in KEPT_COUNTS.items():
        index, starts, combines = phases._product_table(n)
        assert index.shape == (6, sum(counts))
        assert starts == tuple(np.cumsum([0] + list(counts[:-1])).tolist())
        assert combines == (np.add, np.add, np.subtract, np.subtract)
        assert not index.flags.writeable


def orbit_split(n, name):
    """(kept, dropped): the (len(free), R) index tuples of family name
    whose residual the table keeps and those the rule drops."""
    formula, free = phases._PRODUCT_IDENTITIES[name]
    grid = np.indices((n,) * len(free)).reshape(len(free), -1)
    columns = phases._factor_positions(n, formula, dict(zip(free, grid)))
    combine = np.add if formula.split()[2] == "+" else np.subtract
    kept = phases._kept_columns(n, columns, combine)
    return grid[:, kept], grid[:, ~kept]


def at_tuples(tensor, reps):
    """(T, R) entries of a (T, n, ..., n) residual tensor at the index
    tuples reps."""
    return tensor[(slice(None), *reps)]


def rule_test_stacks(n):
    """Haar stacks, the signed permutations, the pinned matrices and a real
    rotation of dimension n, as plaquette stacks."""
    yield haar_plaquettes(n, 64, 80 + n)
    yield from structured_plaquettes(n)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_every_dropped_column_is_zero_or_bit_equal_to_its_kept_column(n):
    # the rule decides from the index tuples alone; every tuple it drops
    # must read exactly +0.0 (the residual is an abs) in the evaluation at
    # every tuple, or the bits of one kept tuple of its family, on every
    # stack: the first stack names that kept tuple, the others check it
    split = {name: orbit_split(n, name) for name in phases._PRODUCT_IDENTITIES}
    assert sum(dropped.shape[1] for _, dropped in split.values()) > 0
    partners = {}
    for plaq in rule_test_stacks(n):
        tensors = full_product_residual_tensors(*plaq)
        for name, (kept, dropped) in split.items():
            kept_bits = bits(at_tuples(tensors[name], kept))
            dropped_bits = bits(at_tuples(tensors[name], dropped))
            if name not in partners:
                rows = {row.tobytes(): i for i, row in enumerate(kept_bits.T)}
                partners[name] = np.array([-1 if not row.any() else rows.get(row.tobytes(), -2)
                                           for row in dropped_bits.T], dtype=int)
                assert not (partners[name] == -2).any(), name
            zero = partners[name] == -1
            assert not dropped_bits[:, zero].any(), name
            assert np.array_equal(dropped_bits[:, ~zero],
                                  kept_bits[:, partners[name][~zero]]), name


def test_the_rule_merges_a_column_with_its_swapped_and_negated_terms_only():
    # three synthetic n = 3 columns, t1 and t2 joined by +, with every term
    # re(p) im(q) and p1, p2, p3 the entries (01;01), (02;01), (12;01):
    #   A  re(p1) im(01;12), re(p2) im(02;12), re(p3) im(12;12)
    #   B  A with t1 and t3 exchanged, up to signs: the third term trades
    #      places, so its residual rounds differently and must be kept
    #   C  A with t1 and t2 exchanged and all three negated: A's bits
    # no column of the four families' grids is B to any other at n <= 6,
    # so their tables alone cannot tell a rule that merges A and B
    def at(part, a, b, j, k):
        column = linalg._plaquette_layout(3)[1][np.ravel_multi_index((a, b, j, k), (3,) * 4)]
        return column + (45 if part == "im" else 0)

    re1, re2, re3 = at("re", 0, 1, 0, 1), at("re", 0, 2, 0, 1), at("re", 1, 2, 0, 1)
    im1, im2, im3 = at("im", 0, 1, 1, 2), at("im", 0, 2, 1, 2), at("im", 1, 2, 1, 2)
    neg1, neg2, neg3 = at("im", 1, 0, 1, 2), at("im", 2, 0, 1, 2), at("im", 2, 1, 1, 2)
    columns = np.array([[re1, re3, re2], [re2, re2, re1], [re3, re1, re3],
                        [im1, neg3, neg2], [im2, im2, neg1], [im3, neg1, neg3]])
    assert phases._kept_columns(3, columns, np.add).tolist() == [True, True, False]
    re, im = haar_plaquettes(3, 64, 110)
    factors = np.concatenate([re, im], axis=1)[:, columns]
    t = factors[:, :3] * factors[:, 3:]
    residual = bits(np.abs((t[:, 0] + t[:, 1]) - t[:, 2]))
    assert np.array_equal(residual[:, 2], residual[:, 0])
    assert (residual[:, 1] != residual[:, 0]).any()


@pytest.mark.parametrize("n", (3, 4))
def test_every_kept_orbit_is_nonzero_on_some_haar_trial(n):
    # the rule drops nothing that could fail: each kept column reads a
    # nonzero residual in some trial of a 256-trial Haar stack
    tensors = full_product_residual_tensors(*haar_plaquettes(n, 256, 90 + n))
    for name, tensor in tensors.items():
        kept = orbit_split(n, name)[0]
        assert kept.shape[1] == KEPT_COUNTS[n][list(tensors).index(name)]
        assert np.all(np.maximum.reduce(at_tuples(tensor, kept), axis=0) > 0.0), name


@pytest.mark.parametrize("n", (3, 4))
def test_dropping_the_column_of_a_family_maximum_changes_that_maximum(n, monkeypatch):
    # mutation check of the pins above: a table that also drops the kept
    # column(s) holding a family's maximum in trial 0 changes that
    # family's maximum, and only that family's
    plaq = haar_plaquettes(n, 8, 100 + n)
    ref = full_product_residuals(*plaq)
    tensors = full_product_residual_tensors(*plaq)
    index, starts, combines = phases._product_table(n)
    for f, name in enumerate(phases._PRODUCT_IDENTITIES):
        column = at_tuples(tensors[name], orbit_split(n, name)[0])[0]
        holds_max = np.flatnonzero(column == ref[name][0]) + starts[f]
        mutated = (np.delete(index, holds_max, axis=1),
                   starts[:f + 1] + tuple(s - len(holds_max) for s in starts[f + 1:]), combines)
        monkeypatch.setattr(phases, "_product_table", lambda n, table=mutated: table)
        got = nonlinear_relation_residuals(plaq)
        assert got[name][0] < ref[name][0], name
        for other in ref:
            if other != name:
                assert np.array_equal(bits(got[other]), bits(ref[other])), (name, other)


def test_building_the_product_table_draws_nothing(monkeypatch):
    # the table is a function of n alone: no draw decides a column
    def refuse(*args, **kwargs):
        raise AssertionError("the product table drew from a sampler")

    for module in (sampling, verify):
        monkeypatch.setattr(module, "draw_trials", refuse)
    monkeypatch.setattr(sampling, "_stream", refuse)
    for n in KEPT_COUNTS:
        assert np.array_equal(phases._product_table.__wrapped__(n)[0], phases._product_table(n)[0])


# ---------------------------------------------------------------- sum rules by symmetry

def four_axis_sum_rules(cols, re, im):
    """The sum rules with each of the eight families summed over its own
    axis by numpy on the tensors of every index order of the stores re and
    im, the evaluation that unitary_relation_residuals prunes to the
    distinct alpha and j sums."""
    re, im = tensor(re), tensor(im)
    t, n = re.shape[:2]
    mod2 = linalg._moduli_squared(cols)
    eye = np.eye(n)
    both = np.stack([im, re])
    sums = np.empty((2, 4, t, n, n, n))
    for f in range(4):
        both.sum(axis=f + 2, out=sums[:, f])
    sums[1, :2] -= eye[None, None, :, :] * mod2[:, :, :, None]
    sums[1, 2:] -= eye[None, :, :, None] * mod2[:, :, None, :]
    worst = np.abs(sums, out=sums).max(axis=(3, 4, 5))
    return dict(zip(phases._SUM_RULE_FAMILIES, worst.reshape(8, t)))


def assert_sum_rules_match_the_four_axis_sums(mats):
    """The pruned sum rules of a stack give the four-axis reference's bits
    in every family, except the k families at n = 8: numpy sums the
    contiguous k axis pairwise there, and the pruned k family is the
    sequential j sum, bit for bit, at every n."""
    m = np.asarray(mats)
    n = m.shape[-1]
    # the stacks include matrices that are not unitary, so no validation
    cols = linalg._row_products(m.swapaxes(-1, -2))
    plaq = linalg._plaquette_store(np.array(linalg._row_products(m)))
    got = phases.unitary_relation_residuals(cols, plaq)
    ref = four_axis_sum_rules(cols, *plaq)
    assert list(got) == list(ref)
    for name in ref:
        if n < 8 or not name.endswith("_col_k"):
            assert np.array_equal(bits(got[name]), bits(ref[name])), name
    for part in ("im", "re"):
        assert np.array_equal(bits(got[f"{part}_col_k"]), bits(ref[f"{part}_col_j"])), part
        assert np.array_equal(bits(got[f"{part}_row_beta"]), bits(ref[f"{part}_row_alpha"])), part


@pytest.mark.parametrize("n", range(2, 9))
def test_sum_rules_match_the_four_axis_sums_on_haar_stacks_and_rephased_copies(n):
    v, _, _, row, col = draw_trials(n, trial_seeds(16, 70 + n))
    assert_sum_rules_match_the_four_axis_sums(v)
    assert_sum_rules_match_the_four_axis_sums(sampling.rephase(v, row, col))


@pytest.mark.parametrize("n", range(2, 8))
def test_sum_rules_match_the_four_axis_sums_on_signed_permutations(n):
    # every signed permutation up to n = 4, then 40 seeded ones of each n
    if n <= 4:
        mats = [v.matrix for v in signed_permutations(n)]
    else:
        rng = np.random.default_rng(n)
        units = np.array([1, 1j, -1, -1j])
        mats = [np.diag(units[rng.integers(0, 4, n)])[rng.permutation(n)] for _ in range(40)]
    assert_sum_rules_match_the_four_axis_sums(mats)


@pytest.mark.parametrize("group", sorted(MATRIX_GROUPS))
def test_sum_rules_match_the_four_axis_sums_on_the_matrix_groups(group):
    assert_sum_rules_match_the_four_axis_sums(MATRIX_GROUPS[group])


#: the sum rule table's families, in its order: the summed axis of the
#: (T, n, n, n, n) tensor, the part, and the two positions of the free
#: index tuple that the kept sums hold ordered (j <= k, or a <= b)
SUM_RULE_TABLE_FAMILIES = (("alpha", "im", (1, 2)), ("j", "im", (0, 1)),
                           ("alpha", "re", (1, 2)), ("j", "re", (0, 1)))


def sum_rule_counts(n):
    """Sums of the table per family: n C(n, 2) of each im family, whose
    sums at j = k (over alpha) or a = b (over j) add zeros, and n C(n + 1, 2)
    of each re family."""
    return (n * math.comb(n, 2),) * 2 + (n * math.comb(n + 1, 2),) * 2


@pytest.mark.parametrize("n", range(2, 9))
def test_the_sum_rule_table_holds_the_distinct_alpha_and_j_sums(n):
    index, starts = phases._sum_rule_table(n)
    counts = sum_rule_counts(n)
    assert {3: (9, 9, 18, 18), 4: (24, 24, 40, 40)}.get(n, counts) == counts
    assert index.shape == (n + 1, sum(counts))
    assert starts.tolist() == np.cumsum((0,) + counts[:-1]).tolist()
    assert not index.flags.writeable and not starts.flags.writeable


def every_sum_rule_residual(cols, re, im):
    """[(T, n, n, n)] |sum - target| of each family of the sum rule table at
    every free index tuple, (beta, j, k) over alpha and (alpha, beta, k) over
    j, each summed in ascending index order on the tensors of every index
    order of the stores re and im."""
    parts = {"re": tensor(re), "im": tensor(im)}
    n = parts["re"].shape[-1]
    mod2 = linalg._moduli_squared(cols)
    eye = np.eye(n)
    out = []
    for axis, part, _ in SUM_RULE_TABLE_FAMILIES:
        x = np.moveaxis(parts[part], 1 if axis == "alpha" else 3, 0)
        total = x[0]
        for term in x[1:]:
            total = total + term
        if part == "re":
            total = total - (eye * mod2[:, :, :, None] if axis == "alpha"
                             else eye[:, :, None] * mod2[:, :, None, :])
        out.append(np.abs(total))
    return out


def sum_rule_split(n):
    """[(n, n, n) bool]: per family of the sum rule table, the free index
    tuples whose sum (terms and target) is a column of the table."""
    index, starts = phases._sum_rule_table(n)
    layout = linalg._plaquette_layout(n)[1].reshape((n,) * 4)
    k = n * n * (n * n + 1) // 2
    x, y, z = np.indices((n,) * 3)
    zero = np.full_like(x, 2 * k + n * n)
    kept = []
    for f, (axis, part, _) in enumerate(SUM_RULE_TABLE_FAMILIES):
        # terms of the sum at free tuple (x, y, z), in ascending summed index
        terms = np.moveaxis(layout, 0 if axis == "alpha" else 2, -1) + (k if part == "im" else 0)
        diagonal, modulus = ((y == z, x * n + y) if axis == "alpha" else (x == y, x * n + z))
        target = np.where(diagonal & (part == "re"), 2 * k + modulus, zero)
        rows = np.concatenate([terms, target[..., None]], axis=-1).reshape(n ** 3, n + 1)
        block = index[:, starts[f]:starts[f + 1] if f < 3 else None].T
        held = {row.tobytes() for row in block}
        assert len(held) == len(block)
        mask = np.array([row.tobytes() in held for row in rows]).reshape((n,) * 3)
        assert mask.sum() == len(block), f
        kept.append(mask)
    return kept


def sum_rule_test_stacks(n):
    """Haar unitaries, their rephased copies and signed permutations with
    +-0.0 parts, as (T, n, n) stacks."""
    v, _, _, row, col = draw_trials(n, trial_seeds(16, 90 + n))
    yield v
    yield sampling.rephase(v, row, col)
    yield signed_permutation_stack(n, 16, 100 + n)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_dropped_sum_is_zero_or_bit_equal_to_its_kept_sum(n):
    # a sum the table drops must read exactly +0.0 (the residual is an abs)
    # on every stack, or the bits of the kept sum at its free tuple with the
    # ordered pair swapped: the premises of unitary_relation_residuals
    split = sum_rule_split(n)
    for m in sum_rule_test_stacks(n):
        _, cols, plaq = linalg._validate_unitaries(m)
        everything = every_sum_rule_residual(cols, *plaq)
        for f, (kept, (_, _, pair)) in enumerate(zip(split, SUM_RULE_TABLE_FAMILIES)):
            values = bits(everything[f])
            swapped = values.swapaxes(1 + pair[0], 1 + pair[1])
            has_kept_swap = kept.swapaxes(*pair) & ~kept
            assert np.array_equal(values[:, has_kept_swap], swapped[:, has_kept_swap]), f
            assert not values[:, ~kept & ~has_kept_swap].any(), f


# ---------------------------------------------------------------- the two routes of _ksum

def ksum_loop(t, start, axis):
    """start + t[0] + t[1] + ... over one axis, one add per entry: the
    written-out definition of _ksum's order."""
    acc = start
    for k in range(t.shape[axis]):
        acc = acc + np.take(t, k, axis=axis)
    return acc


#: the terms of the reduce-route stacks: finite values of every scale,
#: signed zeros, infinities and NaN
KSUM_TERMS = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e16, -1e16, 3e-300,
                       1e300, -1e300, np.inf, -np.inf, np.nan])


def ksum_stacks(length, axis, seed):
    """(3, 4, 5)-like stacks with `length` entries on `axis`, in every memory
    order of their three axes (C, Fortran and the swapped ones), filled from
    KSUM_TERMS with exact cancellations (a term followed by its negative)
    and lines of -0.0 only."""
    rng = np.random.default_rng(seed)
    shape = [3, 4, 5]
    shape[axis] = length
    x = rng.choice(KSUM_TERMS, size=shape)
    line = np.moveaxis(x, axis, 0)
    if length > 1:
        line[1::2, 0] = -line[0:length - 1:2, 0]
    line[:, 1] = -0.0
    for order in itertools.permutations(range(3)):
        yield np.ascontiguousarray(x.transpose(order)).transpose(np.argsort(order))


def assert_ksum_bits(got, ref):
    """got has the bits of ref, except that a NaN of ref may come out as a
    NaN of either sign: numpy's vectorised add may return the NaN operand
    of either side.  Python prints every NaN as nan, so no report shows it."""
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits(got)[~nan], bits(ref)[~nan])


@pytest.mark.parametrize("length", range(1, 8))
def test_ksum_reduce_route_is_bit_equal_to_the_loop(length):
    # from +0.0 over fewer than 8 entries, _ksum is one np.add.reduce
    with np.errstate(invalid="ignore"):
        for axis in range(3):
            for seed in range(4):
                for t in ksum_stacks(length, axis, seed):
                    assert_ksum_bits(linalg._ksum(t, axis=axis), ksum_loop(t, 0.0, axis))


def stack_of_eight_haar_matrices():
    return haar_stack(8, 4, 808)


@pytest.mark.parametrize("length", range(8, 13))
def test_ksum_prefix_route_is_bit_equal_to_the_loop(length):
    # from +0.0 over 8 or more entries, _ksum reduces the first 7 and adds
    # the rest one by one; a reduce over 8 would add an innermost axis
    # pairwise, which the lines of 1e16 and ones tell from the loop
    big = np.tile([1e16] + [1.0] * (length - 1), (3, 1))
    cases = [(big, 1), (big.T, 0)]
    if length == 8:
        # the unitarity check's Gram sum at n = 8: k is innermost in memory
        m = stack_of_eight_haar_matrices()
        cases += [(x, 1) for x in linalg._row_products(m.swapaxes(-1, -2))]
    with np.errstate(invalid="ignore"):
        for axis in range(3):
            for seed in range(4):
                cases += [(t, axis) for t in ksum_stacks(length, axis, seed)]
        for t, axis in cases:
            assert_ksum_bits(linalg._ksum(t, axis=axis), ksum_loop(t, 0.0, axis))


def test_ksum_keeps_the_loop_from_8_entries_and_for_other_starts():
    # numpy sums an innermost axis of 8 or more entries pairwise, so one
    # reduce over all of them would move bits; _ksum reduces only the first
    # 7 there (test_ksum_prefix_route_is_bit_equal_to_the_loop) and these
    # stacks tell a reduce over the whole axis from the loop
    big = np.array([1e16] + [1.0] * 8)
    cr, _ = linalg._row_products(stack_of_eight_haar_matrices().swapaxes(-1, -2))
    cases = [(big[:8], 0), (big, 0), (np.tile(big[:8], (3, 1)), 1),
             # the unitarity check's Gram sum at n = 8: k is innermost in memory
             (cr, 1)]
    for t, axis in cases:
        ref = ksum_loop(t, 0.0, axis)
        assert np.array_equal(bits(linalg._ksum(t, axis=axis)), bits(ref))
        assert not np.array_equal(bits(np.add.reduce(t, axis, initial=0.0)), bits(ref))
    # a start other than +0.0 takes the loop at any length
    zeros = np.full((3, 2), -0.0)
    with np.errstate(invalid="ignore"):
        for t, axis in ((zeros, 0), *((x, 1) for x in ksum_stacks(3, 1, 0))):
            for start in (-0.0, 1.0, np.take(t, 0, axis=axis) * 0.5):
                ref = ksum_loop(t, start, axis)
                assert np.array_equal(bits(linalg._ksum(t, start, axis)), bits(ref))
    assert bits(linalg._ksum(zeros, -0.0)).tolist() == bits([-0.0, -0.0]).tolist()


# ---------------------------------------------------------------- stacked draws

def draw_bits(x):
    """uint64 patterns of a float or complex array."""
    x = np.asarray(x)
    return bits(x.view(np.float64) if np.iscomplexobj(x) else x)


DRAW_CASES = [(n, t) for n in range(2, 9) for t in (1, 4, 7, 8, 64)]


def assert_draw_matches_the_scalar_loop(got, n, seeds):
    """got, a draw_trials result, is bit-equal to scalar_draw_chunk(n,
    seeds) with V the scalar Haar unitary of each scalar Ginibre matrix."""
    g, *ref = scalar_draw_chunk(n, seeds)
    ref = [np.array([scalar_haar(m) for m in g]), *ref]
    assert len(got) == len(ref) == 5
    for name, x, y in zip(("haar", "a", "b", "row_phases", "col_phases"), got, ref):
        assert x.shape == y.shape, name
        assert np.array_equal(draw_bits(x), draw_bits(y)), name
    return g


@pytest.mark.parametrize(("n", "trials"), DRAW_CASES, ids=[f"n{n}-T{t}" for n, t in DRAW_CASES])
def test_stacked_draw_is_bit_equal_to_the_per_trial_loop(n, trials):
    seeds = [scalar_derive_seed(100 * n + trials, t) for t in range(trials)]
    g = assert_draw_matches_the_scalar_loop(draw_trials(n, np.array(seeds, dtype=np.uint64)),
                                            n, seeds)
    # the test helper's Ginibre matrices are those of the draw
    assert np.array_equal(draw_bits(ginibre_stack(n, trials, 100 * n + trials)), draw_bits(g))


def counted_streams(monkeypatch):
    """Patch the stream with a wrapper that counts its calls; returns the
    one-entry list of the count."""
    calls = [0]
    stream = sampling._stream

    def counted(*args):
        calls[0] += 1
        return stream(*args)

    monkeypatch.setattr(sampling, "_stream", counted)
    return calls


#: every n at T = 1 and T = 64, and two chunk sizes between them
BLOCK_CASES = [(n, t) for n in range(2, 9) for t in (1, 64)] + [(3, 8), (4, 4)]


@pytest.mark.parametrize(("n", "trials"), BLOCK_CASES)
def test_chunk_reads_one_block_of_outputs_when_no_stream_redraws(monkeypatch, n, trials):
    # no spectrum is redrawn: every trial's block has a fixed size
    calls = counted_streams(monkeypatch)
    draw_trials(n, trial_seeds(trials, 29))
    assert calls == [1]


@pytest.mark.parametrize("n", range(2, 9))
def test_slice_of_a_stacked_draw_is_bit_equal_to_its_stack_of_one(n):
    seeds = trial_seeds(64, 900 + n)
    stacked = draw_trials(n, seeds)
    for t in range(len(seeds)):
        single = draw_trials(n, seeds[t:t + 1])
        for name, x, y in zip(("haar", "a", "b", "row_phases", "col_phases"), stacked, single):
            assert np.array_equal(draw_bits(x[t]), draw_bits(y[0])), (name, t)


def test_derive_seed_of_an_index_array_matches_the_scalar_seeds():
    indices = [0, 1, 2 ** 32]
    for master in (-5, 2 ** 64 + 3):
        expected = [scalar_derive_seed(master, i) for i in indices]
        assert [derive_seed(master, i) for i in indices] == expected
        seeds = derive_seed(master, np.array(indices))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == expected
