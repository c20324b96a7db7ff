"""Bitwise pins of the product kernel, the fixed-order k-sums built on it
and the stacked (trial-axis) kernels.

The references below are plain scalar complex arithmetic with the grouping
and the summation order the library documents: the plaquettes, the
column products and V V^+ of the unitarity check, the commutator entries,
the nine term groups of the n=4 closed form and the 3x3 products of the
36-phase expansion, the band reconstruction of J in pure Python floats,
the one-matrix-at-a-time LU determinant and
Householder QR, the one-output-at-a-time splitmix64 draws of a verify
trial, and the product identities evaluated at every index tuple, which
the library evaluates once per symmetry orbit.  The library must reproduce them bit for bit, signed zeros
included, so results are compared as uint64 bit patterns.  Every stacked
layer must give, in slice t of a stack, the bits of its call on trial t
alone.  Golden report files pin the printed digits end to end.
"""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import bits, givens, orthogonal4, signed_permutations, uniforms

from jarlskog import (
    MassPairInput,
    SeededRng,
    Spectrum,
    UnitaryMatrix,
    derive_seed,
    det,
    ginibre,
    haar_unitary,
    householder_qr,
    random_spectrum,
)
from jarlskog import determinant, linalg, phases, sampling, verify
from jarlskog.cli import main
from jarlskog.determinant import (
    DET4_GROUPS,
    commutator_matrix,
    decompose_det4,
    det4_closed,
    t_factors,
)
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

    Returns (parts, cycles) shaped like decompose_det4.
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
    identities for (T, n, n, n, n) plaquettes, each a (T, n, ..., n) tensor
    with the family's free indices as axes in the order of
    phases._PRODUCT_IDENTITIES: the broadcast evaluation over every tuple,
    which the library evaluates once per symmetry orbit instead."""
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
        self.position = 0

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        self.position += 1
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
    while True:
        values = sorted([2.0 * rng.uniform() - 1.0 for _ in range(n)])
        if all(values[i + 1] - values[i] >= sampling.MIN_GAP for i in range(n - 1)):
            return values


def scalar_unit_phases(angle_rows):
    return np.array([[complex(math.cos(t), math.sin(t)) for t in row] for row in angle_rows])


def scalar_draw_chunk(n, seeds):
    """verify's draws one trial at a time, in stream order: the Ginibre
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


def test_unitarity_check_is_bit_equal_to_scalar_reference():
    # V V^+ from `acc = 0j; acc += V[i,k] * conj(V[j,k])`, k ascending.  The
    # defect takes np.abs of V V^+ - I, as the library does: numpy's complex
    # modulus and CPython's abs() differ in the last bit on some entries.
    rng = SeededRng(2718)
    mats = [*pinned_matrices(), *signed_permutations(3), *signed_permutations(4)]
    mats.extend(haar_unitary(n, rng) for n in (2, 5, 8) for _ in range(10))
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
    rng = SeededRng(777)
    mats = [*pinned_matrices(), *signed_permutations(3), *signed_permutations(4)]
    for v in mats:
        inp = MassPairInput(a=random_spectrum(v.n, rng), b=random_spectrum(v.n, rng), v=v)
        got = commutator_matrix(inp)
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
    rng = SeededRng(8642)
    mats = [orthogonal4()]
    for _ in range(6):
        v3 = haar_unitary(3, rng).matrix
        for lo in (0, 1):
            m = np.zeros((4, 4), dtype=complex)
            m[3 * lo, 3 * lo] = 1.0
            m[1 - lo:4 - lo, 1 - lo:4 - lo] = v3
            mats.append(UnitaryMatrix(m))
    return mats


def assert_groups_match_scalar_reference(parts, cycles, inp):
    """parts and cycles shaped like decompose_det4's, bit-equal to
    scalar_det4_groups(inp)."""
    ref_parts, ref_cycles = scalar_det4_groups(inp)
    assert list(parts) == list(DET4_GROUPS)
    for name in DET4_GROUPS:
        assert np.array_equal(cbits(parts[name]), cbits(ref_parts[name])), name
    assert list(cycles) == list(ref_cycles)
    for name, (weight, raw) in cycles.items():
        assert bits([weight]) == bits([ref_cycles[name][0]]), name
        assert np.array_equal(cbits(raw), cbits(ref_cycles[name][1])), name
    return ref_parts


def test_det4_groups_are_bit_equal_to_scalar_reference():
    rng = SeededRng(4321)
    mats = [v for v in pinned_matrices() if v.n == 4] + list(signed_permutations(4))
    assert len(mats) == 40 + 2 + 1 + 72
    mats += det4_signed_zero_matrices()
    for v in mats:
        inp = MassPairInput(a=random_spectrum(4, rng), b=random_spectrum(4, rng), v=v)
        ref_parts = assert_groups_match_scalar_reference(*decompose_det4(inp), inp)
        acc = 0j
        for name in DET4_GROUPS:
            acc += ref_parts[name]
        assert np.array_equal(cbits(det4_closed(inp)), cbits(acc))


def test_det4_groups_of_a_verify_stack_are_bit_equal_to_scalar_reference():
    # verify stacks V and its rephased copy (2T matrices) and takes the a
    # half of the difference factors of both spectra, as one t_factors call
    rng = SeededRng(97531)
    mats = det4_signed_zero_matrices() + [haar_unitary(4, rng) for _ in range(5)]
    t = len(mats)
    a, b = (np.array([random_spectrum(4, rng).values for _ in mats]) for _ in "ab")
    row, col = (sampling._unit_phases([[u * 6.3 for u in uniforms(rng, 4)] for _ in mats])
                for _ in "rc")
    v = np.array([x.matrix for x in mats])
    both = np.concatenate([v, sampling.rephase(v, row, col)])
    _, cols = linalg._validate_unitaries(both)
    factors = t_factors(np.concatenate([a, b]))
    a_factors = tuple(np.concatenate([x[:t], x[:t]]) for x in factors)
    (re, im), (weights, (raw_re, raw_im)) = determinant._det4_groups(
        a_factors, np.concatenate([b, b]), cols, linalg._plaquettes(both))
    for s in range(2 * t):
        inp = MassPairInput(a=Spectrum(a[s % t]), b=Spectrum(b[s % t]), v=UnitaryMatrix(both[s]))
        parts = {name: complex(re[s, g], im[s, g]) for g, name in enumerate(DET4_GROUPS)}
        cycles = {name: (weights[s, g].item(), complex(raw_re[s, g], raw_im[s, g]))
                  for g, name in enumerate(DET4_GROUPS[3:])}
        assert_groups_match_scalar_reference(parts, cycles, inp)


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
    _, cols = linalg._validate_unitaries(v)
    j, r = jr_matrices(*linalg._plaquettes(v))
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
    g = verify._draw_chunk(4, derive_seed(trials + 7, np.arange(trials)))[0]
    assert_reconstructions_match_scalar_reference(sampling._haar_from_ginibre(g))


def real_rotations(count, seed):
    """Seeded real 4x4 rotations, products of six Givens rotations: every J
    entry is +-0, so each Cramer term is a signed zero."""
    rng = SeededRng(seed)
    for _ in range(count):
        m = np.eye(4, dtype=complex)
        for (p, q), u in zip(itertools.combinations(range(4), 2), uniforms(rng, 6)):
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
        j = jr_matrices(*(x[None] for x in v.plaquettes))[0]
        assert np.array_equal(bits(expand_phases(j)[0]), bits(reference_expansion(j[0])))


def verify_report_matches_golden_file(n, trials, capsys):
    assert main(["verify", "--n", str(n), "--trials", str(trials), "--seed", "13579"]) == 0
    name = f"verify_n{n}_seed13579_t{trials}.txt"
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("n", (3, 4))
def test_verify_report_bytes_match_golden_file(n, capsys):
    verify_report_matches_golden_file(n, 20, capsys)


# The golden files were written by the one-trial-at-a-time run_suite; 20
# trials fit in one chunk, TRIAL_CHUNK + 5 cross a chunk boundary.
@pytest.mark.parametrize("n", (3, 4))
def test_verify_report_across_a_chunk_boundary_matches_golden_file(n, capsys):
    verify_report_matches_golden_file(n, verify.TRIAL_CHUNK + 5, capsys)


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


def zero_column_matrices(n, rng):
    """Ginibre matrices with one column zeroed, one matrix per column."""
    mats = []
    for col in range(n):
        m = ginibre(n, rng)
        m[:, col] = 0.0
        mats.append(m)
    return mats


def modulus_near_ties(count):
    """3x3 matrices whose first column holds z and the real number r that
    numpy's array modulus and the scalar modulus order differently: one of
    them ties |z| with r, the other does not, so the LU pivot row depends on
    which modulus is used."""
    rng = SeededRng(91)
    mats = []
    while len(mats) < count:
        m = ginibre(3, rng)
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
    rng = SeededRng(86)
    groups = {"modulus_near_ties": modulus_near_ties(8)}
    for v in pinned_matrices():
        groups.setdefault(f"pinned_n{v.n}", []).append(v.matrix)
    for n in (3, 4):
        groups[f"signed_permutations_n{n}"] = [v.matrix for v in signed_permutations(n)]
    for n in range(2, 9):
        groups[f"haar_n{n}"] = [haar_unitary(n, rng).matrix for _ in range(12)]
        groups[f"ginibre_n{n}"] = [ginibre(n, rng) for _ in range(12)]
    for n in (2, 3, 4, 6):
        groups[f"zero_column_n{n}"] = [ginibre(n, rng), *zero_column_matrices(n, rng),
                                       ginibre(n, rng)]
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
    rng = SeededRng(17)
    for n in (2, 3, 4, 6):
        mats = zero_column_matrices(n, rng)
        assert all(det(m) == 0j for m in mats)
        assert np.array_equal(bits(det(np.array(mats)).view(float)), bits(np.zeros(2 * n)))


def test_non_finite_candidates_follow_the_scalar_pivot_rule():
    # a NaN candidate never wins the pivot, a NaN on the diagonal keeps its
    # row, and infinities take part like any modulus
    rng = SeededRng(6)
    mats = []
    for value in (np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)):
        for row in range(4):
            for col in range(3):
                m = ginibre(4, rng)
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
        for got, ref in ((q[t], q_ref), (r[t], r_ref), (householder_qr(m)[0], q_ref),
                         (haar[t], scalar_haar(m))):
            assert np.array_equal(bits(got.view(float)), bits(ref.view(float))), t


# ---------------------------------------------------------------- every stacked layer

def stack_slice(x, t):
    """Trial t of a stacked argument, kept as a stack of one."""
    if isinstance(x, tuple):
        return tuple(stack_slice(y, t) for y in x)
    return x[t:t + 1]


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


def stacked_layers(n):
    """{name: (function, stacked arguments, trial axis of its results)} of
    every layer that takes a leading trial axis, on LAYER_TRIALS seeded
    trials."""
    rng = SeededRng(1000 + n)
    trials = LAYER_TRIALS
    g = np.array([ginibre(n, rng) for _ in range(trials)])
    a, b = (np.array([random_spectrum(n, rng).values for _ in range(trials)]) for _ in "ab")
    row, col = (sampling._unit_phases([[u * 6.3 for u in uniforms(rng, n)]
                                       for _ in range(trials)]) for _ in "rc")
    v = sampling._haar_from_ginibre(g)
    w = sampling.rephase(v, row, col)
    _, cols = linalg._validate_unitaries(v)
    plaq = linalg._plaquettes(v)
    layers = {
        "householder_qr": (householder_qr, (g,), 0),
        "haar_from_ginibre": (sampling._haar_from_ginibre, (g,), 0),
        "rephased": (sampling.rephase, (v, row, col), 0),
        "validate_unitaries": (linalg._validate_unitaries, (w,), 0),
        "plaquettes": (linalg._plaquettes, (v,), 0),
        "commutators": (determinant._commutators, (a, b, cols), 0),
        "det": (det, (determinant._commutators(a, b, cols),), 0),
        "sum_rule_residuals": (phases.unitary_relation_residuals, (cols, *plaq), 0),
        "product_residuals": (phases.nonlinear_relation_residuals, plaq, 0),
        "antisymmetry_residuals": (verify._antisymmetry_residuals, plaq, 0),
        "phase_shifts": (verify._phase_shifts,
                         (tuple(map(phases.phase_table, plaq + linalg._plaquettes(w))),), 0),
    }
    if n == 3:
        layers["det3_closed"] = (determinant._det3_closed, (a, b, plaq[1]), 0)
        layers["n3_signs"] = (phases.n3_phase_table, (phases.phase_table(plaq[1]),), 0)
    else:
        j, r = phases.jr_matrices(*plaq)
        groups = determinant._det4_groups(t_factors(a), b, cols, plaq)
        layers.update({
            "det4_groups": (determinant._det4_groups, (t_factors(a), b, cols, plaq), 0),
            "det4_closed": (determinant._det4_closed, (groups[0],), 0),
            "t_factors": (determinant.t_factors, (a,), 0),
            "sum_rule": (determinant._sum_rule, determinant.t_factors(b), 0),
            "jr": (phases.jr_matrices, plaq, 0),
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


# ---------------------------------------------------------------- product identities by orbit

def haar_plaquettes(n, trials, master_seed):
    """The plaquettes of a stack of Haar unitaries, drawn as verify draws them."""
    g = verify._draw_chunk(n, derive_seed(master_seed, np.arange(trials)))[0]
    return linalg._plaquettes(sampling._haar_from_ginibre(g))


def assert_bit_equal_to_every_tuple(re, im):
    got = phases.nonlinear_relation_residuals(re, im)
    ref = full_product_residuals(re, im)
    assert list(got) == list(ref)
    for name in ref:
        assert np.array_equal(bits(got[name]), bits(ref[name])), name


# 3 and 4 trials: the chunk sizes at which a second, product-sized
# temporary made the heap shrink and regrow on every call (the benchmark's
# n = 4 op is a chunk of 4)
@pytest.mark.parametrize("trials", (1, 3, 4, 7, 64))
@pytest.mark.parametrize("n", (3, 4))
def test_product_residuals_by_orbit_are_bit_equal_to_every_tuple_on_haar_stacks(n, trials):
    assert_bit_equal_to_every_tuple(*haar_plaquettes(n, trials, 40 + n))


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
    re, im = haar_plaquettes(4, 64, 44)
    phases.nonlinear_relation_residuals(re, im)  # the table is built on first use
    gather = phases._product_table(4)[0].size * 64 * 8
    assert traced_peak(phases.nonlinear_relation_residuals, re, im) <= 1.15 * gather


def test_verify_peak_memory_stays_at_one_chunk_gather():
    verify.run_suite(4, 1, 0)
    assert traced_peak(verify.run_suite, 4, 1000, 0) <= 9 * 2 ** 20


def structured_matrices(n):
    """The pinned matrices, signed permutations and (n = 4) a real rotation
    of dimension n."""
    mats = [v for v in pinned_matrices() if v.n == n] + list(signed_permutations(n))
    return mats + [orthogonal4()] if n == 4 else mats


@pytest.mark.parametrize("n", (3, 4))
def test_product_residuals_by_orbit_are_bit_equal_to_every_tuple_on_structured_matrices(n):
    mats = structured_matrices(n)
    assert_bit_equal_to_every_tuple(*(np.array(x) for x in zip(*(v.plaquettes for v in mats))))
    for v in mats:
        plaq = tuple(x[None] for x in v.plaquettes)
        got, ref = nonlinear_relation_residuals(*plaq), full_product_residuals(*plaq)
        assert list(got) == list(ref)
        for name in ref:
            assert np.array_equal(bits(got[name]), bits(ref[name])), name


#: orbit representatives of each family at n = 3 and at n = 4, out of
#: n^5 or n^6 index tuples: the per-trial entry count of the evaluation
ORBIT_COUNTS = {
    "mixed_same_rows": (108, 400),
    "mixed_same_cols": (108, 400),
    "product_same_rows": (162, 760),
    "product_same_cols": (162, 760),
}
FAMILY_CASES = [(n, name) for n in (3, 4) for name in ORBIT_COUNTS]


def generated_group(free, generators):
    """Every permutation of positions generated by the images `generators`
    of the free indices, as index tuples: g maps x to (x[g[0]], x[g[1]], ...)."""
    images = [tuple(free.index(c) for c in g) for g in generators]
    group = {tuple(range(len(free)))}
    while True:
        grown = group | {tuple(p[i] for i in g) for p in group for g in images}
        if grown == group:
            return group
        group = grown


@pytest.mark.parametrize(("n", "name"), FAMILY_CASES,
                         ids=[f"n{n}-{name}" for n, name in FAMILY_CASES])
def test_orbit_representatives_partition_the_index_grid(n, name):
    _, free, generators = phases._PRODUCT_IDENTITIES[name]
    reps = phases._orbit_representatives(n, free, generators)
    assert reps.shape == (len(free), ORBIT_COUNTS[name][n - 3])
    group = generated_group(free, generators)
    covered = set()
    for rep in map(tuple, reps.T.tolist()):
        orbit = {tuple(rep[i] for i in g) for g in group}
        # the least tuple is the least flat code
        assert min(orbit) == rep
        assert not orbit & covered
        covered |= orbit
    assert covered == set(itertools.product(range(n), repeat=len(free)))


@pytest.mark.parametrize(("n", "name"), FAMILY_CASES,
                         ids=[f"n{n}-{name}" for n, name in FAMILY_CASES])
def test_each_group_generator_leaves_the_residual_tensor_bit_invariant(n, name):
    _, free, generators = phases._PRODUCT_IDENTITIES[name]
    tensor = full_product_residual_tensors(*haar_plaquettes(n, 7, 60 + n))[name]
    assert tensor.max() > 0.0
    for g in generators:
        perm = [free.index(c) for c in g]
        # an involution, so the transpose by perm maps each tuple to its image
        assert [perm[i] for i in perm] == list(range(len(free)))
        moved = tensor.transpose(0, *(1 + i for i in perm))
        assert np.array_equal(bits(moved), bits(tensor)), g


def test_product_table_holds_one_column_per_orbit_representative():
    for n in (3, 4):
        index, starts, combines = phases._product_table(n)
        counts = [c[n - 3] for c in ORBIT_COUNTS.values()]
        assert index.shape == (6, sum(counts))
        assert starts == tuple(np.cumsum([0] + counts[:-1]).tolist())
        assert combines == (np.add, np.add, np.subtract, np.subtract)
        assert not index.flags.writeable


# ---------------------------------------------------------------- stacked draws

def draw_bits(x):
    """uint64 patterns of a float or complex array."""
    x = np.asarray(x)
    return bits(x.view(np.float64) if np.iscomplexobj(x) else x)


DRAW_CASES = [(n, t) for n in range(2, 9) for t in (1, 4, 7, 8, 64)]


@pytest.mark.parametrize(("n", "trials"), DRAW_CASES, ids=[f"n{n}-T{t}" for n, t in DRAW_CASES])
def test_stacked_draw_is_bit_equal_to_the_per_trial_loop(n, trials):
    seeds = [scalar_derive_seed(100 * n + trials, t) for t in range(trials)]
    got = verify._draw_chunk(n, np.array(seeds, dtype=np.uint64))
    ref = scalar_draw_chunk(n, seeds)
    assert len(got) == len(ref) == 5
    for name, x, y in zip(("ginibre", "a", "b", "row_phases", "col_phases"), got, ref):
        assert x.shape == y.shape, name
        assert np.array_equal(draw_bits(x), draw_bits(y)), name


def counted_draws(monkeypatch):
    """Patch every binding of the stream and of the redraw loop with a
    wrapper that counts its calls; returns the {name: calls} dict."""
    calls = {"_stream": 0, "_spectra": 0}
    for name in calls:
        fn = getattr(sampling, name)

        def counted(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        for module in (sampling, verify):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_chunk_whose_round_accepts_too_few_draws_redraws_bit_equal_to_the_loop(monkeypatch):
    # n = 8 accepts a draw with probability 21%, so some of 64 streams find
    # fewer than two accepted draws in the block's round of
    # 2 * _DRAWS_PER_ROUND and continue through the redraw loop
    n, trials = 8, 64
    seeds = [scalar_derive_seed(800, t) for t in range(trials)]
    calls = counted_draws(monkeypatch)
    got = verify._draw_chunk(n, np.array(seeds, dtype=np.uint64))
    assert calls["_spectra"] >= 1
    assert calls["_stream"] > 1
    for name, x, y in zip(("ginibre", "a", "b", "row_phases", "col_phases"), got,
                          scalar_draw_chunk(n, seeds)):
        assert np.array_equal(draw_bits(x), draw_bits(y)), name


@pytest.mark.parametrize(("n", "trials"), ((3, 8), (4, 4)))
def test_chunk_reads_one_block_of_outputs_when_no_stream_redraws(monkeypatch, n, trials):
    calls = counted_draws(monkeypatch)
    verify._draw_chunk(n, derive_seed(29, np.arange(trials)))
    assert calls == {"_stream": 1, "_spectra": 0}


@pytest.mark.parametrize("trials", (1, 7, 64))
def test_stacked_spectra_with_many_redraws_are_bit_equal_to_the_scalar_loop(trials):
    # n = 8 accepts a draw with probability (1 - 7 * MIN_GAP / 2)^8 = 21%,
    # so streams redraw several times, some over more than one round, and
    # leave the redraw rounds at different positions
    n = 8
    seeds = [scalar_derive_seed(8, t) for t in range(trials)]
    start = np.arange(trials) * 5
    values, end = sampling._spectra(np.array(seeds, dtype=np.uint64), start, n)
    for t, seed in enumerate(seeds):
        rng = ScalarRng(seed)
        for _ in range(start[t]):
            rng.next_u64()
        ref = scalar_spectrum(n, rng)
        assert np.array_equal(bits(values[t]), bits(ref)), t
        assert end[t] == rng.position, t
    redraws = (end - start) // n
    assert redraws.min() >= 1
    if trials > 1:
        assert len(set(redraws.tolist())) > 1
    if trials == 64:
        assert redraws.max() > sampling._DRAWS_PER_ROUND


@pytest.mark.parametrize("n", range(2, 9))
def test_single_samplers_advance_the_cursor_by_the_scalar_count(n):
    rng, ref = SeededRng(40 + n), ScalarRng(40 + n)
    assert np.array_equal(draw_bits(ginibre(n, rng)), draw_bits(scalar_ginibre(n, ref)))
    assert rng.position == ref.position == 2 * n * n
    spectrum = random_spectrum(n, rng)
    assert np.array_equal(bits(spectrum.values), bits(scalar_spectrum(n, ref)))
    assert rng.position == ref.position
    v = haar_unitary(n, rng)
    assert np.array_equal(draw_bits(v.matrix), draw_bits(scalar_haar(scalar_ginibre(n, ref))))
    assert rng.position == ref.position
    pair = rng._draw(sampling._normals, 1)[0]
    assert bits(pair).tolist() == bits(ref.normal_pair()).tolist()
    assert int(rng._draw(sampling._stream, 1)[0]) == ref.next_u64()
    assert uniforms(rng, 1) == [ref.uniform()]
    assert rng.position == ref.position


def test_derive_seed_of_an_index_array_matches_the_scalar_seeds():
    indices = [0, 1, 2 ** 32]
    for master in (-5, 2 ** 64 + 3):
        expected = [scalar_derive_seed(master, i) for i in indices]
        assert [derive_seed(master, i) for i in indices] == expected
        seeds = derive_seed(master, np.array(indices))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == expected
