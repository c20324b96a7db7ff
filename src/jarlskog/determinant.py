"""Commutator determinants of mass-matrix pairs, three ways.

For Hermitian H = U diag(a) U^+ and H' = U' diag(b) U'^+ with mixing matrix
V = U^+ U', the commutator determinant det(H H' - H' H) reduces to
det(D V D' V^+ - V D' V^+ D) with D = diag(a), D' = diag(b).  Its entries are

    u[i, j] = (a_i - a_j) * sum_k b_k V[i, k] conj(V[j, k]),

an anti-Hermitian pattern (u[j, i] = -conj(u[i, j])), so the determinant is
purely imaginary for odd n and real for even n.

Three evaluations are provided:

* det_direct: build the commutator entrywise and take an LU determinant.
  This is the ground-truth oracle for the closed forms.  The products
  V[i,k] conj(V[j,k]) are the column products of the unitarity check, the
  same split real/imaginary kernel as the plaquettes applied to V^T, and
  the k-sum is linalg._ksum, so every entry is bit-equal to its scalar
  complex evaluation.
* det3_closed (n = 3): 2i T B im(12;12) with T, B the cyclic products of
  eigenvalue differences, im(12;12) read from the plaquette store.
* det4_closed (n = 4): the expanded closed form in which the fourth column
  of V has been eliminated through unitarity.  Nine term groups survive,
  weighted by squared-pair factors T_(ij)(kl) and 4-cycle factors T_(ijkl)
  of the a-spectrum; the b-spectrum enters only through the differences
  b_k - b_4.  Each group is a product of 3-term sums over k; all of them
  come from two batched _ksum passes over the plaquettes, the column
  products and |V|^2 (their real diagonal).  Their products run in three
  table-driven stages, each one call of _cmul, the scalar complex product,
  on operands gathered from one array of atoms, so every group is
  bit-equal to its scalar evaluation.

Every evaluation runs on a stack of T trials: (T, n) spectra a and b, the
(re, im) pair cols of (T, n, n, n) column products of V and its (2, T, K)
plaquette store plaq (both from linalg._validate_unitaries), with
a_factors = t_factors(a) at n = 4:

    det_direct(a, b, cols)                    (T,) complex
    det3_closed(a, b, plaq)                   (T,) complex, n = 3
    det4_closed(a_factors, b, cols, plaq)     (T,) complex, n = 4
    decompose_det4(a_factors, b, cols, plaq)  its nine groups, n = 4

One problem is the stack of one.

Reconciliation note for det4_closed: the three pair-weighted groups are
self-conjugate sums (their imaginary parts cancel index-by-index), but each
cycle-weighted group is a sum over one orientation of a 3-cycle only, and
its conjugate-orientation partner is omitted from the expansion.  The group
is therefore complex, and only its real part contributes to the
determinant: evaluating the cycle groups as raw complex sums leaves an O(1)
imaginary remainder and does NOT reproduce det_direct.  Taking the real
part of each cycle group (equivalently, averaging the two orientations)
makes the nine-group sum agree with det_direct to roundoff; that is what
this module does, and what the term-by-term tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DimensionError, Spectrum, UnitaryMatrix, _cmul, _complex, _ksum,
                     _moduli_squared, _plaquette_layout, det)

#: canonical order of the nine term groups of det4_closed; decompose_det4
#: returns them in this order and det4_closed sums them in this order.
DET4_GROUPS = (
    "pair_12_34",
    "pair_13_24",
    "pair_14_23",
    "cycle3_1243",
    "cycle3_1324",
    "cycle3_1234",
    "cycle4_1243",
    "cycle4_1324",
    "cycle4_1234",
)


@dataclass(frozen=True)
class MassPairInput:
    """Two simple spectra and the mixing matrix connecting their bases."""

    a: Spectrum
    b: Spectrum
    v: UnitaryMatrix

    def __post_init__(self):
        if not (self.a.n == self.b.n == self.v.n):
            raise DimensionError(
                f"dimension mismatch: a has {self.a.n}, b has {self.b.n}, "
                f"V is {self.v.n}x{self.v.n}"
            )

    @property
    def n(self):
        return self.a.n


def _commutators(a, b, cols):
    """(T, n, n) commutator entries from (T, n) spectra a, b and the (re, im)
    pair of (T, n, n, n) column products c[t, k, i, j] = V_t[i,k] conj(V_t[j,k]).

    Entry (i, j) is (a_i - a_j) * sum_k b_k (V[i,k] conj(V[j,k])), with the
    k-sum accumulated in ascending order.  The bracketed products are the
    row products of V^T, so u[j, i] == -conj(u[i, j]) holds exactly in
    floating point, not just in exact arithmetic.
    """
    cr, ci = cols
    # term k of entry (i, j) is b_k c[k, i, j]
    tr, ti = _cmul(b[:, :, None, None], 0.0, cr, ci)
    diff = a[:, :, None] - a[:, None, :]
    return _complex(*_cmul(diff, 0.0, _ksum(tr, axis=1), _ksum(ti, axis=1)))


def det_direct(a, b, cols):
    """(T,) determinants of the commutators, evaluated directly.  The oracle."""
    return det(_commutators(a, b, cols))


def _check_n(n, *spectra):
    """DimensionError unless every (T, m) spectrum has m = n."""
    for s in spectra:
        if s.shape[1] != n:
            raise DimensionError(f"the closed form for n={n} got spectra of n={s.shape[1]}")


def det3_closed(a, b, plaq):
    """Closed form for n = 3: 2i T B im(12;12), (T,) complex, for (T, 3)
    spectra and the (2, T, 45) plaquette store, whose first column is
    (12;12)."""
    _check_n(3, a, b)
    t = (a[:, 0] - a[:, 1]) * (a[:, 1] - a[:, 2]) * (a[:, 2] - a[:, 0])
    bb = (b[:, 0] - b[:, 1]) * (b[:, 1] - b[:, 2]) * (b[:, 2] - b[:, 0])
    # 2j * x is the scalar complex product (0, 2) (x, 0)
    return _complex(*_cmul(0.0, 2.0, t * bb * plaq[1][:, 0], 0.0))


#: index content of the squared-pair and 4-cycle factors
PAIRINGS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
CYCLES = ((1, 2, 4, 3), (1, 3, 2, 4), (1, 2, 3, 4))


def _sum_rule(pair, cycle):
    """(residual, scale) of the difference-factor sum rule for (T, 3) pair
    and cycle factors: pair-sum minus twice the cycle-sum, and the sum of the
    absolute term magnitudes.  The four 3-term sums are one batched _ksum,
    each accumulated left to right from 0.0."""
    sums = _ksum(np.array([pair, cycle, np.abs(pair), 2.0 * np.abs(cycle)]), axis=2)
    return sums[0] - 2.0 * sums[1], sums[2] + sums[3]


#: 0-based spectrum columns of the factors: rows i, j, k, l, one column per
#: entry of PAIRINGS (flattened), then one per entry of CYCLES
_FACTOR_COLUMNS = np.concatenate([np.array(PAIRINGS).reshape(3, 4).T, np.array(CYCLES).T],
                                 axis=1) - 1


def t_factors(s):
    """The eigenvalue-difference factors (pair, cycle) of (T, 4) spectra s,
    each a (T, 3) array:

    pair[:, g]  = (s_i - s_j)^2 (s_k - s_l)^2 for ((i,j),(k,l)) = PAIRINGS[g]
                  (always >= 0)
    cycle[:, g] = (s_i - s_j)(s_j - s_k)(s_k - s_l)(s_l - s_i) for
                  (i,j,k,l) = CYCLES[g]

    The three pair factors minus twice the three cycle factors sum to zero;
    _sum_rule evaluates that combination.  One gather takes the columns of
    all six factors, and each formula runs on all six, of which the pair
    factors keep the first three and the cycle factors the last three.
    """
    i, j, k, l = s.take(_FACTOR_COLUMNS, axis=1).transpose(1, 0, 2)
    ij, kl = i - j, k - l
    pair = (ij * ij) * (kl * kl)
    cycle = ij * (j - k) * kl * (l - i)
    return pair[:, :3], cycle[:, 3:]


# Every summand of the nine groups is a product of factors that each depend
# on a single summation index, so each group is a product of 3-term sums
# over k (columns 1..3), weighted by bw[k] = b_k - b_4, bw[k]^2 or
# bw[k1] bw[k2].  The sums, 0-based:
#   q[f]    = sum bw[k1] bw[k2] [ab; k1 k2], rows (a, b) = (12), (13), (23)
#   x[3a+b] = sum bw[k] V[a,k] conj(V[b,k]), x2 with bw[k]^2
#   m[r]    = sum bw[k] |V[r,k]|^2,          m2 with bw[k]^2
#   mp[g]   = sum bw[k] (|V[r,k]|^2 + |V[s,k]|^2), r, s = _CYCLE_ROWS[:, g]
# In DET4_GROUPS order, with the T factors of the a-spectrum:
#   pair g   = T (q[g] m2[r] - q[i] q[j] - q[g] m[r]^2), r = 2, 1, 0 and
#              (i, j) = (1, 2), (0, 2), (0, 1)
#   cycle3 g = -2T x[a] x[b] x2[c], cycle4 g = 2T x[a] x[b] x[c] mp[g],
#              (a, b, c) = (6, 1, 5), (2, 7, 3), (1, 5, 6): x31 x12 x23,
#              x13 x32 x21, x12 x23 x31
# The sums come from two passes over k, each adding its real and imaginary
# terms together, one add per k: the three weighted columns, spelled out
# t0 + t1 + t2, and the nine (k1, k2) of the plaquette forms, from 0.0 with
# k2 innermost (_ksum: one reduce over the first seven, then two adds).  The
# products of the sums run in three stages, each one _cmul over operands
# taken from one array of atoms by the flat tables below.

#: store columns of [ab; k1 k2], ab = 12, 13, 23 (column f), at row 3 k1 + k2
_Q_TAKE = (_plaquette_layout(4)[1].reshape(4, 4, 4, 4)[[0, 0, 1], [1, 2, 2], :3, :3]
           .reshape(3, 9).T.copy())
_CYCLE_ROWS = np.array([[1, 0, 0], [2, 1, 2]])

#: (re, im) columns of the named atoms of the product stages; a real atom
#: takes the zero column as its imaginary part, so that a real factor s
#: enters a product as (s, 0.0).  The atoms of stage 1 are the weighted
#: k-sums as their pass leaves them (for weight bw, then bw^2: the nine x
#: re, the nine x im, m, then mp), q re and im, m^2 and the zero column;
#: stage 2 appends the stage-1 products s re and im, the pair groups'
#: s1 - s2 - s3 re and im and the T pair factors.
_ZERO = 57
_ATOMS = {
    **{f"x{i}": (i, 9 + i) for i in range(9)},
    **{f"x2_{i}": (24 + i, 33 + i) for i in range(9)},
    **{f"m2_{r}": (42 + r, _ZERO) for r in range(3)},
    **{f"q{f}": (48 + f, 51 + f) for f in range(3)},
    **{f"mm{r}": (54 + r, _ZERO) for r in range(3)},
    **{f"s{i}": (58 + i, 70 + i) for i in range(12)},
    **{f"d{g}": (82 + g, 85 + g) for g in range(3)},
    **{f"t{g}": (88 + g, _ZERO) for g in range(3)},
}


def _stage(products):
    """(4, P) operand table of a stage: the x re, x im, y re and y im
    columns of each "x y" product."""
    return np.array([_ATOMS[x] + _ATOMS[y] for x, y in map(str.split, products)]).T


#: stage 1: q[g] m2[r], q[i] q[j] and q[g] m[r]^2 of the pair groups, and
#: x[a] x[b] of the cycle groups
_STAGE1 = _stage(("q0 m2_2", "q1 m2_1", "q2 m2_0", "q1 q2", "q0 q2", "q0 q1",
                  "q0 mm2", "q1 mm1", "q2 mm0", "x6 x1", "x2 x7", "x1 x5"))
#: stage 2: the pair groups T (s1 - s2 - s3), then x[a] x[b] x2[c] and
#: x[a] x[b] x[c]; stage 3 multiplies the last by mp[g]
_STAGE2 = _stage(("t0 d0", "t1 d1", "t2 d2", "s9 x2_5", "s10 x2_3", "s11 x2_6",
                  "s9 x5", "s10 x3", "s11 x6"))
#: the weights of the six cycle groups: -2 T, then 2 T of the 4-cycle factors
_CYCLE_T = np.tile(np.arange(3), 2)
_CYCLE_WEIGHT = np.repeat([-2.0, 2.0], 3)


def decompose_det4(a_factors, b, cols, plaq):
    """The term groups of det4_closed and the six raw cycle groups, for the
    t_factors (pair, cycle) of the (T, 4) a-spectra, the (T, 4) b-spectra
    and the column products and plaquettes of V.

    Returns (parts, cycles).  parts is the (re, im) pair of (T, 9) arrays of
    the nine groups in DET4_GROUPS order.  Pair groups are complex sums
    whose imaginary parts cancel to roundoff; cycle groups carry only the
    real part of their orientation sum (see the module docstring).  Summed
    in DET4_GROUPS order from 0.0 they give exactly det4_closed.

    cycles is (weights, (re, im)), three (T, 6) arrays of the six cycle
    groups before their real part is taken: raw is the complex sum over one
    orientation of the 3-cycle and weight its factor -2 T_(ijkl) (cycle3)
    or +2 T_(ijkl) (cycle4).  parts holds weight * raw.real for each;
    weight * raw keeps the imaginary part that the expansion discards.

    Every 3-term sum over k comes from one of two batched passes, and the
    products of those sums from three stages of _cmul, the scalar complex
    product, on operands gathered by index tables (see the comment above),
    so each group is bit-equal to its scalar evaluation.
    """
    _check_n(4, b)
    t = len(b)
    tp, tc = a_factors
    bw = b[:, :3] - b[:, 3:]
    w = np.concatenate([bw[:, :, None], (bw * bw)[:, :, None]], axis=2)[:, :, :, None]
    # the items weighted over k: the nine column products V[a,k]
    # conj(V[b,k]), then the |V|^2 rows and the cycle4 row-pair sums, which
    # are real
    cr, ci = (x[:, :3, :3, :3].reshape(t, 3, 1, 9) for x in cols)
    rows = _moduli_squared(cols).swapaxes(1, 2)[:, :3, :3]
    pairs = rows.take(_CYCLE_ROWS, axis=2)
    real = np.concatenate([rows, pairs[:, :, 0] + pairs[:, :, 1]], axis=2)
    terms = np.concatenate([*_cmul(w, 0.0, cr, ci), w * real[:, :, None]], axis=3)
    sums = _ksum(terms[:, 1:], terms[:, 0], axis=1).reshape(t, 48)
    # the plaquette forms: 9 terms over (k1, k2), k2 innermost
    ww = (bw[:, :, None] * bw[:, None, :]).reshape(t, 9, 1)
    q = _ksum(np.concatenate(_cmul(ww, 0.0, *(p.take(_Q_TAKE, axis=1) for p in plaq)), axis=2),
              axis=1)
    # the stages, laid out as _ATOMS lists them; m is sums[:, 18:21] and mp
    # sums[:, 21:24]
    m = sums[:, 18:21]
    atoms = np.concatenate([sums, q, m * m, np.zeros((t, 1))], axis=1)
    sr, si = _cmul(*atoms.take(_STAGE1, axis=1).transpose(1, 0, 2))
    # s1 - s2 - s3 of each pair group, real and imaginary parts at once
    s = np.concatenate([sr, si], axis=1).reshape(t, 2, 4, 3)
    d = s[:, :, 0] - s[:, :, 1] - s[:, :, 2]
    atoms = np.concatenate([atoms, sr, si, d.reshape(t, 6), tp], axis=1)
    sr, si = _cmul(*atoms.take(_STAGE2, axis=1).transpose(1, 0, 2))
    raw4 = _cmul(sr[:, 6:], si[:, 6:], sums[:, 21:24], 0.0)
    weights = tc.take(_CYCLE_T, axis=1) * _CYCLE_WEIGHT
    raw = tuple(np.concatenate([x[:, 3:6], y], axis=1) for x, y in zip((sr, si), raw4))
    parts = (np.concatenate([sr[:, :3], weights * raw[0]], axis=1),
             np.concatenate([si[:, :3], np.zeros((t, 6))], axis=1))
    return parts, (weights, raw)


def det4_closed(a_factors, b, cols, plaq):
    """Closed form for n = 4, (T,) complex: the nine groups of
    decompose_det4 summed in DET4_GROUPS order from 0.0.  The imaginary part
    is a pure roundoff residue of the pair groups; the real part is the
    determinant."""
    return _complex(*(_ksum(x, axis=1) for x in decompose_det4(a_factors, b, cols, plaq)[0]))
