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
  V[i,k] conj(V[j,k]) are UnitaryMatrix.column_products, the same split
  real/imaginary kernel as the plaquettes applied to V^T, and the k-sum is
  linalg._ksum, so every entry is bit-equal to its scalar complex
  evaluation.
* det3_closed (n = 3): 2i T B im(12;12) with T, B the cyclic products of
  eigenvalue differences, im(12;12) read from the plaquette tensor.
* det4_closed (n = 4): the expanded closed form in which the fourth column
  of V has been eliminated through unitarity.  Nine term groups survive,
  weighted by squared-pair factors T_(ij)(kl) and 4-cycle factors T_(ijkl)
  of the a-spectrum; the b-spectrum enters only through the differences
  b_k - b_4.  Each group is a product of 3-term sums over k; all of them
  come from two batched _ksum passes over the plaquettes, the column
  products and |V|^2 (their real diagonal), and are then multiplied by
  _cmul, the scalar complex product, so every group is bit-equal to its
  scalar evaluation.

Every evaluation runs on a stack of trials: _commutators, _det3_closed,
_det4_groups and t_factors take (T, ...) arrays.  The determinants of one
MassPairInput (commutator_matrix, det_direct, det3_closed, det4_closed,
decompose_det4) call them with a stack of one.

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
                     _moduli_squared, det)

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
    pair of (T, n, n, n) column products c[t, k, i, j] = V_t[i,k] conj(V_t[j,k])."""
    cr, ci = cols
    # term k of entry (i, j) is b_k c[k, i, j]
    tr, ti = _cmul(b[:, :, None, None], 0.0, cr, ci)
    diff = a[:, :, None] - a[:, None, :]
    return _complex(*_cmul(diff, 0.0, _ksum(tr, axis=1), _ksum(ti, axis=1)))


def _spectra(inp):
    """a and b of one input as (1, n) arrays: a stack of one trial."""
    return np.array([inp.a.values]), np.array([inp.b.values])


def commutator_matrix(inp):
    """The full commutator D V D' V^+ - V D' V^+ D, built entrywise.

    Entry (i, j) is (a_i - a_j) * sum_k b_k (V[i,k] conj(V[j,k])), with the
    k-sum accumulated in ascending order.  The bracketed products are the
    row products of V^T, so u[j, i] == -conj(u[i, j]) holds exactly in
    floating point, not just in exact arithmetic.
    """
    return _commutators(*_spectra(inp), tuple(x[None] for x in inp.v.column_products))[0]


def det_direct(inp):
    """Determinant of the commutator, evaluated directly.  The oracle."""
    return det(commutator_matrix(inp))


def _det3_closed(a, b, plaq_im):
    """(re, im) of 2i T B im(12;12) for (T, 3) spectra and (T, 3, 3, 3, 3)
    imaginary plaquettes."""
    t = (a[:, 0] - a[:, 1]) * (a[:, 1] - a[:, 2]) * (a[:, 2] - a[:, 0])
    bb = (b[:, 0] - b[:, 1]) * (b[:, 1] - b[:, 2]) * (b[:, 2] - b[:, 0])
    # 2j * x is the scalar complex product (0, 2) (x, 0)
    return _cmul(0.0, 2.0, t * bb * plaq_im[:, 0, 1, 0, 1], 0.0)


def det3_closed(inp):
    """Closed form for n = 3: 2i T B im(12;12)."""
    if inp.n != 3:
        raise DimensionError(f"det3_closed requires n=3, got n={inp.n}")
    re, im = _det3_closed(*_spectra(inp), inp.v.plaquettes[1][None])
    return complex(re[0], im[0])


#: index content of the squared-pair and 4-cycle factors
PAIRINGS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
CYCLES = ((1, 2, 4, 3), (1, 3, 2, 4), (1, 2, 3, 4))


def _sum_rule(pair, cycle):
    """(residual, scale) of the difference-factor sum rule for (T, 3) pair
    and cycle factors: pair-sum minus twice the cycle-sum, and the sum of the
    absolute term magnitudes, both accumulated left to right from 0.0."""
    residual = _ksum(pair, axis=1) - 2.0 * _ksum(cycle, axis=1)
    scale = _ksum(np.abs(pair), axis=1) + _ksum(2.0 * np.abs(cycle), axis=1)
    return residual, scale


#: 0-based spectrum columns of the factors: rows i, j, k, l, one column per
#: entry of PAIRINGS (flattened) and of CYCLES
_PAIR_COLUMNS = np.array(PAIRINGS).reshape(3, 4).T - 1
_CYCLE_COLUMNS = np.array(CYCLES).T - 1


def t_factors(s):
    """The eigenvalue-difference factors (pair, cycle) of (T, 4) spectra s,
    each a (T, 3) array:

    pair[:, g]  = (s_i - s_j)^2 (s_k - s_l)^2 for ((i,j),(k,l)) = PAIRINGS[g]
                  (always >= 0)
    cycle[:, g] = (s_i - s_j)(s_j - s_k)(s_k - s_l)(s_l - s_i) for
                  (i,j,k,l) = CYCLES[g]

    The three pair factors minus twice the three cycle factors sum to zero;
    _sum_rule evaluates that combination.
    """
    i, j, k, l = (s[:, c] for c in _PAIR_COLUMNS)
    pair = ((i - j) * (i - j)) * ((k - l) * (k - l))
    i, j, k, l = (s[:, c] for c in _CYCLE_COLUMNS)
    cycle = (i - j) * (j - k) * (k - l) * (l - i)
    return pair, cycle


def _check_n4(inp):
    if inp.n != 4:
        raise DimensionError(f"the four-level closed form requires n=4, got n={inp.n}")


# Every summand of the nine groups is a product of factors that each depend
# on a single summation index, so each group is a product of 3-term sums
# over k (columns 1..3), weighted by bw[k] = b_k - b_4, bw[k]^2 or
# bw[k1] bw[k2].  The sums, 0-based:
#   q[f]    = sum bw[k1] bw[k2] [ab; k1 k2], rows (a, b) = (12), (13), (23)
#   x[3a+b] = sum bw[k] V[a,k] conj(V[b,k]), x2 with bw[k]^2
#   m[r]    = sum bw[k] |V[r,k]|^2,          m2 with bw[k]^2
#   mp[g]   = sum bw[k] (|V[r,k]|^2 + |V[s,k]|^2), r, s = _CYCLE_ROWS[:, g]
# In DET4_GROUPS order, with the T factors of the a-spectrum:
#   pair g   = T (q[g] m2[r] - q[i] q[j] - q[g] m[r]^2), r = _PAIR_ROW[g],
#              (i, j) = _PAIR_QQ[:, g]
#   cycle3 g = -2T x[a] x[b] x2[c], cycle4 g = 2T x[a] x[b] x[c] mp[g],
#              (a, b, c) = _CYCLE_X[:, g]
# The three groups of each kind are evaluated together, one _cmul per
# product for all of them.

#: flat positions of [ab; k1 k2] in the plaquette tensor; row 3 k1 + k2,
#: column f
_Q_TAKE = np.array([[64 * a + 16 * b + 4 * k1 + k2 for a, b in ((0, 1), (0, 2), (1, 2))]
                    for k1 in range(3) for k2 in range(3)])
_PAIR_ROW = np.array([2, 1, 0])
_PAIR_QQ = np.array([[1, 0, 0], [2, 2, 1]])
#: x31 x12 x23, x13 x32 x21, x12 x23 x31
_CYCLE_X = np.array([[6, 2, 1], [1, 7, 5], [5, 3, 6]])
_CYCLE_ROWS = np.array([[1, 0, 0], [2, 1, 2]])


def _det4_groups(a_factors, b, cols, plaq):
    """The nine term groups of det4_closed and the six raw cycle groups, for
    the t_factors (pair, cycle) of the (T, 4) a-spectra, the (T, 4)
    b-spectra and the column products and plaquettes of V.

    Returns (parts, cycles): parts is the (re, im) pair of (T, 9) arrays of
    the nine groups in DET4_GROUPS order, each cycle group with only its
    real part kept; cycles is (weights, (re, im)), three (T, 6) arrays of
    the six raw cycle groups and their weights.  Every 3-term sum over k
    comes from one of two batched _ksum passes; the products of those sums
    are _cmul, the scalar complex product, so each group is bit-equal to its
    scalar evaluation.
    """
    t = len(b)
    bw = b[:, :3] - b[:, 3:]
    # rows[t, k, r] = |V[r, k]|^2
    rows = _moduli_squared(cols).swapaxes(1, 2)[:, :3, :3]
    cr, ci = cols
    # one pass over k with weights [bw, bw^2]; items: the nine column
    # products, the three |V|^2 rows and the cycle4 row-pair sums.  These
    # sums are spelled out term by term, so they start from -0.0.
    pairs = rows[:, :, _CYCLE_ROWS[0]] + rows[:, :, _CYCLE_ROWS[1]]
    items_r = np.concatenate([cr[:, :3, :3, :3].reshape(t, 3, 9), rows, pairs], axis=2)
    items_i = np.concatenate([ci[:, :3, :3, :3].reshape(t, 3, 9), np.zeros((t, 3, 6))], axis=2)
    w = np.stack([bw, bw * bw], axis=2)[:, :, :, None]
    sr, si = (_ksum(y, -0.0, axis=1)
              for y in _cmul(w, 0.0, items_r[:, :, None], items_i[:, :, None]))
    m, m2, mp = sr[:, 0, 9:12], sr[:, 1, 9:12], sr[:, 0, 12:]
    # the plaquette forms: 9 terms over (k1, k2), k2 innermost
    ww = (bw[:, :, None] * bw[:, None, :]).reshape(t, 9, 1)
    q = tuple(_ksum(y, axis=1)
              for y in _cmul(ww, 0.0, *(p.reshape(t, -1)[:, _Q_TAKE] for p in plaq)))

    def pick(z, index):
        return z[0][:, index], z[1][:, index]

    tp, tc = a_factors
    # pair groups: T (q[g] m2[r] - q[i] q[j] - q[g] (m[r] m[r]))
    mr = m[:, _PAIR_ROW]
    s1 = _cmul(*q, m2[:, _PAIR_ROW], 0.0)
    s2 = _cmul(*pick(q, _PAIR_QQ[0]), *pick(q, _PAIR_QQ[1]))
    s3 = _cmul(*q, mr * mr, 0.0)
    pair = _cmul(tp, 0.0, s1[0] - s2[0] - s3[0], s1[1] - s2[1] - s3[1])
    # cycle groups: x[a] x[b] x2[c] and x[a] x[b] x[c] mp[g]
    x, x2 = (sr[:, 0, :9], si[:, 0, :9]), (sr[:, 1, :9], si[:, 1, :9])
    xab = _cmul(*pick(x, _CYCLE_X[0]), *pick(x, _CYCLE_X[1]))
    raw3 = _cmul(*xab, *pick(x2, _CYCLE_X[2]))
    raw4 = _cmul(*_cmul(*xab, *pick(x, _CYCLE_X[2])), mp, 0.0)
    weights = np.concatenate([-2.0 * tc, 2.0 * tc], axis=1)
    raw = tuple(np.concatenate(part, axis=1) for part in zip(raw3, raw4))
    parts = (np.concatenate([pair[0], weights * raw[0]], axis=1),
             np.concatenate([pair[1], np.zeros((t, 6))], axis=1))
    return parts, (weights, raw)


def _det4_stack_of_one(inp):
    _check_n4(inp)
    v = inp.v
    a, b = _spectra(inp)
    return _det4_groups(t_factors(a), b, tuple(x[None] for x in v.column_products),
                        tuple(x[None] for x in v.plaquettes))


def _det4_closed(parts):
    """(re, im) of the nine groups summed in DET4_GROUPS order from 0.0."""
    return tuple(_ksum(x, axis=1) for x in parts)


def decompose_det4(inp):
    """The term groups of det4_closed, as (parts, cycles).

    parts maps the nine groups, in DET4_GROUPS order, to their complex
    values.  Pair groups are complex sums whose imaginary parts cancel to
    roundoff; cycle groups carry only the real part of their orientation
    sum (see the module docstring).  The values sum, in dict order, to
    exactly the value det4_closed returns.

    cycles maps the six cycle groups to (weight, raw) before their real part
    is taken: raw is the complex sum over one orientation of the 3-cycle and
    weight its factor -2 T_(ijkl) (cycle3) or +2 T_(ijkl) (cycle4).  parts
    holds weight * raw.real for each; weight * raw keeps the imaginary part
    that the expansion discards.
    """
    (re, im), (weights, (raw_re, raw_im)) = _det4_stack_of_one(inp)
    parts = {name: complex(re[0, g], im[0, g]) for g, name in enumerate(DET4_GROUPS)}
    cycles = {name: (weights[0, g].item(), complex(raw_re[0, g], raw_im[0, g]))
              for g, name in enumerate(DET4_GROUPS[3:])}
    return parts, cycles


def det4_closed(inp):
    """Closed form for n = 4: the nine term groups summed in fixed order.

    Returns a complex number whose imaginary part is a pure roundoff
    residue of the pair groups; its real part is the determinant.
    """
    re, im = _det4_closed(_det4_stack_of_one(inp)[0])
    return complex(re[0], im[0])


def closed_form(n):
    """The closed-form evaluation for dimension n, or None if n has none.

    The function is looked up at each call rather than stored in a table,
    so rebinding det3_closed/det4_closed on this module (as the layer
    tracer in perfbench/tracing.py does) reaches every caller.
    """
    return {3: det3_closed, 4: det4_closed}.get(n)
