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
  products and |V|^2, and are then multiplied as Python complex numbers,
  so every group is bit-equal to its scalar evaluation.

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

from .linalg import DimensionError, Spectrum, UnitaryMatrix, _cmul, _complex, _ksum, det

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


def commutator_matrix(inp):
    """The full commutator D V D' V^+ - V D' V^+ D, built entrywise.

    Entry (i, j) is (a_i - a_j) * sum_k b_k (V[i,k] conj(V[j,k])), with the
    k-sum accumulated in ascending order.  The bracketed products are the
    row products of V^T, so u[j, i] == -conj(u[i, j]) holds exactly in
    floating point, not just in exact arithmetic.
    """
    a = np.array(inp.a.values)
    b = np.array(inp.b.values)[:, None, None]
    # term k of entry (i, j) is b_k c[k, i, j], c[k, i, j] = V[i,k] conj(V[j,k])
    tr, ti = _cmul(b, 0.0, *inp.v.column_products)
    return _complex(*_cmul(a[:, None] - a[None, :], 0.0, _ksum(tr), _ksum(ti)))


def det_direct(inp):
    """Determinant of the commutator, evaluated directly.  The oracle."""
    return det(commutator_matrix(inp))


def det3_closed(inp):
    """Closed form for n = 3: 2i T B im(12;12)."""
    if inp.n != 3:
        raise DimensionError(f"det3_closed requires n=3, got n={inp.n}")
    a = inp.a.values
    b = inp.b.values
    t = (a[0] - a[1]) * (a[1] - a[2]) * (a[2] - a[0])
    bb = (b[0] - b[1]) * (b[1] - b[2]) * (b[2] - b[0])
    return 2j * (t * bb * float(inp.v.plaquettes[1][0, 1, 0, 1]))


#: index content of the squared-pair and 4-cycle factors
PAIRINGS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
CYCLES = ((1, 2, 4, 3), (1, 3, 2, 4), (1, 2, 3, 4))


@dataclass(frozen=True)
class TFactors:
    """Eigenvalue-difference factors of a 4-value spectrum.

    pair[g]  = (s_i - s_j)^2 (s_k - s_l)^2 for ((i,j),(k,l)) = PAIRINGS[g]
               (always >= 0)
    cycle[g] = (s_i - s_j)(s_j - s_k)(s_k - s_l)(s_l - s_i) for
               (i,j,k,l) = CYCLES[g]

    The three pair factors minus twice the three cycle factors sum to zero;
    sum_rule_residual exposes that combination for testing.
    """

    pair: tuple
    cycle: tuple

    def sum_rule_residual(self):
        """Signed value of pair-sum minus twice the cycle-sum (zero exactly)."""
        return sum(self.pair) - 2.0 * sum(self.cycle)

    def sum_rule_scale(self):
        """Sum of absolute term magnitudes, for relative residual checks."""
        return sum(abs(x) for x in self.pair) + sum(2.0 * abs(x) for x in self.cycle)


def t_factors(s):
    """All pair and cycle difference factors of a 4-value spectrum."""
    if s.n != 4:
        raise DimensionError(f"difference factors require n=4, got n={s.n}")
    v = [None, *s.values]  # 1-based, as in PAIRINGS and CYCLES
    pair = tuple(
        ((v[i] - v[j]) * (v[i] - v[j])) * ((v[k] - v[l]) * (v[k] - v[l]))
        for (i, j), (k, l) in PAIRINGS
    )
    cycle = tuple(
        (v[i] - v[j]) * (v[j] - v[k]) * (v[k] - v[l]) * (v[l] - v[i])
        for (i, j, k, l) in CYCLES
    )
    return TFactors(pair=pair, cycle=cycle)


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
#   mp[g]   = sum bw[k] (|V[r,k]|^2 + |V[s,k]|^2), r, s = _CYCLE_ROWS[:][g]
# In DET4_GROUPS order, with the T factors of the a-spectrum:
#   pair g   = T (q[g] m2[r] - q[i] q[j] - q[g] m[r]^2), r from _PAIR_ROW,
#              (i, j) from _PAIR_QQ
#   cycle3 g = -2T x[a] x[b] x2[c], cycle4 g = 2T x[a] x[b] x[c] mp[g],
#              (a, b, c) from _CYCLE_X

#: flat positions of [ab; k1 k2] in the plaquette tensor; row 3 k1 + k2,
#: column f
_Q_TAKE = np.array([[64 * a + 16 * b + 4 * k1 + k2 for a, b in ((0, 1), (0, 2), (1, 2))]
                    for k1 in range(3) for k2 in range(3)])
_PAIR_ROW = (2, 1, 0)
_PAIR_QQ = ((1, 2), (0, 2), (0, 1))
#: x31 x12 x23, x13 x32 x21, x12 x23 x31
_CYCLE_X = ((6, 1, 5), (2, 7, 3), (1, 5, 6))
_CYCLE_ROWS = ((1, 0, 0), (2, 1, 2))


def _complexes(re, im):
    return [complex(r, i) for r, i in zip(re, im)]


def _det4_groups(inp):
    """The nine term groups of det4_closed and the six raw cycle groups.

    Returns (parts, cycles): parts lists the nine group values in
    DET4_GROUPS order, each cycle group with only its real part kept;
    cycles lists the (weight, raw) pairs of the six cycle groups.  Every
    3-term sum over k comes from one of two batched _ksum passes; the
    products of those sums are scalar complex arithmetic.
    """
    b = inp.b.values
    bw = [b[k] - b[3] for k in range(3)]
    # |V|^2 by CPython's abs(z) ** 2, whose bits differ from np.abs(V) ** 2
    rows = np.array([[abs(z) ** 2 for z in row] for row in inp.v.matrix[:3, :3].T.tolist()])
    cr, ci = inp.v.column_products
    # one pass over k with weights [bw, bw^2]; items: the nine column
    # products, the three |V|^2 rows and the cycle4 row-pair sums.  These
    # sums are spelled out term by term, so they start from -0.0.
    pairs = rows[:, _CYCLE_ROWS[0]] + rows[:, _CYCLE_ROWS[1]]
    items_r = np.concatenate([cr[:3, :3, :3].reshape(3, 9), rows, pairs], axis=1)
    items_i = np.concatenate([ci[:3, :3, :3].reshape(3, 9), np.zeros((3, 6))], axis=1)
    w = np.array([(d, d * d) for d in bw])[:, :, None]
    terms = _cmul(w, 0.0, items_r[:, None], items_i[:, None])
    sr, si = _ksum(np.stack(terms, axis=1), -0.0).tolist()
    x, x2 = _complexes(sr[0][:9], si[0][:9]), _complexes(sr[1][:9], si[1][:9])
    m, m2, mp = sr[0][9:12], sr[1][9:12], sr[0][12:]
    # the plaquette forms: 9 terms over (k1, k2), k2 innermost
    ww = np.array([d1 * d2 for d1 in bw for d2 in bw])[:, None]
    p = (t.take(_Q_TAKE) for t in inp.v.plaquettes)
    q = _complexes(*_ksum(np.stack(_cmul(ww, 0.0, *p), axis=1)).tolist())

    tf = t_factors(inp.a)
    parts = [
        t * (q[g] * m2[r] - q[i] * q[j] - q[g] * (m[r] * m[r]))
        for g, (t, r, (i, j)) in enumerate(zip(tf.pair, _PAIR_ROW, _PAIR_QQ))
    ]
    cycles = [(-2.0 * t, x[a] * x[b] * x2[c])
              for t, (a, b, c) in zip(tf.cycle, _CYCLE_X)]
    cycles += [(2.0 * t, x[a] * x[b] * x[c] * s)
               for t, (a, b, c), s in zip(tf.cycle, _CYCLE_X, mp)]
    parts += [complex(weight * raw.real, 0.0) for weight, raw in cycles]
    return parts, cycles


def cycle_groups(inp):
    """The six cycle groups of det4_closed before their real part is taken.

    Returns {name: (weight, raw)} in DET4_GROUPS order, where raw is the
    complex sum over one orientation of the 3-cycle and weight its factor
    -2 T_(ijkl) (cycle3) or +2 T_(ijkl) (cycle4).  decompose_det4 reports
    weight * raw.real for each; weight * raw keeps the imaginary part that
    the expansion discards (see the module docstring).
    """
    _check_n4(inp)
    return dict(zip(DET4_GROUPS[3:], _det4_groups(inp)[1]))


def decompose_det4(inp):
    """The nine term groups of det4_closed, in DET4_GROUPS order.

    Pair groups are complex sums whose imaginary parts cancel to roundoff;
    cycle groups carry only the real part of their orientation sum (see the
    module docstring).  The values sum, in dict order, to exactly the value
    det4_closed returns.
    """
    _check_n4(inp)
    return dict(zip(DET4_GROUPS, _det4_groups(inp)[0]))


def det4_closed(inp):
    """Closed form for n = 4: the nine term groups summed in fixed order.

    Returns a complex number whose imaginary part is a pure roundoff
    residue of the pair groups; its real part is the determinant.
    """
    _check_n4(inp)
    return _ksum(_det4_groups(inp)[0])


def closed_form(n):
    """The closed-form evaluation for dimension n, or None if n has none.

    The function is looked up at each call rather than stored in a table,
    so rebinding det3_closed/det4_closed on this module (as the layer
    tracer in perfbench/tracing.py does) reaches every caller.
    """
    return {3: det3_closed, 4: det4_closed}.get(n)
