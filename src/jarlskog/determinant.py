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
  V[i,k] conj(V[j,k]) come from the same split real/imaginary kernel as the
  plaquettes (linalg._row_products, applied to V^T), so every entry is
  bit-equal to its scalar complex evaluation.
* det3_closed (n = 3): 2i T B im(12;12) with T, B the cyclic products of
  eigenvalue differences, im(12;12) read from the plaquette tensor.
* det4_closed (n = 4): the expanded closed form in which the fourth column
  of V has been eliminated through unitarity.  Nine term groups survive,
  weighted by squared-pair factors T_(ij)(kl) and 4-cycle factors T_(ijkl)
  of the a-spectrum; the b-spectrum enters only through the differences
  b_k - b_4.  Its plaquettes and column products are read from the same
  kernel; only the 3-term sums over k are scalar code.

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

from .linalg import DimensionError, Spectrum, UnitaryMatrix, _cmul, _row_products, det
from .phases import PlaquetteIndex, im_phase

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


def _complex(re, im):
    """Complex array with exactly the given real and imaginary parts."""
    out = re.astype(np.complex128)
    out.imag = im
    return out


def commutator_matrix(inp):
    """The full commutator D V D' V^+ - V D' V^+ D, built entrywise.

    Entry (i, j) is (a_i - a_j) * sum_k b_k (V[i,k] conj(V[j,k])), with the
    k-sum accumulated in ascending order.  The bracketed products are the
    row products of V^T, so u[j, i] == -conj(u[i, j]) holds exactly in
    floating point, not just in exact arithmetic.
    """
    a = np.array(inp.a.values)
    b = np.array(inp.b.values)[:, None, None]
    # term k of entry (i, j) is b_k x[k, i, j], x[k, i, j] = V[i,k] conj(V[j,k])
    tr, ti = _cmul(b, 0.0, *_row_products(inp.v.matrix.T))
    acc_r = acc_i = np.zeros((inp.n, inp.n))
    for k in range(inp.n):
        acc_r, acc_i = acc_r + tr[k], acc_i + ti[k]
    return _complex(*_cmul(a[:, None] - a[None, :], 0.0, acc_r, acc_i))


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
    return 2j * (t * bb * im_phase(inp.v, PlaquetteIndex(1, 2, 1, 2)))


#: index content of the squared-pair and 4-cycle factors
PAIRINGS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
CYCLES = ((1, 2, 4, 3), (1, 3, 2, 4), (1, 2, 3, 4))


@dataclass(frozen=True)
class TFactors:
    """Eigenvalue-difference factors of a 4-value spectrum.

    pair[((i,j),(k,l))] = (s_i - s_j)^2 (s_k - s_l)^2  (always >= 0)
    cycle[(i,j,k,l)]    = (s_i - s_j)(s_j - s_k)(s_k - s_l)(s_l - s_i)

    The three pair factors minus twice the three cycle factors sum to zero;
    sum_rule_residual exposes that combination for testing.
    """

    pair: dict
    cycle: dict

    def sum_rule_residual(self):
        """Signed value of pair-sum minus twice the cycle-sum (zero exactly)."""
        return sum(self.pair.values()) - 2.0 * sum(self.cycle.values())

    def sum_rule_scale(self):
        """Sum of absolute term magnitudes, for relative residual checks."""
        return sum(abs(x) for x in self.pair.values()) + sum(
            2.0 * abs(x) for x in self.cycle.values()
        )


def t_factors(s):
    """All pair and cycle difference factors of a 4-value spectrum."""
    if s.n != 4:
        raise DimensionError(f"difference factors require n=4, got n={s.n}")
    v = s.values
    pair = {}
    for (i, j), (k, l) in PAIRINGS:
        d1 = v[i - 1] - v[j - 1]
        d2 = v[k - 1] - v[l - 1]
        pair[((i, j), (k, l))] = (d1 * d1) * (d2 * d2)
    cycle = {}
    for (i, j, k, l) in CYCLES:
        cycle[(i, j, k, l)] = (
            (v[i - 1] - v[j - 1])
            * (v[j - 1] - v[k - 1])
            * (v[k - 1] - v[l - 1])
            * (v[l - 1] - v[i - 1])
        )
    return TFactors(pair=pair, cycle=cycle)


def _det4_pieces(inp):
    """Scalar tables used by the nine term groups of det4_closed.

    Returns (bw, q, x, mod2):
      bw[k]      = b_k - b_4                       (k = 0..2)
      q[(a,b)]   = 3x3 nested list of plaquettes [ab; j k] over columns 1..3,
                   read from UnitaryMatrix.plaquettes
      x[(a,b)]   = column products V[a,k] conj(V[b,k]) for k = 0..2, the
                   row products of V^T
      mod2[r][k] = |V[r+1, k+1]|^2 for rows/columns 1..3
    """
    b = inp.b.values
    v = inp.v.matrix
    bw = [b[k] - b[3] for k in range(3)]
    p = _complex(*inp.v.plaquettes)[:3, :3, :3, :3]
    q = {(a, bb): p[a - 1, bb - 1].tolist() for (a, bb) in ((1, 2), (1, 3), (2, 3))}
    xt = _complex(*_row_products(v.T))[:3, :3, :3]
    x = {(a, bb): xt[:, a - 1, bb - 1].tolist()
         for a in (1, 2, 3) for bb in (1, 2, 3) if a != bb}
    mod2 = tuple(
        tuple(float(abs(v[r, k]) ** 2) for k in range(3)) for r in range(3)
    )
    return bw, q, x, mod2


# The multi-index sums below all factorise exactly: every summand is a
# product of factors that each depend on a single summation index, so a sum
# over (k1, .., k4) is a product of independent 3-term sums.  Each helper
# accumulates its 3-term sums in ascending k, which fixes the evaluation
# order completely.


def _wsum(bw, x):
    """sum_k bw[k] x[k]."""
    return bw[0] * x[0] + bw[1] * x[1] + bw[2] * x[2]


def _w2sum(bw, x):
    """sum_k bw[k]^2 x[k]."""
    return (bw[0] * bw[0]) * x[0] + (bw[1] * bw[1]) * x[1] + (bw[2] * bw[2]) * x[2]


def _qform(bw, q):
    """sum_{k1,k2} bw[k1] bw[k2] q[k1][k2], k2 innermost."""
    acc = 0j
    for k1 in range(3):
        for k2 in range(3):
            acc += (bw[k1] * bw[k2]) * q[k1][k2]
    return acc


def _sum3_pair(bw, q, mrow):
    """sum_{k1,k2,k3} bw1 bw2 bw3^2 q[k1][k2] mrow[k3]."""
    return _qform(bw, q) * _w2sum(bw, mrow)


def _sum4_pair_pair(bw, qx, qy):
    """sum over k1..k4 of bw1 bw2 bw3 bw4 qx[k1][k2] qy[k3][k4]."""
    return _qform(bw, qx) * _qform(bw, qy)


def _sum4_pair_mod(bw, q, mrow):
    """sum over k1..k4 of bw1 bw2 bw3 bw4 q[k1][k2] mrow[k3] mrow[k4]."""
    wm = _wsum(bw, mrow)
    return _qform(bw, q) * (wm * wm)


def _sum3_cycle(bw, xa, xb, xc):
    """sum_{k1,k2,k3} bw1 bw2 bw3^2 xa[k1] xb[k2] xc[k3]."""
    return _wsum(bw, xa) * _wsum(bw, xb) * _w2sum(bw, xc)


def _sum4_cycle(bw, xa, xb, xc, mweights):
    """sum over k1..k4 of bw1 bw2 bw3 bw4 xa[k1] xb[k2] xc[k3] mweights[k4]."""
    return _wsum(bw, xa) * _wsum(bw, xb) * _wsum(bw, xc) * _wsum(bw, mweights)


def _check_n4(inp):
    if inp.n != 4:
        raise DimensionError(f"the four-level closed form requires n=4, got n={inp.n}")


def _cycle_groups(tf, bw, x, mod2):
    m1, m2, m3 = mod2
    cyc312 = (x[(3, 1)], x[(1, 2)], x[(2, 3)])
    cyc132 = (x[(1, 3)], x[(3, 2)], x[(2, 1)])
    cyc123 = (x[(1, 2)], x[(2, 3)], x[(3, 1)])
    m23 = tuple(m2[k] + m3[k] for k in range(3))
    m12 = tuple(m1[k] + m2[k] for k in range(3))
    m13 = tuple(m1[k] + m3[k] for k in range(3))
    t1243 = tf.cycle[(1, 2, 4, 3)]
    t1324 = tf.cycle[(1, 3, 2, 4)]
    t1234 = tf.cycle[(1, 2, 3, 4)]
    return {
        "cycle3_1243": (-2.0 * t1243, _sum3_cycle(bw, *cyc312)),
        "cycle3_1324": (-2.0 * t1324, _sum3_cycle(bw, *cyc132)),
        "cycle3_1234": (-2.0 * t1234, _sum3_cycle(bw, *cyc123)),
        "cycle4_1243": (2.0 * t1243, _sum4_cycle(bw, *cyc312, m23)),
        "cycle4_1324": (2.0 * t1324, _sum4_cycle(bw, *cyc132, m12)),
        "cycle4_1234": (2.0 * t1234, _sum4_cycle(bw, *cyc123, m13)),
    }


def cycle_groups(inp):
    """The six cycle groups of det4_closed before their real part is taken.

    Returns {name: (weight, raw)} in DET4_GROUPS order, where raw is the
    complex sum over one orientation of the 3-cycle and weight its factor
    -2 T_(ijkl) (cycle3) or +2 T_(ijkl) (cycle4).  decompose_det4 reports
    weight * raw.real for each; weight * raw keeps the imaginary part that
    the expansion discards (see the module docstring).
    """
    _check_n4(inp)
    bw, _, x, mod2 = _det4_pieces(inp)
    return _cycle_groups(t_factors(inp.a), bw, x, mod2)


def decompose_det4(inp):
    """The nine term groups of det4_closed, in DET4_GROUPS order.

    Pair groups are complex sums whose imaginary parts cancel to roundoff;
    cycle groups carry only the real part of their orientation sum (see the
    module docstring).  The values sum, in dict order, to exactly the value
    det4_closed returns.
    """
    _check_n4(inp)
    tf = t_factors(inp.a)
    bw, q, x, mod2 = _det4_pieces(inp)
    m1, m2, m3 = mod2
    q12, q13, q23 = q[(1, 2)], q[(1, 3)], q[(2, 3)]

    t12_34 = tf.pair[((1, 2), (3, 4))]
    t13_24 = tf.pair[((1, 3), (2, 4))]
    t14_23 = tf.pair[((1, 4), (2, 3))]

    parts = {}
    parts["pair_12_34"] = t12_34 * (
        _sum3_pair(bw, q12, m3)
        - _sum4_pair_pair(bw, q13, q23)
        - _sum4_pair_mod(bw, q12, m3)
    )
    parts["pair_13_24"] = t13_24 * (
        _sum3_pair(bw, q13, m2)
        - _sum4_pair_pair(bw, q12, q23)
        - _sum4_pair_mod(bw, q13, m2)
    )
    parts["pair_14_23"] = t14_23 * (
        _sum3_pair(bw, q23, m1)
        - _sum4_pair_pair(bw, q12, q13)
        - _sum4_pair_mod(bw, q23, m1)
    )
    for name, (weight, raw) in _cycle_groups(tf, bw, x, mod2).items():
        parts[name] = complex(weight * raw.real, 0.0)
    return parts


def det4_closed(inp):
    """Closed form for n = 4: the nine term groups summed in fixed order.

    Returns a complex number whose imaginary part is a pure roundoff
    residue of the pair groups; its real part is the determinant.
    """
    parts = decompose_det4(inp)
    acc = 0j
    for name in DET4_GROUPS:
        acc += parts[name]
    return acc
