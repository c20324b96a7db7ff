"""Rephasing-invariant phases of a unitary mixing matrix.

The basic object is the plaquette product

    V[alpha, j] * conj(V[alpha, k]) * V[beta, k] * conj(V[beta, j])

whose imaginary part im(alpha beta; j k) and real part re(alpha beta; j k)
are unchanged when rows and columns of V are multiplied by phases.

The phases have one representation: the plaquette store of
linalg._validate_unitaries, one column per unordered operand pair, with the
canonical entries alpha < beta, j < k first.  A stack of T matrices holds
it in one (2, K, T) array, re then im, with the trials on the last axis, and
that array is the one argument of every reader: phase_table (a slice, n in
{3, 4}), jr_matrices (one take) and unitary_relation_residuals and
nonlinear_relation_residuals (each one gather of a table of store rows,
each row the T trials of one column).  Readers take their entries through
index tables composed with the layout's map of the n^4 index orders to the
columns (linalg._plaquette_layout).  n3_phase_table and expansion_residual
run on phase_table's slice, expand_phases on J; every array they take or
give keeps the trials last too.  UnitaryMatrix.plaquettes is the (2, K)
store of one matrix, and v.plaquettes[..., None] its stack of one.
verify runs the readers on a chunk, the `phases` report on a stack of one
(reconstruct_J is its one single-matrix entry point).

Exactness note: the store evaluates the grouping
(V[a,j] conj(V[a,k])) * (V[b,k] conj(V[b,j])) with the operations of a
scalar complex product on separate real and imaginary float arrays.  Entry
(b a; k j) multiplies the same operands as (a b; j k) in the other order,
and IEEE * and + commute, so one column holds both bit for bit.  With that
grouping im is bitwise antisymmetric and re bitwise symmetric under
alpha<->beta or j<->k, and im is exactly zero at alpha == beta or j == k.
The columns of swapped and diagonal entries are evaluated from their own
operands, not assumed, so verify's phase_antisymmetry_bitwise row checks
these properties on the values every reader takes.

For n = 4 the 36 independent imaginary parts are generated by the 3x3 array
J of adjacent-index phases J[a, j] = im(a, a+1; j, j+1) together with the
fixed integer matrix A below: non-adjacent column pairs come from J A (with
column pairs ordered (24), (14), (13)), non-adjacent row pairs from A J
(same ordering for rows), and doubly non-adjacent entries from A J A.  The
orientation of those orderings is validated numerically in the test suite
rather than trusted.

The four product identities are evaluated only at the index tuples whose
residual can be nonzero and can differ from every earlier tuple's
(_product_table).  Each term of a residual gets one signed code from the
bitwise symmetries above: the pair of canonical entries it multiplies and
its sign, 0 for a factor im(aa;jk) or im(ab;jj) (_kept_columns).  A tuple
is dropped when its residual is exactly 0 by those symmetries, or when an
earlier tuple has the same codes up to exchanging the first two terms and
negating all three, which gives the same bits of |residual|; so the maximum
over the kept tuples is the maximum over every tuple
(nonlinear_relation_residuals gives the argument).  The table keeps 564 of
the 10240 tuples at n = 4 and 90 of 1944 at n = 3.

The sum rules take the same route (_sum_rule_table): of the 8 n^3 sums of
the four index choices they add only the alpha sums at j < k (im) or
j <= k (re) and the j sums at alpha < beta (im) or alpha <= beta (re), 54
of 216 at n = 3 and 128 of 512 at n = 4.  Each other sum adds exact zeros
or repeats a kept sum's terms, negated or not, in the same order
(unitary_relation_residuals gives the argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (MAX_DIM, MIN_DIM, DimensionError, _ksum, _moduli_squared,
                     _plaquette_layout)

#: fixed integer mixing matrix for expanding adjacent-index phases
A_MATRIX = np.array([[1, -1, 0], [-1, 1, -1], [0, -1, 1]], dtype=float)

#: column/row-pair ordering of the expanded blocks for non-adjacent pairs
_ADJACENT_ORDER = ((1, 2), (2, 3), (3, 4))
_NON_ADJACENT_ORDER = ((2, 4), (1, 4), (1, 3))

#: determinant cancellation ratio below which the band reconstruction refuses to solve
RECONSTRUCTION_GATE = 1e-8


def _canonical_pairs(n):
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _check_plaquettes(x, dims=range(MIN_DIM, MAX_DIM + 1), what="not a plaquette store"):
    """n, if the next to last axis of x, the one before the trials, holds the
    K = n^2 (n^2 + 1) / 2 columns of a plaquette store for an n in dims
    (8 K + 1 = (2 n^2 + 1)^2); else DimensionError."""
    k = x.shape[-2] if x.ndim > 1 else 0
    n = math.isqrt(math.isqrt(8 * k + 1) // 2)
    if n not in dims or k != n * n * (n * n + 1) // 2:
        raise DimensionError(f"{what}, got plaquettes of shape {x.shape}")
    return n


def phase_table(x):
    """The canonical entries alpha < beta, j < k of (..., K, T) plaquette
    stores, n in {3, 4}: the (..., 9, T) or (..., 36, T) block that the
    store holds first, row pairs outer and column pairs inner, both as
    listed by _canonical_pairs(n).  A view; DimensionError for any other
    store."""
    n = _check_plaquettes(x, (3, 4), "phase tables are defined for n in {3, 4}")
    return x[..., :(n * (n - 1) // 2) ** 2, :]


#: the sum rules' families, in the order of unitary_relation_residuals
_SUM_RULE_FAMILIES = tuple(f"{part}_{name}" for part in ("im", "re")
                           for name in ("row_alpha", "row_beta", "col_j", "col_k"))
#: the kept sums each family reads, in the order of _sum_rule_table's
#: families: alpha for alpha and beta, j for j and k
_SUM_RULE_SOURCES = np.array([0, 0, 1, 1, 2, 2, 3, 3])


@lru_cache(maxsize=None)
def _sum_rule_table(n):
    """The evaluation table of the sum rules for n x n matrices, built on
    first use.

    Returns (index, starts).  index is a read-only (n + 1, S) array that
    unitary_relation_residuals gathers by: column s holds, in its first n
    rows, the rows of the (2 K, T) store, re then im, that hold the n terms
    of sum s, in ascending summed index, and in its last row the row of its
    target in the (n^2 + 1, T) array [|V|^2; 0] (the flat squared moduli and
    one row of +0.0): a |V[c, l]|^2 entry or the +0.0 row.  The families
    follow each other, each in flat order of its free indices:
      - im over alpha at (beta, j < k);
      - im over j at (alpha < beta, k);
      - re over alpha at (beta, j <= k), target delta_jk |V[beta, j]|^2;
      - re over j at (alpha <= beta, k), target delta_ab |V[alpha, k]|^2;
    family f owns the columns from starts[f] up to the next start.  That
    is n C(n, 2) sums of each im family and n C(n + 1, 2) of each re
    family: 9, 9, 18, 18 at n = 3 and 24, 24, 40, 40 at n = 4.
    """
    at = _plaquette_layout(n)[1].reshape((n,) * 4)
    im, zero = n * n * (n * n + 1) // 2, n * n
    r = range(n)
    families = (
        [[im + at[x, b, j, k] for x in r] + [zero] for b in r for j in r for k in r[j + 1:]],
        [[im + at[a, b, x, k] for x in r] + [zero] for a in r for b in r[a + 1:] for k in r],
        [[at[x, b, j, k] for x in r] + [b * n + j if j == k else zero]
         for b in r for j in r for k in r[j:]],
        [[at[a, b, x, k] for x in r] + [a * n + k if a == b else zero]
         for a in r for b in r[a:] for k in r],
    )
    # C order, since take copies an index array of any other layout first
    index = np.array(sum(families, [])).T.copy()
    starts = np.cumsum([0] + [len(f) for f in families[:-1]])
    for x in (index, starts):
        x.setflags(write=False)
    return index, starts


def unitary_relation_residuals(cols, plaq):
    """{family: (T,) max residual} of the eight sum rules, for the column
    products and the plaquette stores of (T, n, n) matrices, the latter as
    one (2, K, T) array of re and im (linalg._validate_unitaries).

    Summing a plaquette's imaginary part over either full row index or
    either full column index gives zero; the same sums of the real part
    give delta-weighted squared moduli.  Families are keyed by the summed
    index: im_row_alpha means sum over alpha at fixed (beta, j, k), etc.

    The table (_sum_rule_table) evaluates |sum - target| only at the sums
    that can be nonzero and can differ from every other sum's bits: the
    alpha sums at j < k (im) or j <= k (re), the j sums at alpha < beta
    (im) or alpha <= beta (re).  Each is added in ascending index order by
    one _ksum over the leading axis of the gather, then its target is
    subtracted (x - +0.0 is x).  That gives the maximum over every sum of
    all four index choices, bit for bit, wherever verify's
    phase_antisymmetry_bitwise row passes on the same store: im is then
    bitwise antisymmetric and re bitwise symmetric under alpha<->beta and
    under j<->k, up to the sign of a zero, and im(ab;jj) and im(aa;jk) are
    zeros.  A dropped sum is
      - an im sum at j = k (over alpha) or alpha = beta (over j): a sum of
        zeros, which IEEE + gives as +/-0, so |residual| is +0.0;
      - an alpha sum at j > k, or a j sum at alpha > beta: term by term and
        in the same order the kept sum at the swapped pair, negated (im) or
        equal (re), with the same target, since delta is symmetric; IEEE +
        commutes exactly with negation, so |residual| has the kept bits;
      - a beta or k family's sum: sum_x im(a x; j k) = -sum_x im(x a; j k)
        and sum_x im(a b; j x) = -sum_x im(a b; x j) (re alike, unnegated),
        the alpha family at (a, j, k) and the j family at (a, b, j) by the
        same argument, with the same targets (delta_jk |V[a, j]|^2 and
        delta_ab |V[a, j]|^2); so each swapped family has its partner's
        maximum, and the table evaluates it once.
    The sign of a zero changes no bit of |residual|.
    """
    n, t = cols[0].shape[0], plaq.shape[-1]
    index, starts = _sum_rule_table(n)
    # each gathered row holds the T trials of one store column
    sums = _ksum(plaq.reshape(-1, t).take(index[:n], axis=0))
    targets = np.concatenate([_moduli_squared(cols).reshape(n * n, t), np.zeros((1, t))])
    np.subtract(sums, targets.take(index[n], axis=0), out=sums)
    worst = np.maximum.reduceat(np.abs(sums, out=sums), starts)
    # alpha, beta, j, k of im, then of re
    return dict(zip(_SUM_RULE_FAMILIES, worst.take(_SUM_RULE_SOURCES, axis=0)))


#: sign of each canonical three-level phase as a multiple of im(12;12), in
#: table order: (12;12), (12;13), (12;23), (13;12), ..., (23;23)
N3_SIGN_PATTERN = (+1, -1, +1, -1, +1, -1, +1, -1, +1)

#: below this, the base phase is treated as zero and signs are indeterminate
_N3_DEGENERATE_TOL = 1e-12


def n3_phase_table(ims):
    """The n = 3 sign table of the (9, T) canonical imaginary phases that
    phase_table slices from (45, T) plaquette stores: all nine are +/- the
    single base phase im(12;12), the first of them.

    Returns (base, signs, residuals, indeterminate): base (T,), signs and
    residuals (9, T) in table order, as N3_SIGN_PATTERN, and indeterminate
    (T,).  signs holds +1/-1 and residuals |value - sign * base|; where the
    base phase is zero (indeterminate) the residuals are |value| and the
    signs carry no meaning.
    """
    if ims.shape[0] != 9:
        raise DimensionError("single-phase structure requires n=3, got a table of "
                             f"{ims.shape[0]} phases")
    base = ims[0]
    minus, plus = np.abs(ims - base), np.abs(ims + base)
    positive, indeterminate = minus <= plus, np.abs(base) <= _N3_DEGENERATE_TOL
    residuals = np.where(indeterminate, np.abs(ims), np.where(positive, minus, plus))
    return base, np.where(positive, 1, -1), residuals, indeterminate


#: store columns of (a, a+1; j, j+1) as the 3x3 of J, all in the canonical block
_ADJACENT = [_canonical_pairs(4).index(p) for p in _ADJACENT_ORDER]
_JR_INDEX = np.array([[6 * r + c for c in _ADJACENT] for r in _ADJACENT])


def jr_matrices(plaq):
    """The adjacent-index phase arrays (J, R) of the (2, K, T) plaquette
    store of (T, 4, 4) matrices, each (3, 3, T): J[a, j] (0-based) holds
    im(a+1, a+2; j+1, j+2) and R the matching real parts.

    One take of _JR_INDEX.  Raises DimensionError unless plaq holds the
    store of n = 4."""
    _check_plaquettes(plaq, (4,), "adjacent-index arrays require n=4")
    r, j = plaq.take(_JR_INDEX, axis=1)
    return j, r


#: the 6x6 expansion block's rows and columns run over the adjacent pairs,
#: then the non-adjacent ones; its flat positions of the canonical entries,
#: in table order
_PAIR_ORDER = [(_ADJACENT_ORDER + _NON_ADJACENT_ORDER).index(p) for p in _canonical_pairs(4)]
_BLOCK_ORDER = np.array([6 * r + c for r in _PAIR_ORDER for c in _PAIR_ORDER])


def expand_phases(j):
    """All 36 canonical imaginary phases of 4x4 unitaries from J alone: a
    (36, T) array in table order from (3, 3, T) J.

    Blocks: adjacent/adjacent entries are J itself; adjacent rows with
    non-adjacent columns are J A; non-adjacent rows with adjacent columns
    are A J; doubly non-adjacent entries are A J A.  Non-adjacent pairs are
    ordered (24), (14), (13) in both directions.
    """
    # block column [J; A J] and, right-multiplied by A, [J A; A J A]; each
    # product x y is the ascending k-sum of x[i, k] y[k, j]
    left = np.concatenate([j, _ksum(A_MATRIX.T[:, :, None, None] * j[:, None])])
    right = _ksum(left[:, :, None] * A_MATRIX[:, :, None], axis=1)
    return np.concatenate([left, right], axis=1).reshape(36, -1).take(_BLOCK_ORDER, axis=0)


def expansion_residual(direct, expanded):
    """Largest |expanded - direct| over the canonical imaginary phases, for
    the direct phase_table entries and the expand_phases entries: (T,)
    from two (36, T) arrays."""
    return np.maximum.reduce(np.abs(expanded - direct), axis=0)


#: the product identities as residuals t1 +/- t2 - t3 over their free
#: indices
_PRODUCT_IDENTITIES = {
    "mixed_same_rows": ("re(ab;jk) im(ab;kl) + re(ab;kl) im(ab;jk) - re(ab;kk) im(ab;jl)",
                        "abjkl"),
    "mixed_same_cols": ("re(ab;jk) im(bg;jk) + im(ab;jk) re(bg;jk) - re(bb;jk) im(ag;jk)",
                        "abgjk"),
    "product_same_rows": ("re(ab;jk) re(ab;lm) - re(ab;jm) re(ab;kl) - im(ab;jl) im(ab;km)",
                          "abjklm"),
    "product_same_cols": ("re(ab;jk) re(gd;jk) - re(ad;jk) re(bg;jk) - im(ag;jk) im(bd;jk)",
                          "abgdjk"),
}


def _factor_positions(n, formula, reps):
    """The (6, R) positions of the factors of t1, t2, t3 of `formula` at the
    index tuples reps ({free index: (R,) array}) in the re store followed by
    the im store: rows 0-2 hold the first factors of t1, t2, t3 and rows 3-5
    the second ones."""
    terms, columns = formula.split(), _plaquette_layout(n)[1]
    return np.array([
        columns.take(np.ravel_multi_index([reps[c] for c in f[3:5] + f[6:8]], (n,) * 4))
        + (columns.size + n * n) // 2 * f.startswith("im")
        for f in terms[0:8:3] + terms[1:8:3]])


def _kept_columns(n, columns, combine):
    """(R,) mask of the (6, R) factor positions whose residual
    (t1 combine t2) - t3 the product table evaluates, decided from the
    positions alone.

    Each factor is keyed by the kernel's bitwise symmetries: store column c
    and its partner p (linalg._plaquette_layout) hold one value, re alike
    and im with the sign of p - c, 0 where c is its own partner (a = b or
    j = k); the key is the lesser of the two.  Each term gets one code, the
    product of its factors' signs times (the unordered pair of their keys
    + 1), with the combine sign folded into t2's code and the minus into
    t3's: codes x, y, w of a residual |(x + y) + w|.  A column is dropped
    when one of its codes is 0 and the three sum to 0, a residual that is
    exactly 0, or when an earlier column has the same codes up to
    exchanging x with y and negating all three, a residual with the same
    bits (nonlinear_relation_residuals gives the argument).
    """
    partners = _plaquette_layout(n)[2]
    k = np.arange(partners.size)
    keys = np.concatenate([np.minimum(k, partners), np.minimum(k, partners) + k.size])
    signs = np.concatenate([np.ones_like(k), np.sign(partners - k)])
    # one term at a time: (6, R) gathers of keys and signs would raise the
    # build's peak memory above that of the (6, R) positions themselves
    x, y, w = (fold * signs[p] * signs[q] * (np.minimum(keys[p], keys[q]) * (2 * k.size)
                                            + np.maximum(keys[p], keys[q]) + 1)
               for p, q, fold in zip(columns[:3], columns[3:],
                                     (1, 1 if combine is np.add else -1, -1)))
    vanish = ((x == 0) | (y == 0) | (w == 0)) & (x + y + w == 0)
    candidates = np.flatnonzero(~vanish)
    # a column's class as its least member: x <= y, and of the codes and
    # their negation the lexicographically lesser
    lo, hi, w = np.minimum(x, y)[candidates], np.maximum(x, y)[candidates], w[candidates]
    flip = (lo + hi > 0) | ((lo + hi == 0) & (w > 0))
    least = np.where(flip, [-hi, -lo, -w], [lo, hi, w])
    # the first column of each class, by the bytes of its least member: a
    # dict keeps the last value stored under a key, so the columns go in
    # last to first (a sort would page in numpy's integer sort code, about
    # 128 KB that no other path of a verify process touches)
    rows = np.ascontiguousarray(least.T[::-1]).view(f"V{3 * least.itemsize}")[:, 0]
    first = dict(zip(rows.tolist(), range(rows.size - 1, -1, -1)))
    kept = np.zeros(columns.shape[1], dtype=bool)
    kept[candidates[list(first.values())]] = True
    return kept


@lru_cache(maxsize=None)
def _product_table(n):
    """The evaluation table of the product identities for n x n matrices,
    built on first use from the index tuples alone.

    Returns (index, starts, combines).  index is a read-only (6, R) array
    of factor positions (_factor_positions): for each family in turn, the
    index tuples of its whole grid, in flat order, that _kept_columns
    keeps.  A family whose every residual vanishes (both mixed families at
    n = 2) keeps its first one, an exact 0, so that its maximum is 0.  The
    first half of a gather times its second half, written over the first
    half, gives t1, t2, t3 with no operand overlapping the output.  Family
    f owns the columns from starts[f] up to the next start, and
    combines[f] (np.add or np.subtract) joins its t1 and t2.
    """
    index, starts, combines = [], [], []
    for formula, free in _PRODUCT_IDENTITIES.values():
        grid = np.indices((n,) * len(free)).reshape(len(free), -1)
        combine = np.add if formula.split()[2] == "+" else np.subtract
        columns = _factor_positions(n, formula, dict(zip(free, grid)))
        kept = _kept_columns(n, columns, combine)
        kept[0] |= not kept.any()
        starts.append(sum(x.shape[1] for x in index))
        index.append(columns[:, kept])
        combines.append(combine)
    index = np.concatenate(index, axis=1)
    index.setflags(write=False)
    return index, tuple(starts), tuple(combines)


def nonlinear_relation_residuals(plaq):
    """{family: (T,) max residual} of the four product identity families
    for the (2, K, T) plaquette store of (T, n, n) matrices:

    mixed_same_rows:   re(ab;jk) im(ab;kl) + re(ab;kl) im(ab;jk)
                         = re(ab;kk) im(ab;jl)
    mixed_same_cols:   re(ab;jk) im(bg;jk) + re(bg;jk) im(ab;jk)
                         = re(bb;jk) im(ag;jk)
    product_same_rows: re(ab;jk) re(ab;lm) - re(ab;jm) re(ab;kl)
                         = im(ab;jl) im(ab;km)
    product_same_cols: re(ab;jk) re(gd;jk) - re(ad;jk) re(bg;jk)
                         = im(ag;jk) im(bd;jk)

    Each is an exact identity of any unitary matrix, and the residual is
    the maximum over every index tuple (repeats included).  The table
    (_product_table) evaluates |t1 +/- t2 - t3| only at the tuples that
    _kept_columns keeps, which gives that maximum bit for bit wherever
    verify's phase_antisymmetry_bitwise row passes on the same store.
    There every column is finite (an inf or a NaN fails that row), and each
    equals its partner (re) or its negation (im), or is a zero (im at a = b
    or j = k), up to the sign of a zero.  So each factor is its key
    column's entry times its sign, and a term of code c is
    sign(c) times the product of the two key columns that |c| names (IEEE
    * commutes and is exact under negation), or a signed zero if c = 0.
    With t2 and t3 negated as their codes say (x - y is x + -y exactly),
    the residual is |(x + y) + w| of the three terms, a function of the
    codes alone.  A dropped column is either
      - one with a zero code whose codes sum to 0: its residual is one of
        (0 + 0) + 0, (x + -x) + 0, (0 + x) + -x or (x + 0) + -x, each of
        which IEEE arithmetic gives as +/-0 exactly; or
      - one whose codes are a kept column's with x and y exchanged, all
        three negated, or both: IEEE + commutes and round-to-nearest is
        symmetric under negation, so its |residual| has the kept column's
        bits.
    The sign of a zero term changes no bit of |residual|.  At each kept
    column the operations are those of the evaluation over every tuple:
    multiply, combine t1 with t2, subtract t3, abs, then the max over the
    tuples.

    One (6, R, T) gather of the factors is the only large array: every
    later step writes into its first half (see _product_table for the row
    layout), so a chunk's transient memory is that one buffer.
    """
    index, starts, combines = _product_table(_check_plaquettes(plaq))
    # each gathered row holds the T trials of one store column
    factors = plaq.reshape(-1, plaq.shape[-1]).take(index, axis=0)
    t1, t2, t3 = np.multiply(factors[:3], factors[3:], out=factors[:3])
    for combine, lo, hi in zip(combines, starts, starts[1:] + (None,)):
        combine(t1[lo:hi], t2[lo:hi], out=t1[lo:hi])
    np.subtract(t1, t3, out=t1)
    worst = np.maximum.reduceat(np.abs(t1, out=t1), starts)
    return dict(zip(_PRODUCT_IDENTITIES, worst))


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of rebuilding J from its diagonal through the 6x6 band system.

    j and r are the directly computed (3, 3) J and R arrays the system was
    built from.  degenerate is True when the determinant's cancellation
    ratio fails the gate; then no solve is attempted and j_reconstructed is
    None.
    """

    j: np.ndarray
    r: np.ndarray
    j_reconstructed: np.ndarray | None
    gate_ratio: float
    degenerate: bool
    max_error: float | None


#: the band system's coefficients, one per row: a, b, -b and c of the six
#: equations (see _band_systems), each (atom P + atom Q) * atom S.  Atoms:
#: the squared modulus products q_ijkl = |V[i,j]|^2 |V[k,l]|^2 (1-based
#: labels), R and J (flat, 0-based) and the constants -0.0, 1.0 and -1.0;
#: x + -0.0 and x * +-1.0 are exact, so each coefficient has the bits of its
#: written form.
_BAND_Q = ("1222", "3334", "2122", "3343", "3233", "2333")
_BAND_ATOMS = {**{f"q{x}": i for i, x in enumerate(_BAND_Q)},
               **{f"r{a}{j}": 6 + 3 * (a - 1) + j - 1 for a in (1, 2, 3) for j in (1, 2, 3)},
               **{f"j{a}{j}": 15 + 3 * (a - 1) + j - 1 for a in (1, 2, 3) for j in (1, 2, 3)},
               "-0": 24, "+1": 25, "-1": 26}
_BAND_COEFFICIENTS = (
    # a
    "q1222 r11 -1", "q3334 -0 +1", "r22 -0 -1", "q2122 r11 -1", "q3343 -0 +1", "r22 -0 -1",
    # b
    "q1222 -0 +1", "q3334 r33 -1", "q2333 -0 +1", "q2122 -0 +1", "q3343 r33 -1", "q3233 -0 +1",
    # -b
    "q1222 -0 -1", "q3334 r33 +1", "q2333 -0 -1", "q2122 -0 -1", "q3343 r33 +1", "q3233 -0 -1",
    # c
    "r12 -0 j11", "r23 -0 j33", "q2333 r23 j22", "r21 -0 j11", "r32 -0 j33", "q3233 r32 j22",
)
_BAND_TERMS = np.array([[_BAND_ATOMS[x] for x in c.split()] for c in _BAND_COEFFICIENTS]).T
#: flat 0-based positions in |V|^2 of the two factors of each q, in _BAND_Q order
_BAND_Q_TAKE = np.array([[4 * (int(x[0]) - 1) + int(x[1]) - 1 for x in _BAND_Q],
                         [4 * (int(x[2]) - 1) + int(x[3]) - 1 for x in _BAND_Q]])
_BAND_CONSTANTS = np.array([[-0.0], [1.0], [-1.0]])


def _band_systems(cols, jd, r):
    """The band systems of (T, 4, 4) matrices, given by their column
    products, with (3, 3, T) J and R arrays: a (24, T) array of the
    coefficients a, b, -b and c, six rows each.

    Equation i reads a_i y_i + b_i y_(i+1 mod 6) = c_i in the unknowns
    y = (J12, J13, J23, J21, J31, J32) (1-based labels).  Each is a product
    identity with the expanded non-adjacent phases substituted; it links two
    off-diagonal J entries, and the six links close one cycle.  Every
    coefficient is an R entry or a squared modulus product of two V entries
    (_BAND_COEFFICIENTS), built in one gather from one array of atoms.
    """
    t = jd.shape[-1]
    q1, q2 = _moduli_squared(cols).reshape(16, t).take(_BAND_Q_TAKE, axis=0)
    atoms = np.concatenate([q1 * q2, r.reshape(9, t), jd.reshape(9, t),
                            _BAND_CONSTANTS.repeat(t, axis=1)])
    x, y, z = atoms.take(_BAND_TERMS, axis=0)
    return np.multiply(np.add(x, y, out=x), z, out=x)


#: flat 0-based J positions of the unknowns y of _band_systems
_CYCLE_ENTRIES = np.array([1, 2, 5, 3, 6, 7])
#: Cramer's rule on the cycle: y_j (prod a - prod b) is the sum over m of
#: the products over p = j, ..., j+5 (mod 6) of -b_p before p = j+m, c_p at
#: it and a_p after it.  Factor k of term m of y_j is row
#: _CRAMER_ROWS[k, m, j] of the coefficients (a, b, -b, c).
_CRAMER_ROWS = (6 * np.array([2, 3, 0])[np.sign(np.arange(6)[:, None, None]
                                                - np.arange(6)[None, :, None]) + 1]
                + (np.arange(6)[:, None, None] + np.arange(6)[None, None, :]) % 6)


def _reconstructions(cols, jd, r):
    """Band reconstructions of (T, 4, 4) matrices, given by their column
    products, with (3, 3, T) J and R.

    Returns (gate_ratio (T,), degenerate (T,), reconstructed (3, 3, T),
    max_error (T,)); reconstructed and max_error are NaN where degenerate.
    The system's determinant is prod a - prod b; the gate is its
    cancellation ratio |prod a - prod b| / (|prod a| + |prod b|), 0 when both
    products are 0.  Cramer's rule divides by that determinant only, never by
    a single coefficient, and only where the gate passes.

    Every product, prod a, prod b and each Cramer term, is one
    np.multiply.reduce over an index axis of a gather of the coefficients,
    which multiplies left to right; the Cramer numerators are _ksum sums
    over the terms, from 0.0 in ascending m.
    """
    t = jd.shape[-1]
    coefficients = _band_systems(cols, jd, r)
    pa, pb = np.multiply.reduce(coefficients[:12].reshape(2, 6, t), axis=1)
    determinant = pa - pb
    scale = np.abs(pa) + np.abs(pb)
    ratio = np.abs(determinant) / np.where(scale > 0.0, scale, 1.0)
    degenerate = ratio < RECONSTRUCTION_GATE
    numerators = _ksum(np.multiply.reduce(coefficients.take(_CRAMER_ROWS, axis=0), axis=0))
    # the direct J with its cycle entries solved, and NaN where degenerate
    direct = jd.reshape(9, t)
    fill = direct.copy()
    fill[_CYCLE_ENTRIES] = np.divide(numerators, determinant, out=np.full((6, t), np.nan),
                                     where=~degenerate)
    max_error = np.maximum.reduce(np.abs(fill - direct), axis=0)
    fill[:, degenerate] = np.nan
    return ratio, degenerate, fill.reshape(3, 3, t), max_error


def reconstruct_J(v):
    """Rebuild the full J array of a 4x4 unitary from its diagonal.

    The three diagonal entries are taken from the direct computation; the
    six off-diagonal entries come from solving the band system.  When its
    determinant cancels (ratio below RECONSTRUCTION_GATE) the result is
    flagged degenerate instead of solved.
    """
    j, r = jr_matrices(v.plaquettes[..., None])
    ratio, degenerate, recon, max_error = _reconstructions(
        tuple(x[..., None] for x in v.column_products), j, r)
    solved = not degenerate[0]
    return ReconstructionResult(
        j=j[..., 0],
        r=r[..., 0],
        j_reconstructed=recon[..., 0] if solved else None,
        gate_ratio=float(ratio[0]),
        degenerate=bool(degenerate[0]),
        max_error=float(max_error[0]) if solved else None,
    )
