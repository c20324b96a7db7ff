"""Rephasing-invariant phases of a unitary mixing matrix.

The basic object is the plaquette product

    V[alpha, j] * conj(V[alpha, k]) * V[beta, k] * conj(V[beta, j])

whose imaginary part im(alpha beta; j k) and real part re(alpha beta; j k)
are unchanged when rows and columns of V are multiplied by phases.

The phases have one representation: the (re, im) pair of full plaquette
tensors UnitaryMatrix.plaquettes, 0-based, holding every index order.  A
PhaseTable wraps that pair for n in {3, 4}.  Its im_value/re_value are the
one 1-based lookup, matching the usual physics convention for mixing
matrices, and its canonical() returns the entries alpha < beta, j < k as an
array in table order (row pairs outer, column pairs inner, both as listed
by canonical_pairs()).  Other n read V.plaquettes directly.

Exactness note: every plaquette value here is read from the one tensor
UnitaryMatrix.plaquettes, which evaluates the grouping
(V[a,j] conj(V[a,k])) * (V[b,k] conj(V[b,j])) on separate real and
imaginary float arrays with the operations of a scalar complex product.
With that grouping the antisymmetry of the imaginary part (and symmetry of
the real part) under swapping alpha<->beta or j<->k holds bitwise in
floating point, and entries with alpha == beta or j == k have imaginary
part exactly zero, not merely roundoff-small.  The tensor stores every
index order, so these properties are carried by its entries rather than
imposed by lookup rules.

For n = 4 the 36 independent imaginary parts are generated by the 3x3 array
J of adjacent-index phases J[a, j] = im(a, a+1; j, j+1) together with the
fixed integer matrix A below: non-adjacent column pairs come from J A (with
column pairs ordered (24), (14), (13)), non-adjacent row pairs from A J
(same ordering for rows), and doubly non-adjacent entries from A J A.  The
orientation of those orderings is validated numerically in the test suite
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DimensionError, _ksum

#: fixed integer mixing matrix for expanding adjacent-index phases
A_MATRIX = np.array([[1, -1, 0], [-1, 1, -1], [0, -1, 1]], dtype=float)

#: column/row-pair ordering of the expanded blocks for non-adjacent pairs
_ADJACENT_ORDER = ((1, 2), (2, 3), (3, 4))
_NON_ADJACENT_ORDER = ((2, 4), (1, 4), (1, 3))

#: singular-value ratio below which the band reconstruction refuses to solve
RECONSTRUCTION_GATE = 1e-8


def _canonical_pairs(n):
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _canonical_index(n):
    """0-based tensor index arrays of the canonical entries, in table order."""
    pairs = _canonical_pairs(n)
    keys = [(a, b, j, k) for (a, b) in pairs for (j, k) in pairs]
    return tuple(np.array(axis) - 1 for axis in zip(*keys))


@dataclass(frozen=True)
class PhaseTable:
    """Invariant phases as full (n, n, n, n) tensors, 0-based:
    im_tensor[a, b, j, k] = im(a+1, b+1; j+1, k+1), likewise re_tensor.

    Every index order is stored, so lookups at swapped or repeated indices
    read the tensor directly.  im_value/re_value take 1-based indices;
    canonical(tensor) gives the entries alpha < beta, j < k as an array,
    row pairs outer and column pairs inner, in canonical_pairs() order.
    re_tensor is None for tables that carry only the imaginary parts
    (e.g. the output of expand_phases).
    """

    n: int
    im_tensor: np.ndarray
    re_tensor: np.ndarray | None = None

    def canonical(self, tensor):
        """The canonical entries of a full tensor, in table order."""
        return tensor[_canonical_index(self.n)]

    def _lookup(self, tensor, alpha, beta, j, k):
        if not all(1 <= x <= self.n for x in (alpha, beta, j, k)):
            raise IndexError(f"indices ({alpha},{beta};{j},{k}) out of range for n={self.n}")
        return float(tensor[alpha - 1, beta - 1, j - 1, k - 1])

    def im_value(self, alpha, beta, j, k):
        return self._lookup(self.im_tensor, alpha, beta, j, k)

    def re_value(self, alpha, beta, j, k):
        if self.re_tensor is None:
            raise KeyError("this table holds imaginary parts only")
        return self._lookup(self.re_tensor, alpha, beta, j, k)

    def canonical_pairs(self):
        return _canonical_pairs(self.n)


def phase_table(v):
    """The invariant phases of v (n in {3, 4}), read from its plaquette tensor."""
    if v.n not in (3, 4):
        raise DimensionError(f"phase tables are defined for n in {{3, 4}}, got n={v.n}")
    re, im = v.plaquettes
    return PhaseTable(n=v.n, im_tensor=im, re_tensor=re)


@dataclass(frozen=True)
class RelationResiduals:
    """Max absolute residual of each family of an identity, keyed by name."""

    families: dict

    def max_residual(self):
        return max(self.families.values())


def unitary_relation_residuals(v):
    """Evaluate all eight sum rules on v and report residuals per family.

    Summing a plaquette's imaginary part over either full row index or
    either full column index gives zero; the same sums of the real part
    give delta-weighted squared moduli.  Families are keyed by the summed
    index: im_row_alpha means sum over alpha at fixed (beta, j, k), etc.
    """
    if v.n not in (3, 4):
        raise DimensionError(f"sum rules are tabulated for n in {{3, 4}}, got n={v.n}")
    re, im = v.plaquettes
    mod2 = np.abs(v.matrix) ** 2
    eye = np.eye(v.n)
    # targets of the real-part sums: over alpha or beta, delta_jk |V[c, j]|^2
    # at the remaining (c, j, k); over j or k, delta_ab |V[a, c]|^2 at (a, b, c)
    row_target = eye[None, :, :] * mod2[:, :, None]
    col_target = eye[:, :, None] * mod2[:, None, :]
    summed = {"row_alpha": 0, "row_beta": 1, "col_j": 2, "col_k": 3}
    sums = {f"im_{name}": im.sum(axis=axis) for name, axis in summed.items()}
    sums.update({f"re_{name}": re.sum(axis=axis) - (row_target if axis < 2 else col_target)
                 for name, axis in summed.items()})
    return RelationResiduals({name: float(np.abs(x).max()) for name, x in sums.items()})


#: sign of each canonical three-level phase as a multiple of im(12;12), in
#: table order: (12;12), (12;13), (12;23), (13;12), ..., (23;23)
N3_SIGN_PATTERN = (+1, -1, +1, -1, +1, -1, +1, -1, +1)

#: below this, the base phase is treated as zero and signs are indeterminate
_N3_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class SingleLevelPhaseReport:
    """n = 3 structure report: every canonical phase as a signed multiple of
    the base phase im(12;12).

    signs and residuals run over the nine canonical phases in table order,
    as N3_SIGN_PATTERN does.  signs holds +1/-1, or is None when the base
    phase is zero; residuals holds |value - sign * base|, or |value| then.
    """

    base: float
    signs: tuple | None
    residuals: tuple
    max_residual: float
    indeterminate: bool

    def matches_expected(self):
        return self.indeterminate or self.signs == N3_SIGN_PATTERN


def n3_phase_table(v):
    """For n = 3 all nine canonical phases are +/- the single base phase
    im(12;12); report the realised signs and how well each matches."""
    if v.n != 3:
        raise DimensionError(f"single-phase structure requires n=3, got n={v.n}")
    table = phase_table(v)
    base = table.im_value(1, 2, 1, 2)
    x = table.canonical(table.im_tensor)
    indeterminate = abs(base) <= _N3_DEGENERATE_TOL
    if indeterminate:
        signs = None
        residuals = np.abs(x)
    else:
        s = np.where(np.abs(x - base) <= np.abs(x + base), 1, -1)
        signs = tuple(s.tolist())
        residuals = np.abs(x - s * base)
    return SingleLevelPhaseReport(
        base=base,
        signs=signs,
        residuals=tuple(residuals.tolist()),
        max_residual=float(residuals.max()),
        indeterminate=indeterminate,
    )


@dataclass(frozen=True)
class JRMatrices:
    """Adjacent-index invariant phases of a 4x4 unitary.

    j_mat[a, j] (0-based storage) holds im(a+1, a+2; j+1, j+2); r_mat holds
    the matching real parts.
    """

    j_mat: np.ndarray
    r_mat: np.ndarray

    def __post_init__(self):
        for name in ("j_mat", "r_mat"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (3, 3):
                raise DimensionError(f"{name} must be 3x3, got {m.shape}")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, name, m)


def jr_matrices(v):
    """Extract the adjacent-index phase arrays J and R from a 4x4 unitary."""
    if v.n != 4:
        raise DimensionError(f"adjacent-index arrays require n=4, got n={v.n}")
    re, im = v.plaquettes
    a = np.arange(3)[:, None]
    j = np.arange(3)[None, :]
    return JRMatrices(j_mat=im[a, a + 1, j, j + 1], r_mat=re[a, a + 1, j, j + 1])


def expand_phases(jr):
    """All 36 canonical imaginary phases of a 4x4 unitary from J alone.

    Blocks: adjacent/adjacent entries are J itself; adjacent rows with
    non-adjacent columns are J A; non-adjacent rows with adjacent columns
    are A J; doubly non-adjacent entries are A J A.  Non-adjacent pairs are
    ordered (24), (14), (13) in both directions.
    """
    j = np.asarray(jr.j_mat, dtype=float)
    # block column [J; A J] and, right-multiplied by A, [J A; A J A]; each
    # product x y is the ascending k-sum of x[i, k] y[k, j]
    left = np.vstack([j, _ksum(A_MATRIX.T[:, :, None] * j[:, None, :])])
    right = _ksum(left.T[:, :, None] * A_MATRIX[:, None, :])
    # block rows and columns run over the adjacent pairs, then the
    # non-adjacent ones; pick them out in canonical pair order
    block = np.hstack([left, right])
    order = [(_ADJACENT_ORDER + _NON_ADJACENT_ORDER).index(p) for p in _canonical_pairs(4)]
    t = np.zeros((4, 4, 4, 4))
    t[_canonical_index(4)] = block[np.ix_(order, order)].ravel()
    # the other index orders follow by antisymmetry; repeated-index entries
    # are zero
    im = t - t.transpose(1, 0, 2, 3) - t.transpose(0, 1, 3, 2) + t.transpose(1, 0, 3, 2)
    return PhaseTable(n=4, im_tensor=im)


def expansion_residual(table, expanded):
    """Largest |expanded - direct| over the canonical imaginary phases."""
    return float(np.max(np.abs(expanded.canonical(expanded.im_tensor)
                                - table.canonical(table.im_tensor))))


def nonlinear_relation_residuals(v):
    """Evaluate the four product identity families on v.

    mixed_same_rows:   re(ab;jk) im(ab;kl) + re(ab;kl) im(ab;jk)
                         = re(ab;kk) im(ab;jl)
    mixed_same_cols:   re(ab;jk) im(bg;jk) + re(bg;jk) im(ab;jk)
                         = re(bb;jk) im(ag;jk)
    product_same_rows: re(ab;jk) re(ab;lm) - re(ab;jm) re(ab;kl)
                         = im(ab;jl) im(ab;km)
    product_same_cols: re(ab;jk) re(gd;jk) - re(ad;jk) re(bg;jk)
                         = im(ag;jk) im(bd;jk)

    Each is an exact identity of any unitary matrix, evaluated over every
    index tuple (repeats included).
    """
    if v.n not in (3, 4):
        raise DimensionError(f"product identities are tabulated for n in {{3, 4}}, got n={v.n}")
    re, im = v.plaquettes

    # mixed_same_rows over (a, b, j, k, l)
    re_kk = np.einsum("abkk->abk", re)
    t1 = re[:, :, :, :, None] * im[:, :, None, :, :]          # re(ab;jk) im(ab;kl)
    t2 = re[:, :, None, :, :] * im[:, :, :, :, None]          # re(ab;kl) im(ab;jk)
    t3 = re_kk[:, :, None, :, None] * im[:, :, :, None, :]    # re(ab;kk) im(ab;jl)
    mixed_rows = float(np.abs(t1 + t2 - t3).max())

    # mixed_same_cols over (a, b, g, j, k)
    re_bb = np.einsum("bbjk->bjk", re)
    t1 = re[:, :, None, :, :] * im[None, :, :, :, :]          # re(ab;jk) im(bg;jk)
    t2 = im[:, :, None, :, :] * re[None, :, :, :, :]          # re(bg;jk) im(ab;jk)
    t3 = re_bb[None, :, None, :, :] * im[:, None, :, :, :]    # re(bb;jk) im(ag;jk)
    mixed_cols = float(np.abs(t1 + t2 - t3).max())

    # product_same_rows over (a, b, j, k, l, m)
    t1 = re[:, :, :, :, None, None] * re[:, :, None, None, :, :]   # (jk)(lm)
    t2 = re[:, :, :, None, None, :] * re[:, :, None, :, :, None]   # (jm)(kl)
    t3 = im[:, :, :, None, :, None] * im[:, :, None, :, None, :]   # (jl)(km)
    product_rows = float(np.abs(t1 - t2 - t3).max())

    # product_same_cols over (a, b, g, d, j, k)
    t1 = re[:, :, None, None, :, :] * re[None, None, :, :, :, :]   # (ab)(gd)
    t2 = re[:, None, None, :, :, :] * re[None, :, :, None, :, :]   # (ad)(bg)
    t3 = im[:, None, :, None, :, :] * im[None, :, None, :, :, :]   # (ag)(bd)
    product_cols = float(np.abs(t1 - t2 - t3).max())

    return RelationResiduals(
        families={
            "mixed_same_rows": mixed_rows,
            "mixed_same_cols": mixed_cols,
            "product_same_rows": product_rows,
            "product_same_cols": product_cols,
        }
    )


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of rebuilding J from its diagonal through the 6x6 band system.

    degenerate is True when the singular-value ratio fails the gate; in that
    case no solve is attempted and j_reconstructed is None.
    """

    j_direct: np.ndarray
    j_reconstructed: np.ndarray | None
    singular_values: np.ndarray
    gate_ratio: float
    degenerate: bool
    max_error: float | None


def band_system(v, jr):
    """Coefficient matrix and right-hand side of the 6x6 linear system that
    determines the off-diagonal J entries from J11, J22, J33; jr is
    jr_matrices(v).

    Unknown order: [J12, J13, J21, J23, J31, J32] (1-based labels).  Rows
    are product identities with the expanded non-adjacent phases already
    substituted, so every coefficient is either an R entry or a squared
    modulus product of two V entries.
    """
    if v.n != 4:
        raise DimensionError(f"band reconstruction requires n=4, got n={v.n}")
    r = jr.r_mat
    jd = jr.j_mat
    m2 = np.abs(v.matrix) ** 2

    # squared modulus products appearing in the system, named by 1-based
    # entry labels: q_ijkl = |V[i,j]|^2 |V[k,l]|^2
    q_1222 = m2[0, 1] * m2[1, 1]
    q_3334 = m2[2, 2] * m2[2, 3]
    q_2122 = m2[1, 0] * m2[1, 1]
    q_3343 = m2[2, 2] * m2[3, 2]
    q_3233 = m2[2, 1] * m2[2, 2]
    q_2333 = m2[1, 2] * m2[2, 2]

    r11, r22, r33 = r[0, 0], r[1, 1], r[2, 2]
    r12, r21, r23, r32 = r[0, 1], r[1, 0], r[1, 2], r[2, 1]
    j11, j22, j33 = jd[0, 0], jd[1, 1], jd[2, 2]

    coeff = np.array([
        [-(q_1222 + r11), q_1222, 0.0, 0.0, 0.0, 0.0],
        [0.0, q_3334, 0.0, -(q_3334 + r33), 0.0, 0.0],
        [0.0, 0.0, -(q_2122 + r11), 0.0, q_2122, 0.0],
        [0.0, 0.0, 0.0, 0.0, q_3343, -(q_3343 + r33)],
        [q_3233, 0.0, 0.0, 0.0, 0.0, -r22],
        [0.0, 0.0, q_2333, -r22, 0.0, 0.0],
    ])
    rhs = np.array([
        r12 * j11,
        r23 * j33,
        r21 * j11,
        r32 * j33,
        (q_3233 + r32) * j22,
        (q_2333 + r23) * j22,
    ])
    return coeff, rhs


def reconstruct_J(v):
    """Rebuild the full J array of a 4x4 unitary from its diagonal.

    The three diagonal entries are taken from the direct computation; the
    six off-diagonal entries come from solving the band system.  When the
    coefficient matrix is rank-deficient (singular-value ratio below
    RECONSTRUCTION_GATE) the result is flagged degenerate instead of solved.
    """
    jr = jr_matrices(v)
    coeff, rhs = band_system(v, jr)
    singular_values = np.linalg.svd(coeff, compute_uv=False)
    smax = float(singular_values[0])
    smin = float(singular_values[-1])
    ratio = smin / smax if smax > 0.0 else 0.0
    degenerate = ratio < RECONSTRUCTION_GATE
    recon = max_error = None
    if not degenerate:
        # the unknowns are the off-diagonal entries in row-major order
        recon = jr.j_mat.copy()
        recon[~np.eye(3, dtype=bool)] = np.linalg.solve(coeff, rhs)
        max_error = float(np.max(np.abs(recon - jr.j_mat)))
    return ReconstructionResult(
        j_direct=jr.j_mat,
        j_reconstructed=recon,
        singular_values=singular_values,
        gate_ratio=ratio,
        degenerate=degenerate,
        max_error=max_error,
    )
