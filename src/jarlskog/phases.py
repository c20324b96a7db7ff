"""Rephasing-invariant phases of a unitary mixing matrix.

The basic object is the plaquette product

    V[alpha, j] * conj(V[alpha, k]) * V[beta, k] * conj(V[beta, j])

whose imaginary part im(alpha beta; j k) and real part re(alpha beta; j k)
are unchanged when rows and columns of V are multiplied by phases.  All
indices in this module are 1-based, matching the usual physics convention
for mixing matrices.

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
from functools import cached_property, lru_cache

import numpy as np

from .linalg import DimensionError, _ksum

#: fixed integer mixing matrix for expanding adjacent-index phases
A_MATRIX = np.array([[1, -1, 0], [-1, 1, -1], [0, -1, 1]], dtype=float)

#: column/row-pair ordering of the expanded blocks for non-adjacent pairs
_ADJACENT_ORDER = ((1, 2), (2, 3), (3, 4))
_NON_ADJACENT_ORDER = ((2, 4), (1, 4), (1, 3))

#: singular-value ratio below which the band reconstruction refuses to solve
RECONSTRUCTION_GATE = 1e-8


@dataclass(frozen=True)
class PlaquetteIndex:
    """Row pair (alpha, beta) and column pair (j, k), 1-based."""

    alpha: int
    beta: int
    j: int
    k: int

    def __post_init__(self):
        for name in ("alpha", "beta", "j", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"index {name}={v!r} must be a positive integer")

    def check(self, n):
        for name in ("alpha", "beta", "j", "k"):
            v = getattr(self, name)
            if v > n:
                raise IndexError(f"index {name}={v} out of range for an {n}x{n} matrix")


def plaquette(v, idx):
    """Complex plaquette product at the given index quadruple."""
    idx.check(v.n)
    re, im = v.plaquettes
    key = (idx.alpha - 1, idx.beta - 1, idx.j - 1, idx.k - 1)
    return complex(re[key], im[key])


def im_phase(v, idx):
    """Imaginary part of the plaquette: the invariant phase im(ab; jk)."""
    return plaquette(v, idx).imag


def re_phase(v, idx):
    """Real part of the plaquette: the invariant re(ab; jk)."""
    return plaquette(v, idx).real


def _canonical_pairs(n):
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _canonical_index(n):
    """Canonical 1-based keys and the matching 0-based tensor index arrays."""
    pairs = _canonical_pairs(n)
    keys = tuple((a, b, j, k) for (a, b) in pairs for (j, k) in pairs)
    return keys, tuple(np.array(axis) - 1 for axis in zip(*keys))


@dataclass(frozen=True)
class PhaseTable:
    """Invariant phases as full (n, n, n, n) tensors, 0-based:
    im_tensor[a, b, j, k] = im(a+1, b+1; j+1, k+1), likewise re_tensor.

    Every index order is stored, so lookups at swapped or repeated indices
    read the tensor directly.  im and re map the canonical 1-based indices
    alpha < beta, j < k to their values.  re_tensor is None for tables that
    carry only the imaginary parts (e.g. the output of expand_phases).
    """

    n: int
    im_tensor: np.ndarray
    re_tensor: np.ndarray | None = None

    def canonical(self, tensor):
        """The canonical entries of a full tensor, in table order."""
        return tensor[_canonical_index(self.n)[1]]

    def _as_dict(self, tensor):
        return dict(zip(_canonical_index(self.n)[0], self.canonical(tensor).tolist()))

    @cached_property
    def im(self):
        return self._as_dict(self.im_tensor)

    @cached_property
    def re(self):
        return None if self.re_tensor is None else self._as_dict(self.re_tensor)

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
class UnitaryRelationResiduals:
    """Max absolute residual of each of the eight sum rules.

    Summing a plaquette's imaginary part over either full row index or
    either full column index gives zero; the same sums of the real part
    give delta-weighted squared moduli.  Families are keyed by the summed
    index: im_row_alpha means sum over alpha at fixed (beta, j, k), etc.
    """

    families: dict

    def max_residual(self):
        return max(self.families.values())


def unitary_relation_residuals(v):
    """Evaluate all eight sum rules on v and report residuals per family."""
    if v.n not in (3, 4):
        raise DimensionError(f"sum rules are tabulated for n in {{3, 4}}, got n={v.n}")
    re, im = v.plaquettes
    mod2 = np.abs(v.matrix) ** 2
    eye = np.eye(v.n)

    fams = {}

    def worst(x):
        return float(np.abs(x).max())

    fams["im_row_alpha"] = worst(im.sum(axis=0))
    fams["im_row_beta"] = worst(im.sum(axis=1))
    fams["im_col_j"] = worst(im.sum(axis=2))
    fams["im_col_k"] = worst(im.sum(axis=3))

    # sum over alpha: target depends on (beta, j, k)
    fams["re_row_alpha"] = worst(re.sum(axis=0) - eye[None, :, :] * mod2[:, :, None])
    # sum over beta: target depends on (alpha, j, k)
    fams["re_row_beta"] = worst(re.sum(axis=1) - eye[None, :, :] * mod2[:, :, None])
    # sum over j: target[alpha, beta, k] = delta_ab |V[alpha, k]|^2
    fams["re_col_j"] = worst(re.sum(axis=2) - eye[:, :, None] * mod2[:, None, :])
    # sum over k: target[alpha, beta, j] = delta_ab |V[alpha, j]|^2
    fams["re_col_k"] = worst(re.sum(axis=3) - eye[:, :, None] * mod2[:, None, :])

    return UnitaryRelationResiduals(families=fams)


#: sign of each canonical three-level phase as a multiple of im(12;12)
N3_SIGN_PATTERN = {
    ((1, 2), (1, 2)): +1,
    ((1, 2), (1, 3)): -1,
    ((1, 2), (2, 3)): +1,
    ((1, 3), (1, 2)): -1,
    ((1, 3), (1, 3)): +1,
    ((1, 3), (2, 3)): -1,
    ((2, 3), (1, 2)): +1,
    ((2, 3), (1, 3)): -1,
    ((2, 3), (2, 3)): +1,
}

#: below this, the base phase is treated as zero and signs are indeterminate
_N3_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class SingleLevelPhaseReport:
    """n = 3 structure report: every canonical phase as a signed multiple of
    the base phase im(12;12)."""

    base: float
    signs: dict          # (row pair, col pair) -> +1 / -1 / None
    residuals: dict      # (row pair, col pair) -> |value - sign * base|
    max_residual: float
    indeterminate: bool

    def matches_expected(self):
        if self.indeterminate:
            return True
        return self.signs == N3_SIGN_PATTERN


def n3_phase_table(v):
    """For n = 3 all nine canonical phases are +/- the single base phase
    im(12;12); report the realised signs and how well each matches."""
    if v.n != 3:
        raise DimensionError(f"single-phase structure requires n=3, got n={v.n}")
    table = phase_table(v)
    base = table.im_value(1, 2, 1, 2)
    indeterminate = abs(base) <= _N3_DEGENERATE_TOL
    signs = {}
    residuals = {}
    for rp in table.canonical_pairs():
        for cp in table.canonical_pairs():
            value = table.im_value(rp[0], rp[1], cp[0], cp[1])
            if indeterminate:
                signs[(rp, cp)] = None
                residuals[(rp, cp)] = abs(value)
            else:
                sign = 1 if abs(value - base) <= abs(value + base) else -1
                signs[(rp, cp)] = sign
                residuals[(rp, cp)] = abs(value - sign * base)
    return SingleLevelPhaseReport(
        base=base,
        signs=signs,
        residuals=residuals,
        max_residual=max(residuals.values()),
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
    t[_canonical_index(4)[1]] = block[np.ix_(order, order)].ravel()
    # the other index orders follow by antisymmetry; repeated-index entries
    # are zero
    im = t - t.transpose(1, 0, 2, 3) - t.transpose(0, 1, 3, 2) + t.transpose(1, 0, 3, 2)
    return PhaseTable(n=4, im_tensor=im)


def expansion_residual(table, expanded):
    """Largest |expanded - direct| over the canonical imaginary phases."""
    return float(np.max(np.abs(expanded.canonical(expanded.im_tensor)
                                - table.canonical(table.im_tensor))))


@dataclass(frozen=True)
class NonlinearRelationResiduals:
    """Max absolute residual of each product identity family.

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

    families: dict

    def max_residual(self):
        return max(self.families.values())


def nonlinear_relation_residuals(v):
    """Evaluate the four product identity families on v."""
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

    return NonlinearRelationResiduals(
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


def band_system(v, jr=None):
    """Coefficient matrix and right-hand side of the 6x6 linear system that
    determines the off-diagonal J entries from J11, J22, J33.

    Unknown order: [J12, J13, J21, J23, J31, J32] (1-based labels).  Rows
    are product identities with the expanded non-adjacent phases already
    substituted, so every coefficient is either an R entry or a squared
    modulus product of two V entries.
    """
    if v.n != 4:
        raise DimensionError(f"band reconstruction requires n=4, got n={v.n}")
    if jr is None:
        jr = jr_matrices(v)
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
    if ratio < RECONSTRUCTION_GATE:
        return ReconstructionResult(
            j_direct=jr.j_mat,
            j_reconstructed=None,
            singular_values=singular_values,
            gate_ratio=ratio,
            degenerate=True,
            max_error=None,
        )
    solution = np.linalg.solve(coeff, rhs)
    recon = np.empty((3, 3))
    recon[0, 0], recon[1, 1], recon[2, 2] = jr.j_mat[0, 0], jr.j_mat[1, 1], jr.j_mat[2, 2]
    recon[0, 1], recon[0, 2] = solution[0], solution[1]
    recon[1, 0], recon[1, 2] = solution[2], solution[3]
    recon[2, 0], recon[2, 1] = solution[4], solution[5]
    max_error = float(np.max(np.abs(recon - jr.j_mat)))
    return ReconstructionResult(
        j_direct=jr.j_mat,
        j_reconstructed=recon,
        singular_values=singular_values,
        gate_ratio=ratio,
        degenerate=False,
        max_error=max_error,
    )
