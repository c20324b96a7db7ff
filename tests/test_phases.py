import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SEED,
    bits,
    givens,
    haar,
    haar_stack,
    haar_unitaries,
    orthogonal4,
    phase,
    rephased,
    seeded_input,
    stack_of_one,
    tensor,
    uniforms,
)

from jarlskog import (
    DimensionError,
    UnitaryMatrix,
    derive_seed,
    det_direct,
    expand_phases,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    reconstruct_J,
    unitary_relation_residuals,
)
from jarlskog.linalg import _validate_unitaries
from jarlskog.phases import N3_SIGN_PATTERN, _band_systems, _canonical_pairs, _check_plaquettes


def sum_rule_residuals(v):
    """{family: max residual} of the sum rules of one matrix."""
    families = unitary_relation_residuals(tuple(x[None] for x in v.column_products),
                                          v.plaquettes[:, None])
    return {name: float(x[0]) for name, x in families.items()}


def product_residuals(v):
    """{family: max residual} of the product identities of one matrix."""
    families = nonlinear_relation_residuals(v.plaquettes[:, None])
    return {name: float(x[0]) for name, x in families.items()}


def n3_signs(v):
    """(base, signs, residuals, indeterminate) of the n = 3 sign table of
    one matrix."""
    return tuple(x[0] for x in n3_phase_table(phase_table(v.plaquettes[1][None])))


def jr(v):
    """The (3, 3) J and R arrays of one matrix."""
    return tuple(x[0] for x in jr_matrices(v.plaquettes[:, None]))


def canonical_keys(n):
    """The 1-based (a, b, j, k) of the canonical phases, in table order."""
    pairs = _canonical_pairs(n)
    return [(a, b, j, k) for (a, b) in pairs for (j, k) in pairs]


def orthogonal3():
    m = givens(3, 0, 1, 0.8) @ givens(3, 1, 2, 0.45) @ givens(3, 0, 2, 1.2)
    return UnitaryMatrix(m.astype(complex))


# ---------------------------------------------------------------- plaquette

def test_plaquette_same_rows_is_modulus_product():
    v = haar(4, SEED)
    z = phase(v, 2, 2, 1, 3)
    assert z.imag == 0.0
    assert z.real >= 0.0
    expected = abs(v.matrix[1, 0]) ** 2 * abs(v.matrix[1, 2]) ** 2
    assert z.real == pytest.approx(expected, rel=1e-13)


def test_plaquette_identity_off_diagonal_is_zero():
    assert phase(UnitaryMatrix(np.eye(4)), 1, 2, 1, 2) == 0j


def test_im_phase_equal_columns_exactly_zero():
    v = haar(4, SEED)
    for a in range(1, 5):
        for b in range(1, 5):
            assert phase(v, a, b, 2, 2).imag == 0.0


def test_real_orthogonal_phases_all_exactly_zero():
    v = orthogonal3()
    for a in range(1, 4):
        for b in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    assert phase(v, a, b, j, k).imag == 0.0


def test_phase_symmetry_is_bitwise():
    # swapping either index pair conjugates the plaquette exactly
    v = haar(4, SEED)
    for idx in ((1, 2, 3, 4), (2, 4, 1, 3), (1, 3, 1, 2)):
        a, b, j, k = idx
        z = phase(v, a, b, j, k)
        assert phase(v, b, a, j, k) == z.conjugate()
        assert phase(v, a, b, k, j) == z.conjugate()
        assert phase(v, b, a, k, j) == z


# ---------------------------------------------------------------- table

def test_phase_table_sizes():
    for t, (n, size) in enumerate(((3, 9), (4, 36))):
        v = haar(n, derive_seed(SEED, t))
        for x in v.plaquettes:
            assert phase_table(x).shape == (size,)
            assert phase_table(x[None]).shape == (1, size)


def test_phase_table_rejects_other_dimensions():
    with pytest.raises(DimensionError):
        phase_table(haar(5, SEED).plaquettes[1][None])


def test_phase_table_and_jr_reject_arrays_that_are_not_a_store():
    # the 256 entries of a flattened 4^4 tensor, the 4^4 tensor itself, and
    # a store of one column too many
    for x in (np.zeros((3, 256)), np.zeros((3, 4, 4, 4, 4)), np.zeros((3, 137))):
        with pytest.raises(DimensionError):
            phase_table(x)
        with pytest.raises(DimensionError):
            jr_matrices(x)


def indexed_phase_table(x):
    """The canonical entries by advanced indexing on the last four axes of
    the tensor of every index order that the store x maps to."""
    return tensor(x)[(..., *(np.array(axis) - 1 for axis in zip(*canonical_keys(
        _check_plaquettes(x)))))]


def indexed_jr(re, im):
    """J and R by advanced indexing on the last four axes of the tensors."""
    rows, cols = np.arange(3), np.arange(1, 4)
    index = (..., rows[:, None], cols[:, None], rows[None, :], cols[None, :])
    return tensor(im)[index], tensor(re)[index]


def plaquette_views(n):
    """A (2, 5, K) plaquette store of Haar matrices, a Fortran-ordered copy
    and views of it that are not contiguous: trials sliced as verify slices
    V from its rephased copy, a stack of one and the whole store reversed."""
    buffer = _validate_unitaries(haar_stack(n, 5, 90 + n))[2]
    return [buffer, buffer[:, :3], np.asfortranarray(buffer), buffer[:, 2:3], buffer[::-1, ::-2]]


@pytest.mark.parametrize("n", (3, 4))
def test_phase_table_takes_the_entries_of_the_indexed_form_from_any_view(n):
    for x in plaquette_views(n):
        assert np.array_equal(bits(phase_table(x)), bits(indexed_phase_table(x)))
        assert np.array_equal(bits(phase_table(x[1, 0])), bits(indexed_phase_table(x[1, 0])))


def test_jr_takes_the_entries_of_the_indexed_form_from_any_view():
    for x in plaquette_views(4):
        for got, ref in zip(jr_matrices(x), indexed_jr(*x), strict=True):
            assert np.array_equal(bits(got), bits(ref))


def test_phase_table_symmetry_lookup_bitwise():
    v = haar(4, SEED)
    re, im = v.plaquettes
    ims = phase_table(im).tolist()
    res = phase_table(re).tolist()
    for (a, b, j, k), value, real in zip(canonical_keys(4), ims, res, strict=True):
        assert phase(v, a, b, j, k).imag == value
        assert phase(v, b, a, j, k).imag == -value
        assert phase(v, a, b, k, j).imag == -value
        assert phase(v, b, a, k, j).imag == value
        assert phase(v, b, a, j, k).real == real
    assert phase(v, 2, 2, 1, 3).imag == 0.0
    assert phase(v, 1, 2, 3, 3).imag == 0.0


def test_phase_table_identity_pattern():
    re, im = UnitaryMatrix(np.eye(4)).plaquettes
    assert np.all(phase_table(im) == 0.0)
    # real parts: |delta| products, all zero off the diagonal pairs
    assert np.all(phase_table(re) == 0.0)


# ---------------------------------------------------------------- sum rules

def test_unitarity_sums_on_haar_samples():
    for i, n in enumerate((3, 4)):
        for v in haar_unitaries(n, 25, first=25 * i):
            rep = sum_rule_residuals(v)
            assert max(rep.values()) <= 1e-13


def test_unitarity_sums_identity_targets():
    rep = sum_rule_residuals(UnitaryMatrix(np.eye(4)))
    for family, mx in rep.items():
        assert mx == 0.0, family


def test_unitarity_sums_invariant_under_rephasing():
    v = haar(4, SEED)
    # the angles of two more seeds
    theta, theta_prime = ([u * 6.0 for u in uniforms(derive_seed(SEED, t), 4)] for t in (0, 1))
    r1 = sum_rule_residuals(v)
    r2 = sum_rule_residuals(rephased(v, theta, theta_prime))
    for family in r1:
        assert abs(r1[family] - r2[family]) <= 1e-13


# ---------------------------------------------------------------- n=3 signs

def test_n3_sign_pattern_on_haar_samples():
    for v in haar_unitaries(3, 50):
        base, signs, residuals, indeterminate = n3_signs(v)
        assert not indeterminate
        assert tuple(signs.tolist()) == N3_SIGN_PATTERN
        assert residuals.max() <= 1e-12 * max(1.0, abs(base))


def test_n3_specific_signs():
    signs = n3_signs(haar(3, SEED))[1]
    # table order: (12;12), (12;13), (12;23), (13;12), (13;13), ...
    assert signs[4] == +1
    assert signs[1] == -1


def test_n3_real_orthogonal_is_indeterminate():
    v = orthogonal3()
    _, _, residuals, indeterminate = n3_signs(v)
    assert indeterminate
    # with no base phase to compare with, each residual is the phase itself
    assert np.array_equal(residuals, np.abs(phase_table(v.plaquettes[1])))


def test_n3_requires_three_levels():
    with pytest.raises(DimensionError):
        n3_phase_table(phase_table(haar(4, SEED).plaquettes[1][None]))


def test_n3_base_phase_ties_to_determinant():
    # 2i T B im(12;12) must reproduce the direct determinant
    inp = seeded_input(3, 40)
    a, b = inp.a.values, inp.b.values
    t = (a[0] - a[1]) * (a[1] - a[2]) * (a[2] - a[0])
    bb = (b[0] - b[1]) * (b[1] - b[2]) * (b[2] - b[0])
    base = n3_signs(inp.v)[0]
    d = det_direct(*stack_of_one(inp)[:3])[0]
    assert abs(2j * t * bb * base - d) <= 1e-10 * max(1.0, abs(d))


# ---------------------------------------------------------------- J, R, expansion

def test_jr_identity_is_zero():
    j, r = jr(UnitaryMatrix(np.eye(4)))
    assert np.all(j == 0.0)
    assert np.all(r == 0.0)


def test_jr_entries_match_scalar_phases_bitwise():
    v = haar(4, SEED)
    j, r = jr(v)
    assert j[0, 0] == phase(v, 1, 2, 1, 2).imag
    assert j[2, 1] == phase(v, 3, 4, 2, 3).imag
    assert r[1, 2] == phase(v, 2, 3, 3, 4).real


def test_jr_requires_four_levels():
    with pytest.raises(DimensionError):
        jr_matrices(haar(3, SEED).plaquettes[:, None])


def test_expansion_spot_values():
    # the three worked rows of the column expansion
    j = jr(haar(4, SEED))[0]
    expanded = dict(zip(canonical_keys(4), expand_phases(j[None])[0].tolist(), strict=True))
    assert expanded[1, 2, 2, 4] == pytest.approx(j[0, 0] - j[0, 1], abs=1e-15)
    assert expanded[1, 2, 1, 4] == pytest.approx(-j[0, 0] + j[0, 1] - j[0, 2], abs=1e-15)
    assert expanded[1, 2, 1, 3] == pytest.approx(-j[0, 1] + j[0, 2], abs=1e-15)


def test_expansion_matches_direct_table():
    for v in haar_unitaries(4, 50):
        direct = phase_table(v.plaquettes[1][None])
        expanded = expand_phases(jr(v)[0][None])
        for value, ref in zip(expanded[0].tolist(), direct[0].tolist(), strict=True):
            assert abs(value - ref) <= 1e-12


# ---------------------------------------------------------------- products

def test_product_identities_on_haar_samples():
    for i, n in enumerate((3, 4)):
        for v in haar_unitaries(n, 25, first=25 * i):
            rep = product_residuals(v)
            assert max(rep.values()) <= 1e-12


def test_product_identity_worked_example():
    # re(12;12) im(12;23) + re(12;23) im(12;12) = re(12;22) im(12;13),
    # with the right side rewritten through the expansion of im(12;13)
    v = haar(4, SEED)
    j, r = jr(v)
    lhs = r[0, 0] * j[0, 1] + r[0, 1] * j[0, 0]
    mod = abs(v.matrix[0, 1]) ** 2 * abs(v.matrix[1, 1]) ** 2
    rhs = mod * (-j[0, 1] + j[0, 2])
    assert abs(lhs - rhs) <= 1e-13


def test_product_identity_collapses_when_outer_columns_repeat():
    # with l = j the mixed-rows identity reads
    #   re(ab;jk) im(ab;kj) + re(ab;kj) im(ab;jk) = re(ab;kk) im(ab;jj)
    # and antisymmetry makes both sides exactly zero
    v = haar(4, SEED)
    a, b, j, k = 1, 2, 1, 3
    lhs = phase(v, a, b, j, k).real * phase(v, a, b, k, j).imag
    lhs += phase(v, a, b, k, j).real * phase(v, a, b, j, k).imag
    rhs = phase(v, a, b, k, k).real * phase(v, a, b, j, j).imag
    assert lhs == 0.0
    assert rhs == 0.0


def test_product_identities_real_orthogonal_residual_zero():
    rep = product_residuals(orthogonal4())
    # all imaginary parts vanish exactly, so both mixed families are exact;
    # the real-product families cancel to roundoff
    assert rep["mixed_same_rows"] == 0.0
    assert rep["mixed_same_cols"] == 0.0
    assert max(rep.values()) <= 1e-13


# ---------------------------------------------------------------- reconstruction

def band_system(v):
    """(a, b, c) of the band system of one matrix."""
    j, r = jr_matrices(v.plaquettes[:, None])
    coefficients = _band_systems(tuple(x[None] for x in v.column_products), j, r)[:, 0]
    return coefficients[0:6], coefficients[6:12], coefficients[18:24]


def cycle_unknowns(j):
    """The band system's unknowns (J12, J13, J23, J21, J31, J32) of a J array."""
    return np.array([j[0, 1], j[0, 2], j[1, 2], j[1, 0], j[2, 0], j[2, 1]])


def test_band_system_consistency():
    # plugging the directly computed J into the system solves it
    for v in haar_unitaries(4, 20):
        a, b, c = band_system(v)
        y = cycle_unknowns(jr(v)[0])
        assert np.max(np.abs(a * y + b * np.roll(y, -1) - c)) <= 1e-13


def test_cycle_solve_agrees_with_a_dense_solve():
    # the 6x6 matrix of the cycle, a_i at (i, i) and b_i at (i, i+1 mod 6),
    # solved by LAPACK: an oracle that shares no arithmetic with the
    # reconstruction
    for v in haar_unitaries(4, 20):
        a, b, c = band_system(v)
        y = np.linalg.solve(np.diag(a) + np.roll(np.diag(b), 1, axis=1), c)
        got = cycle_unknowns(reconstruct_J(v).j_reconstructed)
        assert np.max(np.abs(got - y)) <= 1e-13


def test_reconstruction_on_haar_samples():
    gate_passes = 0
    for v in haar_unitaries(4, 50):
        res = reconstruct_J(v)
        if res.degenerate:
            continue
        gate_passes += 1
        scale = max(1.0, float(np.max(np.abs(res.j))))
        assert res.max_error <= 1e-9 * scale
    assert gate_passes > 0


def test_reconstruction_identity_is_degenerate():
    res = reconstruct_J(UnitaryMatrix(np.eye(4)))
    assert res.degenerate
    assert res.j_reconstructed is None
    assert res.gate_ratio < 1e-8


def test_reconstruction_real_orthogonal_gives_zero():
    res = reconstruct_J(orthogonal4())
    assert not res.degenerate
    assert np.all(res.j == 0.0)
    assert np.max(np.abs(res.j_reconstructed)) <= 1e-12


def test_reconstruction_near_identity_is_flagged():
    # near the identity every J entry is tiny, but the cycle's determinant
    # does not cancel: the gate passes and the solve is accurate relative
    # to max|J|
    eps = 1e-3
    m = (
        givens(4, 0, 1, eps, 0.3)
        @ givens(4, 1, 2, 1.3 * eps, 0.7)
        @ givens(4, 2, 3, 0.8 * eps, 1.1)
        @ givens(4, 0, 2, 0.6 * eps, 2.0)
    )
    res = reconstruct_J(UnitaryMatrix(m))
    assert not res.degenerate
    assert res.max_error <= 1e-9 * np.max(np.abs(res.j))


def test_reconstruction_requires_four_levels():
    with pytest.raises(DimensionError):
        reconstruct_J(haar(3, SEED))


# ---------------------------------------------------------------- invariance

@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_invariants_survive_rephasing(seed):
    v = haar(4, seed)
    # the angles of two more seeds
    w = rephased(v, *([u * 6.0 for u in uniforms(derive_seed(seed, t), 4)] for t in (0, 1)))
    for x, y in zip(v.plaquettes, w.plaquettes):
        assert np.max(np.abs(phase_table(x) - phase_table(y))) <= 1e-12
    for x, y in zip(jr(v), jr(w)):
        assert np.max(np.abs(x - y)) <= 1e-13
