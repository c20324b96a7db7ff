import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import givens, seeded_input

from jarlskog import (
    DimensionError,
    SeededRng,
    UnitaryMatrix,
    det_direct,
    expand_phases,
    haar_unitary,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    reconstruct_J,
    unitary_relation_residuals,
)
from jarlskog.phases import band_system


def orthogonal4():
    m = (
        givens(4, 0, 1, 0.7)
        @ givens(4, 1, 2, 1.1)
        @ givens(4, 2, 3, 0.5)
        @ givens(4, 0, 2, 0.9)
        @ givens(4, 1, 3, 0.4)
    )
    return UnitaryMatrix(m.astype(complex))


def orthogonal3():
    m = givens(3, 0, 1, 0.8) @ givens(3, 1, 2, 0.45) @ givens(3, 0, 2, 1.2)
    return UnitaryMatrix(m.astype(complex))


# ---------------------------------------------------------------- plaquette

def plaquette(table, a, b, j, k):
    """The complex plaquette at 1-based indices, from the table's lookups."""
    return complex(table.re_value(a, b, j, k), table.im_value(a, b, j, k))


def test_plaquette_same_rows_is_modulus_product(rng):
    v = haar_unitary(4, rng)
    z = plaquette(phase_table(v), 2, 2, 1, 3)
    assert z.imag == 0.0
    assert z.real >= 0.0
    expected = abs(v.matrix[1, 0]) ** 2 * abs(v.matrix[1, 2]) ** 2
    assert z.real == pytest.approx(expected, rel=1e-13)


def test_plaquette_identity_off_diagonal_is_zero():
    table = phase_table(UnitaryMatrix(np.eye(4)))
    assert plaquette(table, 1, 2, 1, 2) == 0j


def test_plaquette_index_validation(rng):
    table = phase_table(haar_unitary(3, rng))
    with pytest.raises(IndexError):
        plaquette(table, 1, 4, 1, 2)
    with pytest.raises(IndexError):
        table.im_value(0, 1, 1, 2)


def test_im_phase_equal_columns_exactly_zero(rng):
    table = phase_table(haar_unitary(4, rng))
    for a in range(1, 5):
        for b in range(1, 5):
            assert table.im_value(a, b, 2, 2) == 0.0


def test_real_orthogonal_phases_all_exactly_zero():
    table = phase_table(orthogonal3())
    for a in range(1, 4):
        for b in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    assert table.im_value(a, b, j, k) == 0.0


def test_phase_symmetry_is_bitwise(rng):
    # swapping either index pair conjugates the plaquette exactly
    table = phase_table(haar_unitary(4, rng))
    for idx in ((1, 2, 3, 4), (2, 4, 1, 3), (1, 3, 1, 2)):
        a, b, j, k = idx
        z = plaquette(table, a, b, j, k)
        assert plaquette(table, b, a, j, k) == z.conjugate()
        assert plaquette(table, a, b, k, j) == z.conjugate()
        assert plaquette(table, b, a, k, j) == z


# ---------------------------------------------------------------- table

def test_phase_table_sizes(rng):
    for n, size in ((3, 9), (4, 36)):
        table = phase_table(haar_unitary(n, rng))
        assert table.canonical(table.im_tensor).shape == (size,)
        assert table.canonical(table.re_tensor).shape == (size,)


def test_phase_table_rejects_other_dimensions(rng):
    with pytest.raises(DimensionError):
        phase_table(haar_unitary(5, rng))


def test_phase_table_symmetry_lookup_bitwise(rng):
    v = haar_unitary(4, rng)
    table = phase_table(v)
    ims = table.canonical(table.im_tensor).tolist()
    res = table.canonical(table.re_tensor).tolist()
    pairs = table.canonical_pairs()
    keys = [(a, b, j, k) for (a, b) in pairs for (j, k) in pairs]
    for (a, b, j, k), value, re in zip(keys, ims, res, strict=True):
        assert table.im_value(a, b, j, k) == value
        assert table.im_value(b, a, j, k) == -value
        assert table.im_value(a, b, k, j) == -value
        assert table.im_value(b, a, k, j) == value
        assert table.re_value(b, a, j, k) == re
    assert table.im_value(2, 2, 1, 3) == 0.0
    assert table.im_value(1, 2, 3, 3) == 0.0


def test_phase_table_identity_pattern():
    table = phase_table(UnitaryMatrix(np.eye(4)))
    assert np.all(table.canonical(table.im_tensor) == 0.0)
    # real parts: |delta| products, all zero off the diagonal pairs
    assert np.all(table.canonical(table.re_tensor) == 0.0)


# ---------------------------------------------------------------- sum rules

def test_unitarity_sums_on_haar_samples(rng):
    for n in (3, 4):
        for _ in range(25):
            rep = unitary_relation_residuals(haar_unitary(n, rng))
            assert rep.max_residual() <= 1e-13


def test_unitarity_sums_identity_targets():
    rep = unitary_relation_residuals(UnitaryMatrix(np.eye(4)))
    for family, mx in rep.families.items():
        assert mx == 0.0, family


def test_unitarity_sums_invariant_under_rephasing(rng):
    from jarlskog import RephasingAngles, rephase

    v = haar_unitary(4, rng)
    angles = RephasingAngles(
        tuple(rng.uniform() * 6.0 for _ in range(4)),
        tuple(rng.uniform() * 6.0 for _ in range(4)),
    )
    r1 = unitary_relation_residuals(v)
    r2 = unitary_relation_residuals(rephase(v, angles))
    for family in r1.families:
        assert abs(r1.families[family] - r2.families[family]) <= 1e-13


# ---------------------------------------------------------------- n=3 signs

def test_n3_sign_pattern_on_haar_samples(rng):
    for _ in range(50):
        rep = n3_phase_table(haar_unitary(3, rng))
        assert not rep.indeterminate
        assert rep.matches_expected()
        assert rep.max_residual <= 1e-12 * max(1.0, abs(rep.base))


def test_n3_specific_signs(rng):
    rep = n3_phase_table(haar_unitary(3, rng))
    # table order: (12;12), (12;13), (12;23), (13;12), (13;13), ...
    assert rep.signs[4] == +1
    assert rep.signs[1] == -1


def test_n3_real_orthogonal_is_indeterminate():
    rep = n3_phase_table(orthogonal3())
    assert rep.indeterminate
    assert rep.signs is None
    assert rep.matches_expected()


def test_n3_requires_three_levels(rng):
    with pytest.raises(DimensionError):
        n3_phase_table(haar_unitary(4, rng))


def test_n3_base_phase_ties_to_determinant():
    # 2i T B im(12;12) must reproduce the direct determinant
    inp = seeded_input(3, 40)
    a, b = inp.a.values, inp.b.values
    t = (a[0] - a[1]) * (a[1] - a[2]) * (a[2] - a[0])
    bb = (b[0] - b[1]) * (b[1] - b[2]) * (b[2] - b[0])
    base = n3_phase_table(inp.v).base
    d = det_direct(inp)
    assert abs(2j * t * bb * base - d) <= 1e-10 * max(1.0, abs(d))


# ---------------------------------------------------------------- J, R, expansion

def test_jr_identity_is_zero():
    jr = jr_matrices(UnitaryMatrix(np.eye(4)))
    assert np.all(jr.j_mat == 0.0)
    assert np.all(jr.r_mat == 0.0)


def test_jr_entries_match_scalar_phases_bitwise(rng):
    v = haar_unitary(4, rng)
    jr = jr_matrices(v)
    table = phase_table(v)
    assert jr.j_mat[0, 0] == table.im_value(1, 2, 1, 2)
    assert jr.j_mat[2, 1] == table.im_value(3, 4, 2, 3)
    assert jr.r_mat[1, 2] == table.re_value(2, 3, 3, 4)


def test_jr_requires_four_levels(rng):
    with pytest.raises(DimensionError):
        jr_matrices(haar_unitary(3, rng))


def test_expansion_spot_values(rng):
    # the three worked rows of the column expansion
    v = haar_unitary(4, rng)
    jr = jr_matrices(v)
    j = jr.j_mat
    expanded = expand_phases(jr)
    assert expanded.im_value(1, 2, 2, 4) == pytest.approx(j[0, 0] - j[0, 1], abs=1e-15)
    assert expanded.im_value(1, 2, 1, 4) == pytest.approx(
        -j[0, 0] + j[0, 1] - j[0, 2], abs=1e-15
    )
    assert expanded.im_value(1, 2, 1, 3) == pytest.approx(-j[0, 1] + j[0, 2], abs=1e-15)


def test_expansion_matches_direct_table(rng):
    for _ in range(50):
        v = haar_unitary(4, rng)
        table = phase_table(v)
        expanded = expand_phases(jr_matrices(v))
        for rp in table.canonical_pairs():
            for cp in table.canonical_pairs():
                direct = table.im_value(rp[0], rp[1], cp[0], cp[1])
                value = expanded.im_value(rp[0], rp[1], cp[0], cp[1])
                assert abs(value - direct) <= 1e-12


def test_expansion_table_has_no_real_parts(rng):
    expanded = expand_phases(jr_matrices(haar_unitary(4, rng)))
    with pytest.raises(KeyError):
        expanded.re_value(1, 2, 1, 2)


# ---------------------------------------------------------------- products

def test_product_identities_on_haar_samples(rng):
    for n in (3, 4):
        for _ in range(25):
            rep = nonlinear_relation_residuals(haar_unitary(n, rng))
            assert rep.max_residual() <= 1e-12


def test_product_identity_worked_example(rng):
    # re(12;12) im(12;23) + re(12;23) im(12;12) = re(12;22) im(12;13),
    # with the right side rewritten through the expansion of im(12;13)
    v = haar_unitary(4, rng)
    jr = jr_matrices(v)
    j, r = jr.j_mat, jr.r_mat
    lhs = r[0, 0] * j[0, 1] + r[0, 1] * j[0, 0]
    mod = abs(v.matrix[0, 1]) ** 2 * abs(v.matrix[1, 1]) ** 2
    rhs = mod * (-j[0, 1] + j[0, 2])
    assert abs(lhs - rhs) <= 1e-13


def test_product_identity_collapses_when_outer_columns_repeat(rng):
    # with l = j the mixed-rows identity reads
    #   re(ab;jk) im(ab;kj) + re(ab;kj) im(ab;jk) = re(ab;kk) im(ab;jj)
    # and antisymmetry makes both sides exactly zero
    t = phase_table(haar_unitary(4, rng))
    a, b, j, k = 1, 2, 1, 3
    lhs = t.re_value(a, b, j, k) * t.im_value(a, b, k, j)
    lhs += t.re_value(a, b, k, j) * t.im_value(a, b, j, k)
    rhs = t.re_value(a, b, k, k) * t.im_value(a, b, j, j)
    assert lhs == 0.0
    assert rhs == 0.0


def test_product_identities_real_orthogonal_residual_zero():
    rep = nonlinear_relation_residuals(orthogonal4())
    # all imaginary parts vanish exactly, so both mixed families are exact;
    # the real-product families cancel to roundoff
    assert rep.families["mixed_same_rows"] == 0.0
    assert rep.families["mixed_same_cols"] == 0.0
    assert rep.max_residual() <= 1e-13


# ---------------------------------------------------------------- reconstruction

def test_band_system_consistency(rng):
    # plugging the directly computed J into the system solves it
    for _ in range(20):
        v = haar_unitary(4, rng)
        jr = jr_matrices(v)
        coeff, rhs = band_system(v, jr)
        j = jr.j_mat
        unknowns = np.array([j[0, 1], j[0, 2], j[1, 0], j[1, 2], j[2, 0], j[2, 1]])
        assert np.max(np.abs(coeff @ unknowns - rhs)) <= 1e-13


def test_reconstruction_on_haar_samples(rng):
    gate_passes = 0
    for _ in range(50):
        res = reconstruct_J(haar_unitary(4, rng))
        if res.degenerate:
            continue
        gate_passes += 1
        scale = max(1.0, float(np.max(np.abs(res.j_direct))))
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
    assert np.all(res.j_direct == 0.0)
    assert np.max(np.abs(res.j_reconstructed)) <= 1e-12


def test_reconstruction_near_identity_is_flagged():
    eps = 1e-3
    m = (
        givens(4, 0, 1, eps, 0.3)
        @ givens(4, 1, 2, 1.3 * eps, 0.7)
        @ givens(4, 2, 3, 0.8 * eps, 1.1)
        @ givens(4, 0, 2, 0.6 * eps, 2.0)
    )
    res = reconstruct_J(UnitaryMatrix(m))
    assert res.degenerate or res.gate_ratio < 1e-4


def test_reconstruction_requires_four_levels(rng):
    with pytest.raises(DimensionError):
        reconstruct_J(haar_unitary(3, rng))


# ---------------------------------------------------------------- invariance

@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_invariants_survive_rephasing(seed):
    from jarlskog import RephasingAngles, rephase

    rng = SeededRng(seed)
    v = haar_unitary(4, rng)
    angles = RephasingAngles(
        tuple(rng.uniform() * 6.0 for _ in range(4)),
        tuple(rng.uniform() * 6.0 for _ in range(4)),
    )
    w = rephase(v, angles)
    t1, t2 = phase_table(v), phase_table(w)
    assert np.max(np.abs(t1.canonical(t1.im_tensor) - t2.canonical(t2.im_tensor))) <= 1e-12
    assert np.max(np.abs(t1.canonical(t1.re_tensor) - t2.canonical(t2.re_tensor))) <= 1e-12
    jr1, jr2 = jr_matrices(v), jr_matrices(w)
    assert np.max(np.abs(jr1.j_mat - jr2.j_mat)) <= 1e-13
    assert np.max(np.abs(jr1.r_mat - jr2.r_mat)) <= 1e-13
