import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_input

from jarlskog import (
    DimensionError,
    MassPairInput,
    SeededRng,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    decompose_det4,
    det3_closed,
    det4_closed,
    det_direct,
    matmul,
    random_spectrum,
    t_factors,
)
from jarlskog.determinant import CYCLES, DET4_GROUPS, PAIRINGS, commutator_matrix


def identity_input(n):
    a = Spectrum(tuple(float(k) for k in range(1, n + 1)))
    b = Spectrum(tuple(-0.5 + 0.3 * k for k in range(n)))
    return MassPairInput(a=a, b=b, v=UnitaryMatrix(np.eye(n)))


def swapped(inp):
    """Exchange the two spectra and conjugate-transpose the mixing matrix."""
    return MassPairInput(a=inp.b, b=inp.a, v=UnitaryMatrix(adjoint(inp.v.matrix)))


# ---------------------------------------------------------------- commutator entries

def test_commutator_matrix_vanishes_on_diagonal():
    m = commutator_matrix(seeded_input(4, 31))
    for i in range(4):
        assert m[i, i] == 0j


def test_commutator_matrix_identity_mixing_vanishes_off_diagonal():
    m = commutator_matrix(identity_input(4))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert m[i, j] == 0j


def test_commutator_matrix_matches_matrix_product_oracle():
    # oracle: assemble D V D' V+ - V D' V+ D from explicit products
    inp = seeded_input(4, 77)
    d = np.diag(inp.a.values).astype(complex)
    dp = np.diag(inp.b.values).astype(complex)
    v = inp.v.matrix
    x = matmul(matmul(matmul(d, v), dp), adjoint(v)) - matmul(
        matmul(matmul(v, dp), adjoint(v)), d
    )
    assert np.max(np.abs(commutator_matrix(inp) - x)) <= 1e-13


def test_commutator_matrix_entries_anti_hermitian_bitwise():
    m = commutator_matrix(seeded_input(4, 5))
    for i in range(4):
        for j in range(4):
            assert m[j, i] == -m[i, j].conjugate()


# ---------------------------------------------------------------- direct det

def test_det_direct_identity_mixing_is_zero():
    assert det_direct(identity_input(3)) == 0j
    assert det_direct(identity_input(4)) == 0j


def test_det_direct_n3_is_purely_imaginary():
    for seed in range(20):
        d = det_direct(seeded_input(3, seed))
        assert abs(d.real) <= 1e-9 * abs(d) + 1e-12


def test_det_direct_n4_is_real():
    for seed in range(20):
        d = det_direct(seeded_input(4, seed))
        assert abs(d.imag) <= 1e-9 * abs(d) + 1e-12


def test_det_direct_sign_under_swap():
    # swapping the spectra and adjointing V negates the commutator, so the
    # determinant flips sign for n=3 and is preserved for n=4
    inp3 = seeded_input(3, 11)
    assert abs(det_direct(swapped(inp3)) + det_direct(inp3)) <= 1e-10 * abs(det_direct(inp3))
    inp4 = seeded_input(4, 11)
    assert abs(det_direct(swapped(inp4)) - det_direct(inp4)) <= 1e-10 * abs(det_direct(inp4))


# ---------------------------------------------------------------- n=3 closed

def test_det3_closed_real_orthogonal_is_exactly_zero():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    inp = MassPairInput(
        a=Spectrum((0.1, 0.5, 0.9)),
        b=Spectrum((-0.8, -0.1, 0.7)),
        v=UnitaryMatrix(r),
    )
    assert det3_closed(inp) == 0j


def test_det3_closed_identity_mixing_is_zero():
    assert det3_closed(identity_input(3)) == 0j


def test_det3_closed_matches_direct():
    for seed in range(100):
        inp = seeded_input(3, seed)
        d = det_direct(inp)
        c = det3_closed(inp)
        assert abs(c - d) <= 1e-10 * max(1.0, abs(d))


def test_det3_closed_wrong_dimension():
    with pytest.raises(DimensionError):
        det3_closed(seeded_input(4, 0))


def test_det3_degeneracy_limit_is_linear():
    # shrinking the first gap scales the determinant linearly; ratios
    # calibrated against det_direct at eps where the O(eps) correction from
    # the third difference factor is visible
    inp = seeded_input(3, 3)
    a1, a2, a3 = inp.a.values

    def at_eps(eps):
        shrunk = Spectrum((a2 + eps * (a1 - a2), a2, a3))
        return abs(det_direct(MassPairInput(a=shrunk, b=inp.b, v=inp.v)))

    d1, d2, d3 = at_eps(1e-1), at_eps(1e-2), at_eps(1e-3)
    assert abs(d2 / d1 * 10.0 - 1.0) < 0.25
    assert abs(d3 / d2 * 10.0 - 1.0) < 0.05


# ---------------------------------------------------------------- T factors

def test_t_factors_hand_values():
    tf = t_factors(Spectrum((0.0, 1.0, 2.0, 3.0)))
    assert PAIRINGS[0] == ((1, 2), (3, 4))
    assert PAIRINGS[2] == ((1, 4), (2, 3))
    assert tf.pair[0] == 1.0
    assert tf.pair[2] == 9.0


def test_t_factors_match_defining_products():
    # independent evaluation straight from the definitions
    s = random_spectrum(4, SeededRng(4))
    v = s.values

    def gap(i, j):
        return v[i - 1] - v[j - 1]

    tf = t_factors(s)
    assert len(tf.pair) == len(PAIRINGS) and len(tf.cycle) == len(CYCLES)
    for value, ((i, j), (k, l)) in zip(tf.pair, PAIRINGS):
        assert value == pytest.approx(gap(i, j) ** 2 * gap(k, l) ** 2, rel=1e-14)
    for value, (i, j, k, l) in zip(tf.cycle, CYCLES):
        assert value == pytest.approx(gap(i, j) * gap(j, k) * gap(k, l) * gap(l, i), rel=1e-14)


def test_t_factors_pair_values_nonnegative(rng):
    for _ in range(50):
        tf = t_factors(random_spectrum(4, rng))
        assert all(x >= 0.0 for x in tf.pair)


def test_t_factor_sum_rule_on_integers():
    tf = t_factors(Spectrum((0.0, 1.0, 2.0, 3.0)))
    assert tf.sum_rule_residual() == 0.0


def test_t_factor_sum_rule_over_ensemble(rng):
    for _ in range(2000):
        tf = t_factors(random_spectrum(4, rng))
        assert abs(tf.sum_rule_residual()) <= 1e-12 * tf.sum_rule_scale()


@settings(deadline=None, max_examples=50)
@given(st.floats(-100.0, 100.0))
def test_t_factors_translation_invariant(shift):
    base = Spectrum((-0.9, -0.2, 0.3, 0.8))
    moved = Spectrum(tuple(x + shift for x in base.values))
    tf0 = t_factors(base)
    tf1 = t_factors(moved)
    scale = max(1.0, abs(shift))
    for x0, x1 in (*zip(tf0.pair, tf1.pair), *zip(tf0.cycle, tf1.cycle)):
        assert x1 == pytest.approx(x0, rel=1e-10, abs=1e-12 * scale)


def test_t_factors_wrong_dimension():
    with pytest.raises(DimensionError):
        t_factors(Spectrum((0.0, 1.0, 2.0)))


# ---------------------------------------------------------------- n=4 closed

def test_det4_closed_identity_mixing_is_zero():
    assert det4_closed(identity_input(4)) == 0j


def test_det4_closed_matches_direct():
    for seed in range(100):
        inp = seeded_input(4, seed)
        d = det_direct(inp)
        c = det4_closed(inp)
        assert abs(c - d) <= 1e-9 * max(1.0, abs(d))


def test_det4_closed_imaginary_residue_is_roundoff():
    for seed in range(20):
        c = det4_closed(seeded_input(4, seed))
        assert abs(c.imag) <= 1e-12


def test_det4_closed_invariant_under_b_shift():
    inp = seeded_input(4, 9)
    shifted = MassPairInput(
        a=inp.a,
        b=Spectrum(tuple(x + 0.37 for x in inp.b.values)),
        v=inp.v,
    )
    base = det4_closed(inp)
    moved = det4_closed(shifted)
    assert abs(moved - base) <= 1e-10 * max(1.0, abs(base))


def test_det4_closed_invariant_under_swap():
    inp = seeded_input(4, 21)
    base = det4_closed(inp)
    other = det4_closed(swapped(inp))
    direct = det_direct(inp)
    assert abs(other - base) <= 1e-10 * max(1.0, abs(base))
    assert abs(other - direct) <= 1e-9 * max(1.0, abs(direct))


def test_det4_closed_wrong_dimension():
    with pytest.raises(DimensionError):
        det4_closed(seeded_input(3, 0))


# ---------------------------------------------------------------- decompose

def test_decompose_identity_mixing_all_groups_zero():
    parts = decompose_det4(identity_input(4))
    assert tuple(parts) == DET4_GROUPS
    assert all(z == 0j for z in parts.values())


def test_decompose_parts_sum_bitwise_to_closed_form():
    inp = seeded_input(4, 13)
    parts = decompose_det4(inp)
    acc = 0j
    for name in DET4_GROUPS:
        acc += parts[name]
    assert acc == det4_closed(inp)


def test_decompose_group_names_are_stable():
    assert DET4_GROUPS == (
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


# ---------------------------------------------------------------- commutator build

def test_commutator_matrix_is_anti_hermitian_bitwise():
    inp = seeded_input(4, 55)
    m = commutator_matrix(inp)
    assert np.array_equal(m, -adjoint(m))
