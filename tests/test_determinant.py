import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seed_array, seeded_input, spectra, stack_of_one

from jarlskog import (
    DimensionError,
    MassPairInput,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    decompose_det4,
    det3_closed,
    det4_closed,
    det_direct,
    draw_trials,
    matmul,
    t_factors,
)
from jarlskog.determinant import CYCLES, DET4_GROUPS, PAIRINGS, _commutators, _sum_rule
from jarlskog.linalg import _validate_unitaries


def identity_input(n):
    a = Spectrum(tuple(float(k) for k in range(1, n + 1)))
    b = Spectrum(tuple(-0.5 + 0.3 * k for k in range(n)))
    return MassPairInput(a=a, b=b, v=UnitaryMatrix(np.eye(n)))


def swapped(inp):
    """Exchange the two spectra and conjugate-transpose the mixing matrix."""
    return MassPairInput(a=inp.b, b=inp.a, v=UnitaryMatrix(adjoint(inp.v.matrix)))


def seeded_stack(n, seeds):
    """(a, b, cols, plaq) of the trials of seeded_input for each of seeds,
    drawn as one stack."""
    v, a, b, _, _ = draw_trials(n, seed_array(seeds))
    return a, b, *_validate_unitaries(v)[1:]


def commutator(inp):
    """The commutator entries of one input, a stack of one."""
    return _commutators(*stack_of_one(inp)[:3])[0]


def direct(inp):
    """det_direct of one input, a stack of one."""
    a, b, cols, _ = stack_of_one(inp)
    return det_direct(a, b, cols)[0]


def closed(inp):
    """The closed form of one input's n, a stack of one."""
    a, b, cols, plaq = stack_of_one(inp)
    if inp.n == 3:
        return det3_closed(a, b, plaq)[0]
    return det4_closed(t_factors(a), b, cols, plaq)[0]


# ---------------------------------------------------------------- commutator entries

def test_commutator_matrix_vanishes_on_diagonal():
    m = commutator(seeded_input(4, 31))
    for i in range(4):
        assert m[i, i] == 0j


def test_commutator_matrix_identity_mixing_vanishes_off_diagonal():
    m = commutator(identity_input(4))
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
    assert np.max(np.abs(commutator(inp) - x)) <= 1e-13


def test_commutator_matrix_entries_anti_hermitian_bitwise():
    m = commutator(seeded_input(4, 5))
    for i in range(4):
        for j in range(4):
            assert m[j, i] == -m[i, j].conjugate()


# ---------------------------------------------------------------- direct det

def test_det_direct_identity_mixing_is_zero():
    assert direct(identity_input(3)) == 0j
    assert direct(identity_input(4)) == 0j


def test_det_direct_n3_is_purely_imaginary():
    d = det_direct(*seeded_stack(3, range(20))[:3])
    assert np.all(np.abs(d.real) <= 1e-9 * np.abs(d) + 1e-12)


def test_det_direct_n4_is_real():
    d = det_direct(*seeded_stack(4, range(20))[:3])
    assert np.all(np.abs(d.imag) <= 1e-9 * np.abs(d) + 1e-12)


def test_det_direct_sign_under_swap():
    # swapping the spectra and adjointing V negates the commutator, so the
    # determinant flips sign for n=3 and is preserved for n=4
    inp3 = seeded_input(3, 11)
    assert abs(direct(swapped(inp3)) + direct(inp3)) <= 1e-10 * abs(direct(inp3))
    inp4 = seeded_input(4, 11)
    assert abs(direct(swapped(inp4)) - direct(inp4)) <= 1e-10 * abs(direct(inp4))


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
    assert closed(inp) == 0j


def test_det3_closed_identity_mixing_is_zero():
    assert closed(identity_input(3)) == 0j


def test_det3_closed_matches_direct():
    a, b, cols, plaq = seeded_stack(3, range(100))
    d = det_direct(a, b, cols)
    c = det3_closed(a, b, plaq)
    assert np.all(np.abs(c - d) <= 1e-10 * np.maximum(1.0, np.abs(d)))


def test_det3_closed_wrong_dimension():
    a, b, _, plaq = seeded_stack(4, [0])
    with pytest.raises(DimensionError):
        det3_closed(a, b, plaq)


def test_det3_degeneracy_limit_is_linear():
    # shrinking the first gap scales the determinant linearly; ratios
    # calibrated against det_direct at eps where the O(eps) correction from
    # the third difference factor is visible
    inp = seeded_input(3, 3)
    a1, a2, a3 = inp.a.values

    def at_eps(eps):
        shrunk = Spectrum((a2 + eps * (a1 - a2), a2, a3))
        return abs(direct(MassPairInput(a=shrunk, b=inp.b, v=inp.v)))

    d1, d2, d3 = at_eps(1e-1), at_eps(1e-2), at_eps(1e-3)
    assert abs(d2 / d1 * 10.0 - 1.0) < 0.25
    assert abs(d3 / d2 * 10.0 - 1.0) < 0.05


# ---------------------------------------------------------------- T factors

def test_t_factors_hand_values():
    pair, _ = t_factors(np.array([[0.0, 1.0, 2.0, 3.0]]))
    assert PAIRINGS[0] == ((1, 2), (3, 4))
    assert PAIRINGS[2] == ((1, 4), (2, 3))
    assert pair[0, 0] == 1.0
    assert pair[0, 2] == 9.0


def test_t_factors_match_defining_products():
    # independent evaluation straight from the definitions
    s = seeded_input(4, 4).a
    v = s.values

    def gap(i, j):
        return v[i - 1] - v[j - 1]

    pair, cycle = (x[0] for x in t_factors(np.array([s.values])))
    assert len(pair) == len(PAIRINGS) and len(cycle) == len(CYCLES)
    for value, ((i, j), (k, l)) in zip(pair, PAIRINGS):
        assert value == pytest.approx(gap(i, j) ** 2 * gap(k, l) ** 2, rel=1e-14)
    for value, (i, j, k, l) in zip(cycle, CYCLES):
        assert value == pytest.approx(gap(i, j) * gap(j, k) * gap(k, l) * gap(l, i), rel=1e-14)


def test_t_factors_pair_values_nonnegative():
    pair, _ = t_factors(spectra(4, 50))
    assert np.all(pair >= 0.0)


def test_t_factor_sum_rule_on_integers():
    residual, _ = _sum_rule(*t_factors(np.array([[0.0, 1.0, 2.0, 3.0]])))
    assert residual[0] == 0.0


def test_t_factor_sum_rule_over_ensemble():
    s = spectra(4, 2000)
    residual, scale = _sum_rule(*t_factors(s))
    assert np.all(np.abs(residual) <= 1e-12 * scale)


@settings(deadline=None, max_examples=50)
@given(st.floats(-100.0, 100.0))
def test_t_factors_translation_invariant(shift):
    base = Spectrum((-0.9, -0.2, 0.3, 0.8))
    moved = Spectrum(tuple(x + shift for x in base.values))
    tf0, tf1 = (np.concatenate(t_factors(np.array([s.values])), axis=1)[0].tolist()
                for s in (base, moved))
    scale = max(1.0, abs(shift))
    for x0, x1 in zip(tf0, tf1):
        assert x1 == pytest.approx(x0, rel=1e-10, abs=1e-12 * scale)


# ---------------------------------------------------------------- n=4 closed

def test_det4_closed_identity_mixing_is_zero():
    assert closed(identity_input(4)) == 0j


def test_det4_closed_matches_direct():
    a, b, cols, plaq = seeded_stack(4, range(100))
    d = det_direct(a, b, cols)
    c = det4_closed(t_factors(a), b, cols, plaq)
    assert np.all(np.abs(c - d) <= 1e-9 * np.maximum(1.0, np.abs(d)))


def test_det4_closed_imaginary_residue_is_roundoff():
    a, b, cols, plaq = seeded_stack(4, range(20))
    c = det4_closed(t_factors(a), b, cols, plaq)
    assert np.all(np.abs(c.imag) <= 1e-12)


def test_det4_closed_invariant_under_b_shift():
    inp = seeded_input(4, 9)
    shifted = MassPairInput(
        a=inp.a,
        b=Spectrum(tuple(x + 0.37 for x in inp.b.values)),
        v=inp.v,
    )
    base = closed(inp)
    moved = closed(shifted)
    assert abs(moved - base) <= 1e-10 * max(1.0, abs(base))


def test_det4_closed_invariant_under_swap():
    inp = seeded_input(4, 21)
    base = closed(inp)
    other = closed(swapped(inp))
    d = direct(inp)
    assert abs(other - base) <= 1e-10 * max(1.0, abs(base))
    assert abs(other - d) <= 1e-9 * max(1.0, abs(d))


def n4_factors_on_n3_problem():
    """The t_factors of an n=4 a-spectrum with the b-spectrum, column
    products and plaquettes of an n=3 trial."""
    _, b, cols, plaq = seeded_stack(3, [0])
    return t_factors(seeded_stack(4, [0])[0]), b, cols, plaq


def test_det4_closed_wrong_dimension():
    with pytest.raises(DimensionError):
        det4_closed(*n4_factors_on_n3_problem())


def test_decompose_det4_wrong_dimension():
    with pytest.raises(DimensionError):
        decompose_det4(*n4_factors_on_n3_problem())


# ---------------------------------------------------------------- decompose

def test_decompose_identity_mixing_all_groups_zero():
    a, b, cols, plaq = stack_of_one(identity_input(4))
    parts, _ = decompose_det4(t_factors(a), b, cols, plaq)
    assert [x.shape for x in parts] == [(1, len(DET4_GROUPS))] * 2
    assert np.all(parts[0] == 0.0) and np.all(parts[1] == 0.0)


def test_decompose_parts_sum_bitwise_to_closed_form():
    a, b, cols, plaq = stack_of_one(seeded_input(4, 13))
    a_factors = t_factors(a)
    (re, im), _ = decompose_det4(a_factors, b, cols, plaq)
    acc = 0j
    for g in range(len(DET4_GROUPS)):
        acc += complex(re[0, g], im[0, g])
    assert acc == det4_closed(a_factors, b, cols, plaq)[0]


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
    m = commutator(inp)
    assert np.array_equal(m, -adjoint(m))
