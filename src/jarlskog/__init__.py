"""Commutator determinants and rephasing-invariant phases of mixing matrices.

Library layout:

* linalg      - small dense complex matrices, LU determinant, validated
                Spectrum / UnitaryMatrix types, the split real/imaginary
                product kernel behind every complex product
* sampling    - seeded splitmix64 streams and the one stacked draw of a
                trial (draw_trials): a Haar-random unitary, two random
                simple spectra and rephasing phases per seed; Householder
                QR (householder_qr) and the rephasing group action on a
                stack of matrices (rephase)
* determinant - the commutator determinant of a stack of problems: the
                direct oracle (det_direct), the closed forms for n = 3
                (det3_closed) and n = 4 (det4_closed, decompose_det4)
                and the difference-factor algebra (t_factors)
* phases      - plaquette invariants on the (2, T, K) plaquette store:
                the canonical phase table (phase_table), sum rules and
                product identities (unitary_relation_residuals,
                nonlinear_relation_residuals), the n = 3 single-phase
                structure (n3_phase_table), the n = 4 adjacent-index
                arrays J and R (jr_matrices) and the expansion of all 36
                phases from J (expand_phases, expansion_residual); band
                reconstruction of J for one matrix (reconstruct_J)
* verify      - seeded ensemble verification of every identity above
* cli         - the `jarlskog` command (det / phases / verify / sample)
"""

__version__ = "0.1.0"

from .determinant import (
    MassPairInput,
    decompose_det4,
    det3_closed,
    det4_closed,
    det_direct,
    t_factors,
)
from .linalg import (
    DegenerateSpectrumError,
    DimensionError,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    det,
    matmul,
)
from .phases import (
    expand_phases,
    expansion_residual,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    reconstruct_J,
    unitary_relation_residuals,
)
from .sampling import derive_seed, draw_trials, householder_qr, rephase

__all__ = [
    "DegenerateSpectrumError",
    "DimensionError",
    "MassPairInput",
    "Spectrum",
    "UnitaryMatrix",
    "__version__",
    "adjoint",
    "decompose_det4",
    "derive_seed",
    "det",
    "det3_closed",
    "det4_closed",
    "det_direct",
    "draw_trials",
    "expand_phases",
    "expansion_residual",
    "householder_qr",
    "jr_matrices",
    "matmul",
    "n3_phase_table",
    "nonlinear_relation_residuals",
    "phase_table",
    "reconstruct_J",
    "rephase",
    "t_factors",
    "unitary_relation_residuals",
]
