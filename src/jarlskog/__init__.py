"""Commutator determinants and rephasing-invariant phases of mixing matrices.

Library layout:

* linalg      - small dense complex matrices, LU determinant, Jacobi
                eigensolver, validated Spectrum / UnitaryMatrix types, the
                split real/imaginary product kernel behind every plaquette
* sampling    - seeded splitmix64 stream, Haar-random unitaries, random
                simple spectra, the rephasing group action
* determinant - the commutator determinant: direct oracle plus closed
                forms for n = 3 and n = 4 with their difference-factor
                algebra
* phases      - plaquette invariants, sum rules, the n = 3 single-phase
                structure, the n = 4 expansion from the adjacent-index J
                array, product identities, band reconstruction of J
* verify      - seeded ensemble verification of every identity above
* cli         - the `jarlskog` command (det / phases / verify / sample)
"""

__version__ = "0.1.0"

from .determinant import (
    MassPairInput,
    TFactors,
    cycle_groups,
    decompose_det4,
    det3_closed,
    det4_closed,
    det_direct,
    t_factors,
)
from .linalg import (
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    commutator,
    det,
    hermitian_from_spectrum,
    jacobi_eig,
    matmul,
)
from .phases import (
    JRMatrices,
    PhaseTable,
    PlaquetteIndex,
    SingleLevelPhaseReport,
    expand_phases,
    expansion_residual,
    im_phase,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
    plaquette,
    re_phase,
    reconstruct_J,
    unitary_relation_residuals,
)
from .sampling import (
    RephasingAngles,
    SeededRng,
    derive_seed,
    ginibre,
    haar_unitary,
    random_spectrum,
    rephase,
)

__all__ = [
    "ConvergenceError",
    "DegenerateSpectrumError",
    "DimensionError",
    "JRMatrices",
    "MassPairInput",
    "PhaseTable",
    "PlaquetteIndex",
    "RephasingAngles",
    "SeededRng",
    "SingleLevelPhaseReport",
    "Spectrum",
    "TFactors",
    "UnitaryMatrix",
    "__version__",
    "adjoint",
    "commutator",
    "cycle_groups",
    "decompose_det4",
    "derive_seed",
    "det",
    "det3_closed",
    "det4_closed",
    "det_direct",
    "expand_phases",
    "expansion_residual",
    "ginibre",
    "haar_unitary",
    "hermitian_from_spectrum",
    "im_phase",
    "jacobi_eig",
    "jr_matrices",
    "matmul",
    "n3_phase_table",
    "nonlinear_relation_residuals",
    "phase_table",
    "plaquette",
    "random_spectrum",
    "re_phase",
    "reconstruct_J",
    "rephase",
    "t_factors",
    "unitary_relation_residuals",
]
