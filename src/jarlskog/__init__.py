"""Commutator determinants and rephasing-invariant phases of mixing matrices.

Library layout:

* linalg      - small dense complex matrices, LU determinant, validated
                Spectrum / UnitaryMatrix types, the split real/imaginary
                product kernel behind every complex product
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
    DegenerateSpectrumError,
    DimensionError,
    Spectrum,
    UnitaryMatrix,
    adjoint,
    det,
    matmul,
)
from .phases import (
    JRMatrices,
    PhaseTable,
    SingleLevelPhaseReport,
    expand_phases,
    expansion_residual,
    jr_matrices,
    n3_phase_table,
    nonlinear_relation_residuals,
    phase_table,
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
    "DegenerateSpectrumError",
    "DimensionError",
    "JRMatrices",
    "MassPairInput",
    "PhaseTable",
    "RephasingAngles",
    "SeededRng",
    "SingleLevelPhaseReport",
    "Spectrum",
    "TFactors",
    "UnitaryMatrix",
    "__version__",
    "adjoint",
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
    "jr_matrices",
    "matmul",
    "n3_phase_table",
    "nonlinear_relation_residuals",
    "phase_table",
    "random_spectrum",
    "reconstruct_J",
    "rephase",
    "t_factors",
    "unitary_relation_residuals",
]
