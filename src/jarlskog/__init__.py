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
* phases      - plaquette invariants on the (2, K, T) plaquette store:
                the canonical phase table (phase_table), sum rules and
                product identities (unitary_relation_residuals,
                nonlinear_relation_residuals), the n = 3 single-phase
                structure (n3_phase_table), the n = 4 adjacent-index
                arrays J and R (jr_matrices) and the expansion of all 36
                phases from J (expand_phases, expansion_residual); band
                reconstruction of J for one matrix (reconstruct_J)
* verify      - seeded ensemble verification of every identity above
* cli         - the `jarlskog` command (det / phases / verify / sample)

Importing the package loads none of these modules: each public name below
is looked up in its defining module on first use (PEP 562), so that a
process compiles only the modules it runs.  `import jarlskog.cli` adds cli
alone, and each command loads its own modules when it runs (see cli).
"""

__version__ = "0.1.0"

#: the public names, by the module that defines them
_SOURCES = {
    "determinant": ("MassPairInput", "decompose_det4", "det3_closed", "det4_closed", "det_direct",
                    "t_factors"),
    "linalg": ("DegenerateSpectrumError", "DimensionError", "Spectrum", "UnitaryMatrix", "adjoint",
               "det", "matmul"),
    "phases": ("expand_phases", "expansion_residual", "jr_matrices", "n3_phase_table",
               "nonlinear_relation_residuals", "phase_table", "reconstruct_J",
               "unitary_relation_residuals"),
    "sampling": ("derive_seed", "draw_trials", "householder_qr", "rephase"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    """The public name `name`, imported from its defining module."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
