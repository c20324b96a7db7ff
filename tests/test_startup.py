"""What a process loads: the package's public surface, and the modules of
the package that each command imports.

Every module a process imports is compiled from source when no bytecode
cache is written, so a command that loads a module it does not run pays
for it in start-up time.
"""

import os
import subprocess
import sys

import pytest

import jarlskog
from jarlskog import determinant, linalg, phases, sampling

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PROBLEM = os.path.join(DATA, "problem_n3_seed501.json")

#: the public names of the package, by defining module
PUBLIC = {
    determinant: ("MassPairInput", "decompose_det4", "det3_closed", "det4_closed", "det_direct",
                  "t_factors"),
    linalg: ("DegenerateSpectrumError", "DimensionError", "Spectrum", "UnitaryMatrix", "adjoint",
             "det", "matmul"),
    phases: ("expand_phases", "expansion_residual", "jr_matrices", "n3_phase_table",
             "nonlinear_relation_residuals", "phase_table", "reconstruct_J",
             "unitary_relation_residuals"),
    sampling: ("derive_seed", "draw_trials", "householder_qr", "rephase"),
}
SUBMODULES = {"cli", "determinant", "linalg", "phases", "problem_io", "sampling", "verify"}


def test_public_surface_is_the_names_of_the_defining_modules():
    names = sorted([name for group in PUBLIC.values() for name in group] + ["__version__"])
    assert jarlskog.__all__ == names
    # dir lists every public name, and otherwise only dunders, private
    # names and the submodules loaded so far
    listed = dir(jarlskog)
    assert listed == sorted(listed)
    assert set(names) <= set(listed)
    assert {x for x in listed if not x.startswith("_")} - set(names) <= SUBMODULES
    star = {}
    exec("from jarlskog import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    for module, group in PUBLIC.items():
        for name in group:
            assert getattr(jarlskog, name) is getattr(module, name) is star[name], name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'verify_all'"):
        jarlskog.verify_all
    assert not hasattr(jarlskog, "_MASK64")
    with pytest.raises(ImportError):
        exec("from jarlskog import no_such_name", {})


#: the three parts of a fresh interpreter's run: import the CLI, run one
#: command through main (left out for the import alone), then print the
#: jarlskog.* entries of sys.modules and whether json was imported
IMPORT = "import sys\nfrom jarlskog.cli import main\n"
RUN = """
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
"""
REPORT = "print(*sorted(m for m in sys.modules if m.startswith('jarlskog')), 'json' in sys.modules)"

#: the modules of the package each command loads, after jarlskog and cli
LOADED = {
    "import": (None, set()),
    "det": (["det", PROBLEM], {"problem_io", "linalg", "determinant"}),
    "phases": (["phases", PROBLEM], {"problem_io", "linalg", "determinant", "phases"}),
    "verify": (["verify", "--trials", "4"],
               {"linalg", "determinant", "phases", "sampling", "verify"}),
    "sample": (["sample", "--n", "3"], {"sampling", "linalg", "problem_io", "determinant"}),
    "version": (["--version"], set()),
    "usage_error": (["det"], set()),
}


@pytest.mark.parametrize("command", LOADED)
def test_each_command_loads_only_the_modules_it_runs(command):
    argv, expected = LOADED[command]
    code = IMPORT + (RUN if argv is not None else "") + REPORT
    res = subprocess.run([sys.executable, "-c", code, *(argv or [])],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    *modules, json_loaded = res.stdout.split()
    assert modules == sorted(["jarlskog", "jarlskog.cli"] + [f"jarlskog.{m}" for m in expected])
    # json is problem_io's: verify, --version and usage errors read no file
    assert json_loaded == str("problem_io" in expected)
