"""No call on the verify, det and phases paths enters numpy's Python-level
wrappers, and no gather there indexes by a fixed table.

These commands run their kernels on stacks of a few trials, or of one, where
most of an op is numpy's per-call dispatch rather than arithmetic.  A
Python-level wrapper such as np.sum, np.max, np.stack, np.diagonal,
np.broadcast_to, np.eye or the ndarray methods .max, .sum, .all and .any
(which call numpy's _methods module) adds Python frames to every call on
top of the ndarray or ufunc method it calls.  The library calls that method
itself, with the same bits.  The first guard runs the three commands under
sys.setprofile and fails on any call into the modules that hold those
wrappers.

Advanced indexing by an index array costs 1.5 to 6 times what
ndarray.take on the flat table costs on these small stacks, for the same
copy (README, "Per-call cost").  The second guard scans the package's source and fails on any gather
(a subscript that reads) whose index holds a module-level table (a name
_UPPER...) or a _plaquette_layout(...) call.  Writes through a table, such
as fill[_CYCLE_ENTRIES] = ..., are not gathers.
"""

import ast
import contextlib
import io
import os
import re
import sys

import numpy as np

from test_no_blas import ROOT, module_files

from jarlskog.cli import main
from jarlskog.verify import run_suite

DATA = os.path.join(os.path.dirname(__file__), "data")
#: the modules of numpy's Python-level wrappers, as the ends of their paths
WRAPPER_MODULES = tuple(os.path.join("numpy", *m.split("/")) for m in (
    "_core/fromnumeric.py", "_core/shape_base.py", "lib/_stride_tricks_impl.py",
    "_core/_methods.py", "lib/_twodim_base_impl.py"))
#: a module-level index table's name
TABLE_NAME = re.compile(r"_[A-Z]")
#: the n = 3 and n = 4 problems in V form and in U/U_prime form
PROBLEMS = ("problem_n3_seed501.json", "problem_n4_seed2024.json",
            "problem_n3_uu_seed601.json", "problem_n4_uu_seed602.json")


def hot_paths():
    """The benchmark's verify ops at two master seeds, and det and phases
    on each problem."""
    for seed in (5, 615):
        run_suite(4, 4, seed)
        run_suite(3, 8, seed)
    for name in PROBLEMS:
        path = os.path.join(DATA, name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["det", path, "--method", "both"]) == 0
            assert main(["phases", path]) == 0


def wrapper_calls(fn):
    """'module:function <- caller file:line' of every call that fn makes
    into WRAPPER_MODULES."""
    found = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(WRAPPER_MODULES):
            caller = frame.f_back
            found.append(f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_code.co_name}"
                         f" <- {caller.f_code.co_filename}:{caller.f_lineno}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return found


def test_the_guard_sees_each_wrapper_module():
    def wrappers():
        x = np.zeros((2, 3))
        np.sum(x, axis=1)
        np.stack([x, x])
        np.broadcast_to(x, (4, 2, 3))
        x.max(axis=0)
        np.eye(3)

    calls = {c.split(":")[0] for c in wrapper_calls(wrappers)}
    assert calls == {"fromnumeric.py", "shape_base.py", "_stride_tricks_impl.py",
                     "_methods.py", "_twodim_base_impl.py"}


def test_verify_det_and_phases_call_no_numpy_wrapper():
    # a first, unprofiled pass builds the tables that are made on first use
    hot_paths()
    assert wrapper_calls(hot_paths) == []


def table_gathers(tree):
    """(line, source) of every reading subscript in a parsed module whose
    index holds a module-level table name or a _plaquette_layout call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            for part in ast.walk(node.slice):
                if (isinstance(part, ast.Name) and TABLE_NAME.match(part.id)) or (
                        isinstance(part, ast.Call) and isinstance(part.func, ast.Name)
                        and part.func.id == "_plaquette_layout"):
                    yield node.lineno, ast.unparse(node)
                    break


def test_the_gather_scan_catches_each_table_index():
    source = "\n".join((
        "atoms[:, _STAGE1]",
        "x[(..., _plaquette_layout(n)[1])]",
        "m2[_BAND_Q_TAKE[0]] * m2[_BAND_Q_TAKE[1]]",
        "fill[_CYCLE_ENTRIES] = y",
        "fill[:, _CYCLE_ENTRIES] += y",
        "atoms.take(_STAGE1, axis=1)",
        "_ATOMS[x] + _BAND_Q_TAKE[0]",
        "sums[:, 18:21]",
        "x[index]",
    ))
    assert sorted(line for line, _ in table_gathers(ast.parse(source))) == [1, 2, 3, 3]


def test_no_gather_indexes_by_a_table():
    found = []
    for path in module_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.relpath(path, ROOT)}:{line}: {what}"
                  for line, what in table_gathers(tree)]
    assert found == []
