"""The random draws take log, cos and sin from libm only.

The Box-Muller normals and the rephasing phases call math.log, math.cos and
math.sin on each entry.  numpy's own loops for these functions are not
libm and round differently on some inputs (np.log and math.log differ in
the last bit on a share of doubles), so using them would move the bits of
every draw and of every report built on one.  This scan fails if the
sampler or verify references numpy's log, log1p, exp, cos or sin, as an
attribute or an import.  Names in docstrings and comments do not count.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = [os.path.join(ROOT, "src", "jarlskog", name) for name in ("sampling.py", "verify.py")]
NUMPY = ("np", "numpy")
FORBIDDEN = ("log", "log1p", "exp", "cos", "sin")


def numpy_transcendentals(tree):
    """(line, what) of every reference to a numpy transcendental loop."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
                and isinstance(node.value, ast.Name) and node.value.id in NUMPY):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in FORBIDDEN:
                    yield node.lineno, f"from numpy import {alias.name}"


def test_scan_catches_each_numpy_transcendental():
    source = "\n".join((
        "import math",
        "import numpy as np",
        "np.log(x)",
        "np.log1p(x)",
        "numpy.exp(x)",
        "np.cos(x)",
        "f = np.sin",
        "from numpy import log",
        "from numpy import cos as c",
        "math.log(x)",
        "np.sqrt(x)",
        "np.remainder(x, y)",
        "rng.log(x)",
    ))
    assert sorted(line for line, _ in numpy_transcendentals(ast.parse(source))) == [3, 4, 5, 6, 7, 8, 9]


def test_draws_use_libm_for_transcendentals():
    found = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.relpath(path, ROOT)}:{line}: {what}"
                  for line, what in numpy_transcendentals(tree)]
    assert found == []
