"""No library arithmetic goes through BLAS or LAPACK.

Reports are byte-reproducible across platforms only if every result-bearing
operation runs in the package's own fixed order.  This scan fails if a
module under src/jarlskog references numpy's linalg module, np.dot or
np.matmul, or uses the @ operator.  Names in docstrings and comments do not
count; the package's own linalg module and matmul function do not either.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "jarlskog")
NUMPY = ("np", "numpy")
FORBIDDEN = ("linalg", "dot", "matmul")


def module_files():
    for folder, _, names in os.walk(PACKAGE):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def blas_uses(tree):
    """(line, what) of every BLAS/LAPACK route in a parsed module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
                and isinstance(node.value, ast.Name) and node.value.id in NUMPY):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "the @ operator"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.startswith("numpy.linalg") or (
                    node.module == "numpy" and any(a.name in FORBIDDEN for a in node.names)):
                yield node.lineno, f"from {node.module} import ..."


def test_blas_scan_catches_each_route():
    source = "\n".join((
        "import numpy as np",
        "import numpy.linalg",
        "from numpy import dot",
        "np.linalg.solve(a, b)",
        "np.dot(a, b)",
        "np.matmul(a, b)",
        "a @ b",
        "a @= b",
        "matmul(a, b)",
        "linalg.det(a)",
    ))
    assert sorted(line for line, _ in blas_uses(ast.parse(source))) == [2, 3, 4, 5, 6, 7, 8]


def test_no_module_calls_blas_or_lapack():
    found = []
    for path in module_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.relpath(path, ROOT)}:{line}: {what}"
                  for line, what in blas_uses(tree)]
    assert found == []
