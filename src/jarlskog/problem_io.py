"""Problem files: two spectra plus a mixing matrix, as versioned JSON.

Schema (format "jarlskog-problem/1"):

    {
      "format": "jarlskog-problem/1",
      "n": 4,
      "a": [...n reals...],
      "b": [...n reals...],
      "V": [[[re, im], ...], ...]          # n x n, row-major
    }

or, instead of "V", the pair "U" / "U_prime" of diagonalising unitaries, in
which case V = adjoint(U) U_prime, formed after both pass unitarity
validation, must pass it too.  Exactly one of the two forms must be given.

Complex numbers are serialised as two-element [re, im] arrays.  Floats are
written with Python's shortest round-trip repr, so parsing a written file
reproduces every value bit-for-bit.
"""

from __future__ import annotations

import json

import numpy as np

from .determinant import MassPairInput
from .linalg import Spectrum, UnitaryMatrix, adjoint, matmul

FORMAT_TAG = "jarlskog-problem/1"


class ProblemFileError(ValueError):
    """Malformed problem file; message names the offending field."""


def _require(cond, message):
    if not cond:
        raise ProblemFileError(message)


def _parse_complex_matrix(raw, n, name):
    _require(isinstance(raw, list) and len(raw) == n, f"field '{name}' must be a list of {n} rows")
    m = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(raw):
        _require(
            isinstance(row, list) and len(row) == n,
            f"field '{name}' row {i + 1} must have {n} entries",
        )
        for j, cell in enumerate(row):
            _require(
                isinstance(cell, list)
                and len(cell) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell),
                f"field '{name}' entry ({i + 1},{j + 1}) must be a [re, im] pair",
            )
            m[i, j] = complex(_float(cell[0], name), _float(cell[1], name))
    return m


def _float(x, name):
    """float(x) for a JSON number; an integer too large for a float is a
    ProblemFileError naming the field, not an OverflowError."""
    try:
        return float(x)
    except OverflowError:
        raise ProblemFileError(f"field '{name}' holds an integer too large for a float") from None


def _parse_spectrum(raw, n, name):
    _require(
        isinstance(raw, list) and len(raw) == n,
        f"field '{name}' must be a list of {n} reals",
    )
    _require(
        all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw),
        f"field '{name}' must contain only numbers",
    )
    values = tuple(_float(x, name) for x in raw)
    try:
        return Spectrum(values)
    except ValueError as exc:
        raise ProblemFileError(f"field '{name}': {exc}") from exc


def _unitary(m, what):
    """UnitaryMatrix(m), or a ProblemFileError that names what m is."""
    try:
        return UnitaryMatrix(m)
    except ValueError as exc:
        raise ProblemFileError(f"{what}: {exc}") from exc


def _parse_unitary(doc, n, name):
    return _unitary(_parse_complex_matrix(doc[name], n, name), f"field '{name}'")


def parse_problem(text):
    """Parse problem-file text into a MassPairInput."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError:
        raise ProblemFileError("not valid JSON: nested too deeply to parse") from None
    except ValueError as exc:
        # json turns integers of more digits than sys.get_int_max_str_digits()
        # into a ValueError of its own
        raise ProblemFileError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be a JSON object")
    _require(doc.get("format") == FORMAT_TAG, f"field 'format' must be '{FORMAT_TAG}'")
    n = doc.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool), "field 'n' must be an integer")
    a = _parse_spectrum(doc.get("a"), n, "a")
    b = _parse_spectrum(doc.get("b"), n, "b")

    has_v = "V" in doc
    has_uu = "U" in doc or "U_prime" in doc
    _require(
        has_v != has_uu,
        "exactly one of 'V' or the pair 'U'/'U_prime' must be given",
    )
    if has_v:
        v = _parse_unitary(doc, n, "V")
    else:
        _require("U" in doc and "U_prime" in doc, "'U' and 'U_prime' must be given together")
        u, up = _parse_unitary(doc, n, "U"), _parse_unitary(doc, n, "U_prime")
        v = _unitary(matmul(adjoint(u.matrix), up.matrix), "the product V = U^+ U_prime")
    try:
        return MassPairInput(a=a, b=b, v=v)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_problem(text)


def _matrix_payload(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def render_problem(inp):
    """Serialise a MassPairInput to problem-file text (V form)."""
    doc = {
        "format": FORMAT_TAG,
        "n": inp.n,
        "a": list(inp.a.values),
        "b": list(inp.b.values),
        "V": _matrix_payload(inp.v.matrix),
    }
    return json.dumps(doc, indent=2) + "\n"
