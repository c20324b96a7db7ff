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
which case V = adjoint(U) U_prime.  Exactly one of the two forms must be
given.

Parsing works in whole-array steps.  Each matrix field is checked in one
pass over its rows and one over its cells, then built by one float64 array
build viewed as complex.  Only when a check or the build fails does a scan
in reading order find the first row or entry to name.  U, U_prime and V,
formed from them, are validated as one stack, and V's UnitaryMatrix is
built from that one validation's results.  So the fault named is the first
of: the structure of each field in turn, then the unitarity of U, of
U_prime and of V.

Complex numbers are serialised as two-element [re, im] arrays.  Floats are
written with Python's shortest round-trip repr, so parsing a written file
reproduces every value bit-for-bit.
"""

from __future__ import annotations

import json

import numpy as np

from .determinant import MassPairInput
from .linalg import (Spectrum, UnitaryMatrix, _InvalidUnitary, _validate_unitaries, adjoint,
                     matmul)

FORMAT_TAG = "jarlskog-problem/1"


class ProblemFileError(ValueError):
    """Malformed problem file; message names the offending field."""


def _require(cond, message):
    if not cond:
        raise ProblemFileError(message)


#: the types json gives a JSON number; a bool is not a number here
_NUMBER = frozenset((int, float))


def _too_large(name):
    return ProblemFileError(f"field '{name}' holds an integer too large for a float")


def _parse_complex_matrix(raw, n, name):
    """The n x n complex matrix of a field of [re, im] pairs, built as one
    array; each entry is bit-equal to complex(float(re), float(im))."""
    _require(type(raw) is list and len(raw) == n, f"field '{name}' must be a list of {n} rows")
    if all(type(row) is list and len(row) == n for row in raw):
        # the parts of every two-element cell, so 2 n^2 of them when no cell
        # has another shape
        parts = [x for row in raw for cell in row if type(cell) is list and len(cell) == 2
                 for x in cell]
        if len(parts) == 2 * n * n and _NUMBER.issuperset(map(type, parts)):
            try:
                return np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)
            except OverflowError:
                pass
    raise _first_fault(raw, n, name)


def _first_fault(raw, n, name):
    """The ProblemFileError for the first row or entry of raw, in reading
    order, that the array build in _parse_complex_matrix cannot take."""
    try:
        for i, row in enumerate(raw, 1):
            if not (type(row) is list and len(row) == n):
                return ProblemFileError(f"field '{name}' row {i} must have {n} entries")
            for j, cell in enumerate(row, 1):
                if not (type(cell) is list and len(cell) == 2
                        and _NUMBER.issuperset(map(type, cell))):
                    return ProblemFileError(
                        f"field '{name}' entry ({i},{j}) must be a [re, im] pair")
                float(cell[0]), float(cell[1])
    except OverflowError:
        return _too_large(name)
    raise AssertionError(f"field '{name}' has no fault to name")


def _parse_spectrum(raw, n, name):
    _require(
        type(raw) is list and len(raw) == n,
        f"field '{name}' must be a list of {n} reals",
    )
    _require(_NUMBER.issuperset(map(type, raw)), f"field '{name}' must contain only numbers")
    try:
        return Spectrum(tuple(raw))
    except OverflowError:
        raise _too_large(name) from None
    except ValueError as exc:
        raise ProblemFileError(f"field '{name}': {exc}") from exc


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
        stack, names = _parse_complex_matrix(doc["V"], n, "V")[None], ("field 'V'",)
    else:
        _require("U" in doc and "U_prime" in doc, "'U' and 'U_prime' must be given together")
        u, u_prime = (_parse_complex_matrix(doc[name], n, name) for name in ("U", "U_prime"))
        # a V that overflows comes from a U or U_prime that fails first
        with np.errstate(all="ignore"):
            stack = np.array([u, u_prime, matmul(adjoint(u), u_prime)])
        names = ("field 'U'", "field 'U_prime'", "the product V = U^+ U_prime")
    try:
        validated = _validate_unitaries(stack)
    except _InvalidUnitary as exc:
        raise ProblemFileError(f"{names[exc.index]}: {exc}") from exc
    v = UnitaryMatrix._from_stack(stack, validated, -1)
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
    return np.stack([m.real, m.imag], axis=-1).tolist()


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
