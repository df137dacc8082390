"""State files: JSON with explicit [re, im] pairs and factor dimensions.

Schema: {"dims": [d1, d2, ...], "matrix": [[[re, im], ...], ...]} with rows in
row-major order.  Parsing rejects NaN/Inf and anything that fails the
density-matrix checks; serialization uses full-precision floats so a
write/parse round trip is exact.  Fiducial files share the strict [re, im]
codec, the integer reader and `write_json` defined here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .linalg import DensityMatrix


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _integer(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _entry(pair) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ParseError(f"entries must be [re, im] number pairs, got {pair!r}")
    try:
        value = complex(pair[0], pair[1])
    except OverflowError:  # a JSON integer beyond the float range
        raise ParseError(f"entry out of range {pair!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"non-finite entry {pair!r}")
    return value


def _vector(row) -> np.ndarray:
    """A JSON list of [re, im] pairs as a complex vector."""
    if not isinstance(row, list):
        raise ParseError(f"expected a list of [re, im] pairs, got {row!r}")
    return np.array([_entry(c) for c in row], dtype=complex)


def _matrix(rows, size: int, what: str) -> np.ndarray:
    """A JSON size x size grid of [re, im] pairs as a complex matrix."""
    if (
        not isinstance(rows, list)
        or len(rows) != size
        or any(not isinstance(r, list) or len(r) != size for r in rows)
    ):
        raise ParseError(f"{what} must be {size}x{size}")
    return np.array([_vector(row) for row in rows], dtype=complex).reshape(size, size)


def _pairs(vec) -> list[list[float]]:
    """The [re, im] pairs of a complex vector, at full precision."""
    return [[float(c.real), float(c.imag)] for c in vec]


def parse_state_file(path: str) -> DensityMatrix:
    """Load a density matrix; `DensityMatrix` names the failed check on rejection."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise ParseError(f"{path}: expected keys 'dims' and 'matrix'")
    if not isinstance(doc["dims"], list):
        raise ParseError(f"{path}: bad dims: expected a list, got {doc['dims']!r}")
    dims = tuple(_integer(d, f"{path}: each of dims") for d in doc["dims"])
    if not dims or any(d < 1 for d in dims):
        raise ParseError(f"{path}: dims must be positive integers, got {dims}")
    mat = _matrix(doc["matrix"], math.prod(dims), f"{path}: the matrix for dims {dims}")
    return DensityMatrix(mat, dims)


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "matrix": [_pairs(row) for row in rho.mat],
    }


def save_state(rho: DensityMatrix, path: str) -> None:
    write_json(state_to_dict(rho), path)


def write_json(doc: dict, path: str) -> None:
    """Byte-stable JSON output: sorted keys, fixed indentation, trailing newline.

    Every file the package writes goes through here, so a path that cannot be
    written (a missing directory, say) is a ParseError.  The document is
    serialized before the target is opened: one that cannot be serialized
    raises and leaves the target as it was.
    """
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
