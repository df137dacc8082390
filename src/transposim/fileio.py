"""State files: JSON with explicit [re, im] pairs and factor dimensions.

Schema: {"dims": [d1, d2, ...], "matrix": [[[re, im], ...], ...]} with rows in
row-major order.  Parsing rejects NaN/Inf and anything that fails the
density-matrix checks; serialization uses full-precision floats so a
write/parse round trip is exact.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import DensityMatrix, Operator


def _entry(pair) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ParseError(f"matrix entries must be [re, im] number pairs, got {pair!r}")
    if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
        raise ParseError(f"non-finite matrix entry {pair!r}")
    return complex(pair[0], pair[1])


def parse_state_file(path: str) -> DensityMatrix:
    """Load and validate a density matrix; names the failed check on rejection."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise ParseError(f"{path}: expected keys 'dims' and 'matrix'")
    try:
        dims = tuple(int(d) for d in doc["dims"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad dims: {exc}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ParseError(f"{path}: dims must be positive integers, got {dims}")
    total = int(np.prod(dims))
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != total or any(len(r) != total for r in rows):
        raise ParseError(f"{path}: matrix must be {total}x{total} for dims {dims}")
    mat = np.array([[_entry(c) for c in row] for row in rows])
    herm = float(np.abs(mat - mat.conj().T).max())
    if herm > 1e-10:
        raise ValidationError("hermitian", herm)
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError("trace", abs(tr - 1.0))
    eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    floor = -1e-9 * max(1e-30, float(np.abs(eigs).max()))
    if eigs[0] < floor:
        raise ValidationError("psd", float(-eigs[0]))
    return DensityMatrix(Operator(mat, dims))


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "matrix": [[[float(c.real), float(c.imag)] for c in row] for row in rho.mat],
    }


def save_state(rho: DensityMatrix, path: str) -> None:
    write_json(state_to_dict(rho), path)


def write_json(doc: dict, path: str) -> None:
    """Byte-stable JSON output: sorted keys, fixed indentation, trailing newline."""
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
