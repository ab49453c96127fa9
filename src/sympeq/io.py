"""File formats: the shared matrix document and machine-readable reports.

A matrix is stored as a JSON document with fields ``rows``, ``cols`` and
``data`` (row-major flat list of decimal floats). Readers reject dimension
mismatches and entries that are not finite numbers (booleans, strings and
integers too large for a float included). Aggregate objects (bipartite
states, channels, spectra, decompositions) are documents with named matrix
fields; a state or channel document also carries its mode count ``n``, and
every matrix in it must be 2n x 2n.

Machine output is emitted by a small deterministic JSON writer that prints
every float with 17 significant digits, so identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from typing import Any

import numpy as np

from .canonical import CanonicalBlocks, Decomposition
from .gaussian import BipartiteCovariance, GaussianChannel
from .invariants import Invariant, InvariantSpectrum

__all__ = [
    "FormatError",
    "format_float",
    "dumps",
    "load_document",
    "save_document",
    "matrix_to_doc",
    "matrix_from_doc",
    "spectrum_to_doc",
    "blocks_to_doc",
    "decomposition_to_doc",
    "bipartite_to_doc",
    "bipartite_from_doc",
    "channel_to_doc",
    "channel_from_doc",
    "sha256_path",
]


class FormatError(Exception):
    """A document does not conform to the expected file format."""


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise FormatError("refusing to serialize a non-finite value")
    return "%.17g" % x


def dumps(value: Any) -> str:
    """Deterministic JSON text; floats carry 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    raise FormatError(f"cannot serialize value of type {type(value).__name__}")


def _reject_constant(token: str):
    raise FormatError(f"non-finite constant {token!r} rejected")


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not a valid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    return doc


def save_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def sha256_path(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# matrix documents
# ---------------------------------------------------------------------------


def matrix_to_doc(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [float(v) for v in a.reshape(-1)],
    }


def matrix_from_doc(doc: dict, name: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError(f"{name}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise FormatError(f"{name}: missing field {key!r}")
    rows, cols = doc["rows"], doc["cols"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (rows, cols)):
        raise FormatError(f"{name}: rows and cols must be positive integers")
    data = doc["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"{name}: data length {len(data) if isinstance(data, list) else '?'} "
            f"does not match rows*cols = {rows * cols}"
        )
    odd = [t for t in set(map(type, data)) if t is bool or not issubclass(t, numbers.Real)]
    if odd:
        first = next(type(v).__name__ for v in data if type(v) in odd)
        raise FormatError(f"{name}: data entries must be numbers, not {first}")
    try:
        arr = np.asarray(data, dtype=float).reshape(rows, cols)
    except OverflowError as exc:
        raise FormatError(f"{name}: data entries must fit a float: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{name}: non-finite entries rejected")
    return arr


# ---------------------------------------------------------------------------
# aggregate documents
# ---------------------------------------------------------------------------


def _invariant_to_doc(v: Invariant) -> dict:
    return {"re": float(v.re), "im": float(v.im), "kind": v.kind}


def spectrum_to_doc(spectrum: InvariantSpectrum) -> dict:
    return {
        "n": spectrum.n,
        "values": [_invariant_to_doc(v) for v in spectrum.values],
        "pairing_residual": spectrum.pairing_residual,
        "has_zero": spectrum.has_zero,
    }


def blocks_to_doc(blocks: CanonicalBlocks) -> dict:
    return {
        "n": blocks.n,
        "blocks": [_invariant_to_doc(v) for v in blocks.blocks],
        "matrix": matrix_to_doc(blocks.assembled),
    }


def decomposition_to_doc(d: Decomposition) -> dict:
    return {
        "s1": matrix_to_doc(d.s1),
        "s2": matrix_to_doc(d.s2),
        "n_matrix": matrix_to_doc(d.blocks.assembled),
        "blocks": [_invariant_to_doc(v) for v in d.blocks.blocks],
        "recon_residual": d.recon_residual,
        "s1_residual": d.s1_residual,
        "s2_residual": d.s2_residual,
    }


def bipartite_to_doc(g: BipartiteCovariance) -> dict:
    return {
        "n": g.n,
        "gamma_a": matrix_to_doc(g.gamma_a),
        "gamma_b": matrix_to_doc(g.gamma_b),
        "x": matrix_to_doc(g.x),
    }


def _mode_fields(doc: dict, kind: str, fields: tuple[str, ...]) -> tuple[int, list[np.ndarray]]:
    """``n`` and the named matrix fields of a mode document, each 2n x 2n."""
    for key in ("n", *fields):
        if key not in doc:
            raise FormatError(f"{kind} document missing field {key!r}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError("field 'n' must be a positive integer")
    mats = [matrix_from_doc(doc[key], key) for key in fields]
    for key, m in zip(fields, mats):
        if m.shape != (2 * n, 2 * n):
            raise FormatError(f"{key} must be {2 * n}x{2 * n} for n={n}")
    return n, mats


def bipartite_from_doc(doc: dict) -> BipartiteCovariance:
    n, (gamma_a, gamma_b, x) = _mode_fields(doc, "bipartite state", ("gamma_a", "gamma_b", "x"))
    return BipartiteCovariance(n=n, gamma_a=gamma_a, gamma_b=gamma_b, x=x)


def channel_to_doc(ch: GaussianChannel) -> dict:
    return {
        "n": ch.n,
        "x": matrix_to_doc(ch.x),
        "y": matrix_to_doc(ch.y),
        "validity_residual": ch.validity_residual,
    }


def channel_from_doc(doc: dict) -> GaussianChannel:
    _, (x, y) = _mode_fields(doc, "channel", ("x", "y"))
    return GaussianChannel.from_xy(x, y)
