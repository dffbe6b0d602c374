"""JSON helpers: config number checks, the one JSON encoding of reports,
canonical JSON, atomic writes."""

from __future__ import annotations

import json
import numbers
import os
import sys
import tempfile

import numpy as np

from .errors import InvalidParameterError

__all__ = ["config_int", "config_float", "encode_array", "record", "dumps",
           "atomic_write_text", "csv_lines"]


def config_int(value, key: str, minimum: int | None = None) -> int:
    """value as an int if it is an integer (not a float or a bool) of at least
    minimum, when one is given; otherwise InvalidParameterError naming key."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameterError(f"{key!r} must be an integer{bound}, got {value!r}")
    return int(value)


def config_float(value, key: str) -> float:
    """value as a float if it is a number a float holds finitely (not a bool,
    a string, NaN or an infinity); otherwise InvalidParameterError naming key."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise InvalidParameterError(f"{key!r} must be a finite number, got {value!r}")
    return float(value)


def encode_array(arr: np.ndarray) -> dict:
    """Row-major flat encoding with explicit dims, stable across numpy versions."""
    arr = np.asarray(arr, dtype=float)
    return {"dims": list(arr.shape), "data": arr.reshape(-1).tolist()}


def record(obj, skip=(), **extra) -> dict:
    """The fields of record (NamedTuple) obj, less those named in skip and
    plus extra, as plain JSON values."""
    out = {name: value for name, value in zip(obj._fields, obj) if name not in skip}
    out.update(extra)
    return {key: _plain(value) for key, value in out.items()}


def _plain(obj):
    """The one JSON rule: a vector is a list of floats, a larger array an
    encode_array block, a report its to_json_dict (a record its fields),
    numpy scalars Python ones; None and Python scalars stay as they are."""
    if obj is None or isinstance(obj, (str, int, float)):  # first: lists hold many floats
        return obj
    if isinstance(obj, np.ndarray):
        return np.asarray(obj, dtype=float).tolist() if obj.ndim == 1 else encode_array(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if hasattr(obj, "_fields"):  # a record is a tuple, but encodes as an object
        return record(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, round-trip floats."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def atomic_write_text(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_lines(header: list, rows) -> str:
    """Flat CSV with repr-precision floats (round-trip exact)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
