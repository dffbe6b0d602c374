"""JSON helpers: config integer checks, canonical JSON, row-major matrix blocks,
atomic writes."""

from __future__ import annotations

import json
import numbers
import os
import tempfile

import numpy as np

from .errors import InvalidParameterError

__all__ = ["config_int", "encode_array", "dumps", "atomic_write_text", "csv_lines"]


def config_int(value, key: str, minimum: int | None = None) -> int:
    """value as an int if it is an integer (not a float or a bool) of at least
    minimum, when one is given; otherwise InvalidParameterError naming key."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameterError(f"{key!r} must be an integer{bound}, got {value!r}")
    return int(value)


def encode_array(arr: np.ndarray) -> dict:
    """Row-major flat encoding with explicit dims, stable across numpy versions."""
    arr = np.asarray(arr, dtype=float)
    return {"dims": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


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
