"""JSON helpers: the one check of a config block, the one JSON encoding of
reports, canonical JSON, atomic writes."""

from __future__ import annotations

import json
import numbers
import os
import sys
import tempfile

import numpy as np

from .errors import InvalidParameterError

__all__ = ["config_int", "config_float", "config_block", "encode_array", "record", "dumps",
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


# the JSON name of each type a config value is checked by isinstance for
_KINDS = {bool: "true or false", str: "a string", dict: "an object"}


def config_block(block, declared: dict, where: str, **minimum) -> dict:
    """block, a JSON object, as a dict of every key of declared, typed.

    declared maps each key to its default or, for a required key, its type
    (for a required list, a tuple of its entries' type).  A given value is
    typed by its default's type: an int by config_int, at least minimum[key]
    when given; a float by config_float; a tuple as a list whose entries are
    typed like the default's first; a bool, a str or a dict by isinstance;
    a None default and the type object take any value.  A block that is not
    an object, an unknown key, a missing required key and a mistyped value
    raise InvalidParameterError naming them.
    """
    if not isinstance(block, dict):
        raise InvalidParameterError(f"{where!r} must be an object, got {block!r}")
    if unknown := set(block) - set(declared):
        raise InvalidParameterError(f"unknown {where} keys: {sorted(unknown)}")
    if missing := [key for key, like in declared.items() if key not in block and isinstance(
            like[0] if isinstance(like, tuple) else like, type)]:
        raise InvalidParameterError(f"missing {where} keys: {missing}")
    return {key: _typed(block[key], key, like, minimum.get(key)) if key in block else like
            for key, like in declared.items()}


def _typed(value, key: str, like, minimum):
    """value checked and converted by like, a default or a type (config_block's rule)."""
    kind = like if isinstance(like, type) else type(like)
    if kind is int:
        return config_int(value, key, minimum)
    if kind is float:
        return config_float(value, key)
    if kind is tuple:
        if not isinstance(value, (str, dict)):
            try:
                return tuple(_typed(entry, key, like[0], minimum) for entry in value)
            except TypeError:  # not iterable
                pass
        raise InvalidParameterError(f"{key!r} must be a list, got {value!r}")
    if kind in _KINDS and not isinstance(value, kind):
        raise InvalidParameterError(f"{key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


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
