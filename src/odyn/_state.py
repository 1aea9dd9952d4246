"""Internal helpers for state matrices and config values.

States are N x d float64 matrices. Scalar per-node states may be passed as
1-d arrays; these helpers lift them to a single column and remember to
flatten the result back. Config values go through one reader per type:
number, integer (a count), boolean and string.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields

import numpy as np


def to_matrix(x):
    """Return (x as an N x d float64 matrix, was_flat flag)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim != 2:
        raise ValueError("state must be a vector or an N x d matrix")
    return x, False


def from_matrix(x, flat):
    """Undo to_matrix: drop the column axis when the input was 1-d."""
    return x[:, 0] if flat else x


def norm1(d):
    """Euclidean norm of one-column rows whose difference is d.

    The same arithmetic as np.linalg.norm on those rows, sqrt(d * d), which
    differs from |d| where d * d under- or overflows.
    """
    return np.sqrt(d * d)


def integer(value, name, minimum=1):
    """value as an int; ValueError naming `name` unless it is a whole number >= minimum.

    4.0 passes as 4. A fraction, NaN, a string or a boolean (NumPy's too) is refused
    rather than truncated, as a step budget or a count compared against it would be wrong.
    """
    try:
        integral = not isinstance(value, (bool, np.bool_)) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def number(value, name):
    """value as a float; ValueError naming `name` unless it is a finite number ("nan" is not)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # NaN, +-inf, ints beyond float
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def boolean(value, name):
    """value; ValueError naming `name` unless it is true or false ("false" is a string)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def string(value, name):
    """value; ValueError naming `name` unless it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


_READERS = {"float": number, "int": integer, "str": string}


def _key(f):
    """A field's config key: its metadata's "key" if it has one, else its name."""
    return f.metadata.get("key", f.name)


def config_keys(cls):
    """{key: reader} for each float, int and str field of cls."""
    return {_key(f): read for f in fields(cls)
            if (read := _READERS.get(getattr(f.type, "__name__", f.type)))}


def config_fields(cls, obj):
    """{field: value} of dataclass cls read from the config object obj.

    Each field in config_keys(cls) is read by its type's reader under its key.
    An absent key keeps the field's default; a field without one is a
    ValueError naming the key. Other fields are the caller's to give.
    """
    out, readers = {}, config_keys(cls)
    for f in fields(cls):
        key = _key(f)
        if key in readers and key in obj:
            out[f.name] = readers[key](obj[key], key)
        elif key in readers and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing config key {key!r}")
    return out
