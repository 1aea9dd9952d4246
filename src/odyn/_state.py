"""Internal helpers for state matrices and count-valued parameters.

States are N x d float64 matrices. Scalar per-node states may be passed as
1-d arrays; these helpers lift them to a single column and remember to
flatten the result back.
"""

from __future__ import annotations

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

    4.0 passes as 4. A fraction, NaN or a string is refused rather than
    truncated, as a step budget or a count compared against it would be wrong.
    """
    try:
        integral = value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
