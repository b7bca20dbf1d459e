"""Argument validation helpers shared across the library.

These raise :class:`repro.exceptions.ConfigurationError` with a message that
names the offending parameter, so misconfiguration surfaces at construction
time rather than deep inside an experiment run.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

_ATOL = 1e-6


def check_probability_matrix(mat: np.ndarray, name: str) -> np.ndarray:
    """Validate a square row-stochastic matrix (each row sums to one)."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigurationError(f"{name} must be square 2-D, got shape {arr.shape}")
    if np.any(arr < -_ATOL):
        raise ConfigurationError(f"{name} has negative entries")
    row_sums = arr.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-4):
        raise ConfigurationError(
            f"rows of {name} must sum to 1, got sums {np.round(row_sums, 4)}"
        )
    return arr
