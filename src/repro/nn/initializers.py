"""Weight initialization for dense layers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_rng


def he_init(fan_in: int, fan_out: int, rng: SeedLike = None) -> np.ndarray:
    """He normal initialization, suited to ReLU layers."""
    rng = as_rng(rng)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))
