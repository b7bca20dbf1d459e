"""REPRO001 fixture: re-seeding the global numpy RNG is a global call too."""

import numpy as np


def hit():
    """Re-seeding global state couples unrelated call sites (flagged)."""
    np.random.seed(0)


def clean(seed):
    """Seed a generator of one's own (allowed)."""
    return np.random.default_rng(seed).random(3)


def suppressed(state):
    """Restoring global state with an inline waiver (suppressed)."""
    np.random.set_state(state)  # repro: noqa REPRO001
