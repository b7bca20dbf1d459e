"""Experience replay buffer (Fig. 2's "Experience Pool").

The classic DQN trick (paper refs [24], [25]): store ``(S, A, r, S')``
transitions and sample minibatches uniformly to decorrelate updates.
States here are already-featurized vectors — the CrowdRL agent stores
per-(object, annotator) feature vectors, see :mod:`repro.core.state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class Transition:
    """One replayable experience.

    ``next_features`` holds the candidate action feature vectors available
    in the successor state (used to form ``max_a' Q(S', a')``); ``terminal``
    marks the episode end, where the bootstrap term is dropped.
    """

    features: np.ndarray
    reward: float
    next_features: Optional[np.ndarray]
    terminal: bool


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int, rng: SeedLike = None) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._storage: list[Transition] = []
        self._next_slot = 0
        self._rng = as_rng(rng)

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        """Append a transition, overwriting the oldest slot when full."""
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._next_slot] = transition
        self._next_slot = (self._next_slot + 1) % self.capacity

    def sample(self, batch_size: int) -> list[Transition]:
        """Draw ``batch_size`` transitions uniformly (with replacement)."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be > 0, got {batch_size}")
        if not self._storage:
            raise ConfigurationError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, len(self._storage), size=batch_size)
        return [self._storage[i] for i in idx]

    def clear(self) -> None:
        """Drop every stored transition and reset the write cursor."""
        self._storage.clear()
        self._next_slot = 0
