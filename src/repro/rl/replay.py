"""Experience replay buffer (Fig. 2's "Experience Pool").

The classic DQN trick (paper refs [24], [25]): store ``(S, A, r, S')``
transitions and sample minibatches uniformly to decorrelate updates.
States here are already-featurized vectors — the CrowdRL agent stores
per-(object, annotator) feature vectors, see :mod:`repro.core.state`.

Transitions live in arrays, one row each: the taken action's features,
the reward, and the id of a *successor slot*.  A slot holds one
successor array (the candidate action features of ``S'``), stored once
however many transitions share it, plus one cached value per slot that
the owner computes from it (the DQN's ``max_a' Q_target(S', a')``),
valid for one version of whatever computed it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_rng

#: Successor slot of a transition without successor (terminal); its
#: value is always 0.
NO_SUCCESSOR = 0
#: Rows (and slots) allocated on first use; both double as they fill.
_INITIAL_ROWS = 16


class Minibatch(NamedTuple):
    """Sampled transitions, one row each."""

    features: np.ndarray
    rewards: np.ndarray
    slots: np.ndarray


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    A successor array is kept by reference: pushing the same array object
    again while it is stored reuses its slot, so it must not change while
    stored.  The arrays grow with the buffer, up to ``capacity`` rows.
    """

    def __init__(self, capacity: int, rng: SeedLike = None) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._rng = as_rng(rng)
        self.clear()

    def __len__(self) -> int:
        return self._size

    def clear(self) -> None:
        """Drop every stored transition and successor, and reset the cursor."""
        self._size = 0
        self._next_row = 0
        self._features = np.empty((0, 0))
        self._rewards = np.empty(0)
        self._slots = np.empty(0, dtype=np.intp)
        # Per slot: the successor, how many rows use it, its cached value
        # and the version that value was computed at (-1: none; the
        # NO_SUCCESSOR slot is kept current with value 0).
        self._successors: list[Optional[np.ndarray]] = [None]
        self._refs = [0]
        self._values = np.zeros(1)
        self._value_versions = np.full(1, -1)
        self._slot_of: dict[int, int] = {}  # id(successor) -> slot
        self._free: list[int] = []
        # Unused slots whose value is current: kept, like their ids, until
        # the version moves, in case the same successor is pushed again.
        self._orphans: set[int] = set()
        self._version: Optional[int] = None

    # ------------------------------------------------------------------
    def push(self, features: np.ndarray, reward: float,
             successor: Optional[np.ndarray] = None) -> None:
        """Append a transition, overwriting the oldest row when full.

        ``successor`` is ``None`` for a terminal transition.
        """
        features = np.asarray(features, dtype=float).ravel()
        if not self._rewards.size:  # the first push fixes the width
            self._features = np.empty((0, features.size))
        if features.size != self._features.shape[1]:
            raise ConfigurationError(
                f"features must have {self._features.shape[1]} entries, got "
                f"{features.size}"
            )
        row = self._next_row
        slot = self._slot_for(successor)
        if self._size == self.capacity:
            self._release(int(self._slots[row]))
        else:
            if self._size == self._rewards.size:
                self._grow_rows()
            self._size += 1
        self._features[row] = features
        self._rewards[row] = reward
        self._slots[row] = slot
        self._next_row = (row + 1) % self.capacity

    def sample(self, batch_size: int) -> Minibatch:
        """Draw ``batch_size`` transitions uniformly (with replacement)."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be > 0, got {batch_size}")
        if not self._size:
            raise ConfigurationError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return Minibatch(self._features.take(idx, axis=0), self._rewards[idx],
                         self._slots[idx])

    def successor_values(self, slots: np.ndarray, version: int,
                         evaluate: Callable[[np.ndarray], float]) -> np.ndarray:
        """Each slot's value at ``version``, one entry per entry of ``slots``.

        ``evaluate(successor)`` runs once per (slot, version) and is cached
        until ``version`` moves; :data:`NO_SUCCESSOR` is 0.
        """
        if slots.ndim != 1:
            raise ConfigurationError(f"slots must be 1-D, got shape {slots.shape}")
        versions = self._value_versions
        if version != self._version:
            self._version = version
            versions[NO_SUCCESSOR] = version
            for slot in self._orphans:
                if self._refs[slot] == 0:
                    self._free_slot(slot)
            self._orphans.clear()
        for slot in slots[versions[slots] != version].tolist():
            if versions[slot] != version:  # not filled earlier in this loop
                self._values[slot] = evaluate(self._successors[slot])
                versions[slot] = version
        return self._values[slots]

    # ------------------------------------------------------------------
    # Read access to the stored rows (ring order, not push order)
    # ------------------------------------------------------------------
    @property
    def features(self) -> np.ndarray:
        return self._features[:self._size]

    @property
    def rewards(self) -> np.ndarray:
        return self._rewards[:self._size]

    @property
    def slots(self) -> np.ndarray:
        return self._slots[:self._size]

    def successor(self, slot: int) -> Optional[np.ndarray]:
        """The successor array held in ``slot`` (``None`` if terminal)."""
        return self._successors[slot]

    # ------------------------------------------------------------------
    def _grow_rows(self) -> None:
        rows = min(self.capacity, max(2 * self._rewards.size, _INITIAL_ROWS))
        self._features = _grown(self._features, rows)
        self._rewards = _grown(self._rewards, rows)
        self._slots = _grown(self._slots, rows)

    def _slot_for(self, successor: Optional[np.ndarray]) -> int:
        if successor is None:
            return NO_SUCCESSOR
        slot = self._slot_of.get(id(successor))
        if slot is None:
            if not self._free:
                self._grow_slots()
            slot = self._free.pop()
            self._slot_of[id(successor)] = slot
            self._successors[slot] = successor
            self._value_versions[slot] = -1
        self._refs[slot] += 1
        return slot

    def _grow_slots(self) -> None:
        start = len(self._successors)
        stop = max(2 * start, _INITIAL_ROWS)
        self._successors.extend([None] * (stop - start))
        self._refs.extend([0] * (stop - start))
        self._values = _grown(self._values, stop)
        self._value_versions = _grown(self._value_versions, stop)
        self._free.extend(range(stop - 1, start - 1, -1))

    def _release(self, slot: int) -> None:
        if slot == NO_SUCCESSOR:
            return
        self._refs[slot] -= 1
        if self._refs[slot] == 0:
            if self._value_versions[slot] == self._version:
                self._orphans.add(slot)
            else:
                self._free_slot(slot)

    def _free_slot(self, slot: int) -> None:
        del self._slot_of[id(self._successors[slot])]
        self._successors[slot] = None
        self._free.append(slot)


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` with its first axis extended to ``rows`` (new rows unset)."""
    out = np.empty((rows,) + array.shape[1:], dtype=array.dtype)
    out[:len(array)] = array
    return out
