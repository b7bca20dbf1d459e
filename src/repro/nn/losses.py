"""The Huber loss with its analytic gradient, for DQN TD errors.

``value(pred, target)`` is the mean over the batch of the per-row summed
Huber loss, and ``grad(pred, target)`` is its derivative w.r.t. ``pred``.
"""

from __future__ import annotations

import numpy as np

#: Error magnitude at which the loss turns from quadratic to linear.
DELTA = 1.0


class HuberLoss:
    """Huber loss, the standard choice for stabilising DQN TD errors."""

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        """Mean Huber loss over the batch."""
        pred = np.asarray(pred, float)
        target = np.asarray(target, float)
        w = np.full(pred.shape[0], 1.0 / pred.shape[0])
        err = pred - target
        small = np.abs(err) <= DELTA
        per_elem = np.where(
            small, 0.5 * err ** 2, DELTA * (np.abs(err) - 0.5 * DELTA)
        )
        return float((w * per_elem.sum(axis=1)).sum())

    def grad(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Gradient of the mean Huber loss: the clipped error over ``n``."""
        pred = np.asarray(pred, float)
        target = np.asarray(target, float)
        w = np.full(pred.shape[0], 1.0 / pred.shape[0])
        err = pred - target
        clipped = np.clip(err, -DELTA, DELTA)
        return clipped * w[:, None]
