"""The Huber loss with its analytic gradient, for DQN TD errors.

``value(pred, target)`` is the mean over the batch of the per-row summed
Huber loss, ``grad(pred, target)`` is its derivative w.r.t. ``pred``, and
``value_and_grad`` returns both from one pass over the errors.
"""

from __future__ import annotations

import numpy as np

#: Error magnitude at which the loss turns from quadratic to linear.
DELTA = 1.0


class HuberLoss:
    """Huber loss, the standard choice for stabilising DQN TD errors."""

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        """Mean Huber loss over the batch."""
        return self.value_and_grad(pred, target)[0]

    def grad(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Gradient of the mean Huber loss: the clipped error over ``n``."""
        return self.value_and_grad(pred, target)[1]

    def value_and_grad(self, pred: np.ndarray,
                       target: np.ndarray) -> tuple[float, np.ndarray]:
        """The mean Huber loss over the batch and its gradient."""
        pred = np.asarray(pred, float)
        target = np.asarray(target, float)
        w = np.full(pred.shape[0], 1.0 / pred.shape[0])
        err = pred - target
        abs_err = np.abs(err)
        per_elem = np.where(
            abs_err <= DELTA, 0.5 * err ** 2, DELTA * (abs_err - 0.5 * DELTA)
        )
        clipped = np.minimum(np.maximum(err, -DELTA), DELTA)
        return float((w * per_elem.sum(axis=1)).sum()), clipped * w[:, None]
