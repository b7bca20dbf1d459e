"""The Adam optimizer for the numpy neural-net substrate."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

#: Decay rates of Adam's first and second moment estimates.
BETA1 = 0.9
BETA2 = 0.999
#: Added to the root second moment before dividing.
EPS = 1e-8


class Adam:
    """Adam with bias correction.

    The moments of all parameters live in two flat arrays, so one step
    is one pass of elementwise arithmetic over the concatenated gradients
    (the per-parameter formula, element for element) and one write-back
    per parameter.  The parameter layout (count and shapes) is fixed by
    the first step.
    """

    def __init__(self, learning_rate: float = 0.001) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self._shapes: tuple[tuple[int, ...], ...] = ()
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self._t = 0

    def step(self, params_and_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one bias-corrected Adam update to every (param, grad) pair."""
        shapes = tuple(param.shape for param, _ in params_and_grads)
        if self._t == 0:
            self._shapes = shapes
            self._m = np.zeros(sum(param.size for param, _ in params_and_grads))
            self._v = np.zeros_like(self._m)
        elif shapes != self._shapes:
            raise ConfigurationError(
                f"Adam was stepped on parameters of shapes {self._shapes}, "
                f"now got {shapes}"
            )
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        grad = np.concatenate([g.ravel() for _, g in params_and_grads])
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad ** 2
        update = self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        start = 0
        for param, _ in params_and_grads:
            param -= update[start:start + param.size].reshape(param.shape)
            start += param.size
