"""First-order optimizers for the numpy neural-net substrate."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class Optimizer:
    """Base optimizer: updates a list of (param, grad) pairs in place."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate

    def step(self, params_and_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, params_and_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for param, grad in params_and_grads:
            update = grad + self.weight_decay * param
            if self.momentum > 0.0:
                vel = self._velocity.setdefault(id(param), np.zeros_like(param))
                vel *= self.momentum
                vel += update
                update = vel
            param -= self.learning_rate * update


class RMSProp(Optimizer):
    """RMSProp, the optimizer used in the original DQN paper."""

    def __init__(self, learning_rate: float = 0.001, decay: float = 0.99,
                 eps: float = 1e-8) -> None:
        super().__init__(learning_rate)
        if not 0.0 < decay < 1.0:
            raise ConfigurationError(f"decay must be in (0, 1), got {decay}")
        self.decay = decay
        self.eps = eps
        self._avg_sq: dict[int, np.ndarray] = {}

    def step(self, params_and_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for param, grad in params_and_grads:
            avg = self._avg_sq.setdefault(id(param), np.zeros_like(param))
            avg *= self.decay
            avg += (1.0 - self.decay) * grad ** 2
            param -= self.learning_rate * grad / (np.sqrt(avg) + self.eps)


class Adam(Optimizer):
    """Adam with bias correction.

    The moments of all parameters live in two flat arrays, so one step
    is one pass of elementwise arithmetic over the concatenated gradients
    (the per-parameter formula, element for element) and one write-back
    per parameter.  The parameter layout (count and shapes) is fixed by
    the first step.
    """

    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(
                f"betas must be in [0, 1), got ({beta1}, {beta2})"
            )
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        grad = np.concatenate([g.ravel() for _, g in params_and_grads])
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        update = self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        start = 0
        for param, _ in params_and_grads:
            param -= update[start:start + param.size].reshape(param.shape)
            start += param.size
