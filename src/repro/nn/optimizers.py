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
    """Adam with bias correction, over one flat parameter vector.

    A network keeps all its parameters in one flat array
    (:attr:`repro.nn.network.Network.params`), so one step is one pass of
    elementwise arithmetic over it, the per-parameter formula element for
    element.  The parameter shape is fixed by the first step.
    """

    def __init__(self, learning_rate: float = 0.001) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        # Moments, and two scratch vectors so a step allocates nothing.
        self._m = self._v = self._update = self._denom = np.zeros(0)
        self._t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """Apply one bias-corrected Adam update to ``param``, in place."""
        if self._t == 0:
            self._m, self._v, self._update, self._denom = (
                np.zeros_like(param) for _ in range(4))
        elif param.shape != self._m.shape:
            raise ConfigurationError(
                f"Adam was stepped on parameters of shape {self._m.shape}, "
                f"now got {param.shape}"
            )
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        m, v, update, denom = self._m, self._v, self._update, self._denom
        # m = BETA1 m + (1 - BETA1) g;  v = BETA2 v + (1 - BETA2) g^2
        m *= BETA1
        np.multiply(grad, 1.0 - BETA1, out=update)
        m += update
        v *= BETA2
        np.square(grad, out=denom)
        denom *= 1.0 - BETA2
        v += denom
        # param -= learning_rate * (m / bc1) / (sqrt(v / bc2) + EPS)
        np.divide(m, bc1, out=update)
        update *= self.learning_rate
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        param -= update
