"""Feed-forward layers with manual backpropagation.

Every layer exposes ``forward(x, training)`` and ``backward(grad_out)``;
``backward`` must be called with the gradient of the loss w.r.t. the layer's
output and returns the gradient w.r.t. its input, writing parameter
gradients to ``grads`` along the way (each call overwrites the last).
Shapes are always ``(batch, features)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.initializers import he_init
from repro.utils.rng import SeedLike


class Layer:
    """Base class: a differentiable transformation with optional parameters."""

    #: Number of trainable scalars, the layer's share of a flat vector.
    n_params = 0

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Move parameters (keeping their values) and gradients into views
        of ``n_params``-long slices of a network's flat vectors."""

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameters by name (empty for parameter-free layers)."""
        return {}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :attr:`params`, written by ``backward``."""
        return {}


class Dense(Layer):
    """Affine layer ``y = x @ W + b``: He-initialised weights, zero bias."""

    def __init__(self, in_features: int, out_features: int, *,
                 rng: SeedLike = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Dense needs positive sizes, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.n_params = (in_features + 1) * out_features
        self.weight = he_init(in_features, out_features, rng)
        self.bias = np.zeros(out_features)
        self._grad_w = np.zeros_like(self.weight)
        self._grad_b = np.zeros_like(self.bias)
        self._x: Optional[np.ndarray] = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Weight then bias, in ``params``; their gradients in ``grads``."""
        split = self.weight.size
        weight = params[:split].reshape(self.weight.shape)
        weight[...] = self.weight
        params[split:] = self.bias
        self.weight, self.bias = weight, params[split:]
        self._grad_w = grads[:split].reshape(self.weight.shape)
        self._grad_b = grads[split:]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Affine transform of a ``(batch, in_features)`` input."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"Dense expected input (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write weight/bias gradients; return the input gradient."""
        if self._x is None:
            raise RuntimeError("backward called before a training-mode forward")
        np.matmul(self._x.T, grad_out, out=self._grad_w)
        np.add.reduce(grad_out, axis=0, out=self._grad_b)
        return grad_out @ self.weight.T

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self._grad_w, "bias": self._grad_b}


class ReLU(Layer):
    """Rectified linear activation, applied in place.

    ``forward`` overwrites its input with the result, so pass it an array
    nothing else reads, such as a :class:`Dense` output.
    """

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Zero out negative activations of ``x``, in place."""
        x = np.asarray(x, dtype=float)
        out = np.maximum(x, 0.0, out=x)
        self._mask = out > 0 if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Pass gradients only where the forward input was positive."""
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        return grad_out * self._mask
