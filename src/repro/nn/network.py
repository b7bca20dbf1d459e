"""A sequential feed-forward network with manual backpropagation."""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.losses import HuberLoss
from repro.nn.optimizers import Adam
from repro.utils.rng import SeedLike, as_rng


class Network:
    """An ordered stack of layers trained by backpropagation.

    The class is deliberately small: ``forward`` / ``backward`` plumbing, a
    single-batch ``train_batch`` step, weight get/set for target-network
    synchronisation (DQN), and deep copying.

    All parameters live in one flat vector :attr:`params` and their
    gradients in one flat vector :attr:`grads`, in layer order (each
    :class:`Dense` weight, then its bias); the layers' arrays are views
    into them.  So an optimizer step is one pass over :attr:`params`,
    and copying a whole network's weights is one array copy.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ConfigurationError("Network needs at least one layer")
        self.layers = list(layers)
        sizes = [layer.n_params for layer in self.layers]
        #: Every parameter, in layer order; the layers hold views into it.
        self.params = np.empty(sum(sizes))
        #: The gradients of :attr:`params`, written by :meth:`backward`.
        self.grads = np.zeros_like(self.params)
        start = 0
        for layer, size in zip(self.layers, sizes):
            layer.bind(self.params[start:start + size],
                       self.grads[start:start + size])
            start += size

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def mlp(
        cls,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        *,
        rng: SeedLike = None,
    ) -> "Network":
        """Build a plain MLP: Dense/ReLU pairs then a linear head."""
        rng = as_rng(rng)
        sizes = [in_features, *hidden]
        layers: list[Layer] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            layers.append(Dense(fan_in, fan_out, rng=rng))
            layers.append(ReLU())
        layers.append(Dense(sizes[-1], out_features, rng=rng))
        return cls(layers)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the layer stack; 1-D input is promoted to a single row."""
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> None:
        """Backpropagate through the stack, writing :attr:`grads`.

        The first layer writes its parameter gradients only: the gradient
        w.r.t. the network's input is never used, so it is not computed.
        """
        grad = np.asarray(grad_out, dtype=float)
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad)
        self.layers[0].write_grads(grad)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_batch(
        self,
        x: np.ndarray,
        target: np.ndarray,
        loss: HuberLoss,
        optimizer: Adam,
    ) -> float:
        """One forward/backward/update step; returns the batch loss."""
        pred = self.forward(x, training=True)
        value, grad = loss.value_and_grad(pred, target)
        self.backward(grad)
        optimizer.step(self.params, self.grads)
        return value

    # ------------------------------------------------------------------
    # Weight management (target-network sync, checkpointing)
    # ------------------------------------------------------------------
    def get_weights(self) -> list[dict[str, np.ndarray]]:
        """Copies of every layer's parameters, in layer order."""
        return [
            {name: param.copy() for name, param in layer.params.items()}
            for layer in self.layers
        ]

    def set_weights(self, weights: list[dict[str, np.ndarray]]) -> None:
        """Load parameter dicts produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ConfigurationError(
                f"expected weights for {len(self.layers)} layers, got {len(weights)}"
            )
        for layer, layer_weights in zip(self.layers, weights):
            params = layer.params
            if set(params) != set(layer_weights):
                raise ConfigurationError(
                    f"weight keys {sorted(layer_weights)} do not match layer "
                    f"params {sorted(params)}"
                )
            for name, value in layer_weights.items():
                if params[name].shape != value.shape:
                    raise ConfigurationError(
                        f"shape mismatch for {name}: {params[name].shape} "
                        f"vs {value.shape}"
                    )
                params[name][...] = value

    def clone(self) -> "Network":
        """Deep copy (fresh parameter arrays), e.g. for a DQN target network."""
        return copy.deepcopy(self)

    def __reduce__(self):
        # Copies and pickles rebuild the flat vectors from (copies of) the
        # layers; copying the views one by one would detach them.
        return Network, (self.layers,)
