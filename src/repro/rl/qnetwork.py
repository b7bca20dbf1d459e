"""Q-value network with a periodically synchronised target copy.

``Q(S, A; theta)`` is an MLP over a featurized (state, action) vector —
see DESIGN.md for why the paper's raw ``(|C|+1)^{|O||W|}`` state space is
featurized this way.  The target network realises the fixed bootstrap
target of Eq. 4/5 and is refreshed with :meth:`sync_target`; each refresh
bumps :attr:`QNetwork.target_version`, so callers may memoise
target-network outputs per version.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.contracts import shaped
from repro.exceptions import ConfigurationError
from repro.nn.losses import HuberLoss
from repro.nn.network import Network
from repro.nn.optimizers import Adam
from repro.utils.rng import SeedLike, as_rng


class QNetwork:
    """Scalar-output MLP over featurized (state, action) pairs."""

    def __init__(
        self,
        n_features: int,
        *,
        hidden: Sequence[int] = (64, 32),
        learning_rate: float = 1e-3,
        rng: SeedLike = None,
    ) -> None:
        if n_features <= 0:
            raise ConfigurationError(f"n_features must be > 0, got {n_features}")
        rng = as_rng(rng)
        self.n_features = n_features
        self.online = Network.mlp(n_features, hidden, 1, rng=rng)
        self.target = self.online.clone()
        #: Bumped by every :meth:`sync_target`: target outputs computed at
        #: one version stay exact until it changes.
        self.target_version = 0
        self._loss = HuberLoss()
        self._optimizer = Adam(learning_rate)

    # ------------------------------------------------------------------
    def _validate_features(self, features: np.ndarray) -> np.ndarray:
        """Coerce a single vector or a batch to ``(n, n_features)``."""
        batch = np.atleast_2d(np.asarray(features, dtype=float))
        if batch.ndim != 2 or batch.shape[1] != self.n_features:
            raise ConfigurationError(
                f"features must have {self.n_features} columns, got shape "
                f"{np.asarray(features).shape}"
            )
        return batch

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Q-values for a batch of featurized actions, shape ``(n,)``."""
        return self.online.forward(self._validate_features(features)).ravel()

    def predict_target(self, features: np.ndarray) -> np.ndarray:
        """Target-network Q-values, shape ``(n,)``."""
        return self.target.forward(self._validate_features(features)).ravel()

    @shaped(targets="(n_samples,)")
    def train_on_targets(self, features: np.ndarray,
                         targets: np.ndarray) -> float:
        """One Huber-loss regression step of Q(features) toward ``targets``."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        targets = np.asarray(targets, dtype=float).reshape(-1, 1)
        if features.shape[0] != targets.shape[0]:
            raise ConfigurationError(
                f"{features.shape[0]} feature rows vs {targets.shape[0]} targets"
            )
        return self.online.train_batch(features, targets, self._loss, self._optimizer)

    def sync_target(self) -> None:
        """Copy online weights into the target network."""
        self.target.params[...] = self.online.params
        self.target_version += 1

    # ------------------------------------------------------------------
    def get_weights(self):
        return self.online.get_weights()

    def set_weights(self, weights) -> None:
        """Load weights into the online net and resync the target copy."""
        self.online.set_weights(weights)
        self.sync_target()
