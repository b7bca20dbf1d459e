"""DQN learning loop over featurized transitions.

Implements the loss of Section IV-A:

    L(theta) = E[(r + gamma * max_a' Q_target(S', a') - Q(S, A; theta))^2]

with experience replay and a periodically synchronised target network.
The target network is frozen between syncs, so ``max_a' Q_target(S', a')``
for a stored successor array is a constant until the next sync:
:meth:`DQNAgent.train_step` computes it once per (successor array,
target version) and looks it up after that.

The agent is action-space-agnostic: callers hand it featurized action
candidates; the CrowdRL-specific featurization lives in
:mod:`repro.core.state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.contracts import shaped
from repro.exceptions import ConfigurationError
from repro.rl.qnetwork import QNetwork
from repro.rl.replay import ReplayBuffer, Transition
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass(frozen=True)
class DQNConfig:
    """Hyper-parameters for :class:`DQNAgent`."""

    n_features: int
    hidden: tuple[int, ...] = (64, 32)
    learning_rate: float = 1e-3
    gamma: float = 0.95
    buffer_capacity: int = 10_000
    batch_size: int = 32
    target_sync_every: int = 20
    min_buffer_for_training: int = 32

    def __post_init__(self) -> None:
        if self.n_features <= 0:
            raise ConfigurationError(f"n_features must be > 0, got {self.n_features}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.batch_size <= 0 or self.buffer_capacity <= 0:
            raise ConfigurationError("batch_size and buffer_capacity must be > 0")
        if self.target_sync_every <= 0:
            raise ConfigurationError(
                f"target_sync_every must be > 0, got {self.target_sync_every}"
            )


class DQNAgent:
    """Q-learning with replay and target network over featurized actions."""

    def __init__(self, config: DQNConfig, rng: SeedLike = None) -> None:
        # Child streams per component: sharing one generator would couple
        # weight initialisation to replay sampling.
        qnet_rng, buffer_rng = spawn_rngs(rng, 2)
        self.config = config
        self.qnet = QNetwork(
            config.n_features,
            hidden=config.hidden,
            learning_rate=config.learning_rate,
            rng=qnet_rng,
        )
        self.buffer = ReplayBuffer(config.buffer_capacity, rng=buffer_rng)
        self._train_steps = 0
        # Bootstrap memo: id(successor array) -> (array, max Q_target),
        # valid for one target version.  Holding the array keeps its id
        # from being reused; clearing at every sync keeps the memo bounded.
        self._memo: dict[int, tuple[np.ndarray, Optional[float]]] = {}
        self._memo_version = self.qnet.target_version
        #: Target-network forwards actually computed (memo misses).
        self.target_forwards = 0
        #: Bootstrap values looked up (memo hits plus misses).
        self.bootstrap_lookups = 0

    # ------------------------------------------------------------------
    @shaped(action_features="(n_actions, n_features)", result="(n_actions,)")
    def q_values(self, action_features: np.ndarray) -> np.ndarray:
        """Q for each row of featurized candidate actions."""
        return self.qnet.predict(action_features)

    def remember(
        self,
        features: np.ndarray,
        reward: float,
        next_features: Optional[np.ndarray],
        terminal: bool,
    ) -> None:
        """Append one transition to the replay buffer.

        ``features`` is the featurization of the action taken; ``next_features``
        holds *all* candidate action featurizations in the successor state
        (rows), from which the bootstrap max is computed.  A read-only
        float 2-D ``next_features`` is stored as-is, so transitions that
        share a successor share one array and one memoised bootstrap value;
        its owner must not write to it through another view.
        """
        # Copy defensively: callers may hand in views of live caches (e.g.
        # the featurizer's in-place tensor), and the buffer outlives them.
        features = np.array(features, dtype=float).ravel()
        if features.size != self.config.n_features:
            raise ConfigurationError(
                f"features must have {self.config.n_features} entries, got "
                f"{features.size}"
            )
        nxt = None
        if next_features is not None and not terminal:
            frozen = (isinstance(next_features, np.ndarray)
                      and next_features.ndim == 2
                      and next_features.dtype == float
                      and not next_features.flags.writeable)
            nxt = (next_features if frozen
                   else np.atleast_2d(np.array(next_features, dtype=float)))
            if nxt.shape[1] != self.config.n_features:
                raise ConfigurationError(
                    f"next_features must have {self.config.n_features} columns, "
                    f"got {nxt.shape[1]}"
                )
        self.buffer.push(Transition(features, float(reward), nxt, terminal))

    def train_step(self) -> Optional[float]:
        """One replayed minibatch update; returns the loss, or ``None`` if
        the buffer is still below ``min_buffer_for_training``."""
        if not self.ready:
            return None
        if self._memo_version != self.qnet.target_version:
            self._memo.clear()
            self._memo_version = self.qnet.target_version
        batch = self.buffer.sample(self.config.batch_size)
        features = np.vstack([t.features for t in batch])
        targets = np.empty(len(batch))
        for i, transition in enumerate(batch):
            target = transition.reward
            nxt = transition.next_features
            if not transition.terminal and nxt is not None:
                target_max = self._bootstrap_max(nxt)
                if target_max is not None:
                    target += self.config.gamma * target_max
            targets[i] = target

        loss = self.qnet.train_on_targets(features, targets)
        self._train_steps += 1
        if self._train_steps % self.config.target_sync_every == 0:
            self.qnet.sync_target()
        return loss

    def _bootstrap_max(self, nxt: np.ndarray) -> Optional[float]:
        """``max_a' Q_target(nxt)`` memoised for the current version;
        ``None`` when ``nxt`` has no rows."""
        self.bootstrap_lookups += 1
        entry = self._memo.get(id(nxt))
        if entry is None:
            target_q = self.qnet.predict_target(nxt)
            entry = (nxt, float(target_q.max()) if target_q.size else None)
            self._memo[id(nxt)] = entry
            self.target_forwards += 1
        return entry[1]

    @property
    def ready(self) -> bool:
        """Whether the buffer holds enough transitions for a training step."""
        return len(self.buffer) >= max(self.config.min_buffer_for_training, 1)

    def train(self, n_steps: int) -> list[float]:
        """Run up to ``n_steps`` training steps; returns achieved losses."""
        losses = []
        for _ in range(n_steps):
            loss = self.train_step()
            if loss is not None:
                losses.append(loss)
        return losses

    # ------------------------------------------------------------------
    def get_weights(self):
        """Export policy weights (for offline cross-training, Section VI-A4)."""
        return self.qnet.get_weights()

    def set_weights(self, weights) -> None:
        self.qnet.set_weights(weights)

    @property
    def train_steps(self) -> int:
        return self._train_steps
