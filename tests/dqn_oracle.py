"""The DQN step written transition by transition and layer by layer.

:class:`repro.rl.dqn.DQNAgent` keeps its replay in arrays, forms every
TD target of a minibatch in one vectorised pass from per-slot cached
bootstrap values, and trains a network whose parameters and gradients
live in two flat vectors.  This is the same agent written the direct
way, kept here verbatim from before that rewrite: a list of transitions,
a Python loop over the minibatch with a bootstrap memo keyed by ``id()``
of the successor array, and per-layer weight arrays with gradients
zeroed, accumulated and concatenated for Adam.  Every floating-point
operation happens in the same order in both, so weights, targets, losses
and the two work counters agree bit for bit; ``test_dqn_oracle.py`` pins
that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rl.dqn import DQNConfig

#: Huber threshold and Adam constants, as in :mod:`repro.nn`.
DELTA = 1.0
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def huber_value(pred: np.ndarray, target: np.ndarray) -> float:
    w = np.full(pred.shape[0], 1.0 / pred.shape[0])
    err = pred - target
    small = np.abs(err) <= DELTA
    per_elem = np.where(small, 0.5 * err ** 2, DELTA * (np.abs(err) - 0.5 * DELTA))
    return float((w * per_elem.sum(axis=1)).sum())


def huber_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    w = np.full(pred.shape[0], 1.0 / pred.shape[0])
    return np.clip(pred - target, -DELTA, DELTA) * w[:, None]


class LayerwiseMLP:
    """Dense/ReLU stack with one weight and one bias array per layer."""

    def __init__(self, weights: list[dict[str, np.ndarray]]) -> None:
        # ``weights`` is ``Network.get_weights()``: ReLU layers are {}.
        self.weights = [w["weight"].copy() for w in weights if w]
        self.biases = [w["bias"].copy() for w in weights if w]
        self.grad_w = [np.zeros_like(w) for w in self.weights]
        self.grad_b = [np.zeros_like(b) for b in self.biases]
        self._inputs: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._inputs, self._masks = [], []
        out = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self._inputs.append(out)
            out = out @ w + b
            if i < last:
                mask = out > 0
                self._masks.append(mask)
                out = out * mask
        return out

    def train_batch(self, x: np.ndarray, target: np.ndarray,
                    adam: "LayerwiseAdam") -> float:
        for g in self.grad_w + self.grad_b:
            g.fill(0.0)
        pred = self.forward(x, training=True)
        value = huber_value(pred, target)
        grad = huber_grad(pred, target)
        for i in reversed(range(len(self.weights))):
            if i < len(self.weights) - 1:
                grad = grad * self._masks[i]
            self.grad_w[i] += self._inputs[i].T @ grad
            self.grad_b[i] += grad.sum(axis=0)
            grad = grad @ self.weights[i].T
        pairs = []
        for i in range(len(self.weights)):
            pairs += [(self.weights[i], self.grad_w[i]),
                      (self.biases[i], self.grad_b[i])]
        adam.step(pairs)
        return value

    def flat(self) -> np.ndarray:
        """Every parameter in ``Network.params`` order."""
        return np.concatenate([p.ravel() for w, b in zip(self.weights, self.biases)
                               for p in (w, b)])

    def load(self, other: "LayerwiseMLP") -> None:
        for mine, theirs in zip(self.weights + self.biases,
                                other.weights + other.biases):
            mine[...] = theirs


class LayerwiseAdam:
    """Adam over (param, grad) pairs, moments in one concatenated vector."""

    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate
        self._m = self._v = None
        self._t = 0

    def step(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
        if self._t == 0:
            self._m = np.zeros(sum(p.size for p, _ in pairs))
            self._v = np.zeros_like(self._m)
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        grad = np.concatenate([g.ravel() for _, g in pairs])
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad ** 2
        update = self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        start = 0
        for param, _ in pairs:
            param -= update[start:start + param.size].reshape(param.shape)
            start += param.size


class OracleDQN:
    """:class:`~repro.rl.dqn.DQNAgent` with a list replay and a target loop.

    Built from the agent's initial weights and its replay generator's
    seed stream, so both draw the same minibatches.
    """

    def __init__(self, config: DQNConfig, weights, buffer_rng) -> None:
        self.config = config
        self.online = LayerwiseMLP(weights)
        self.target = LayerwiseMLP(weights)
        self.target_version = 0
        self.adam = LayerwiseAdam(config.learning_rate)
        self.storage: list[tuple[np.ndarray, float, Optional[np.ndarray], bool]] = []
        self.next_slot = 0
        self.rng = buffer_rng
        self.memo: dict[int, tuple[np.ndarray, Optional[float]]] = {}
        self.memo_version = 0
        self.train_steps = 0
        self.target_forwards = 0
        self.bootstrap_lookups = 0
        self.last_batch: list = []
        self.last_targets: Optional[np.ndarray] = None

    def remember(self, features, reward, next_features, terminal) -> None:
        features = np.array(features, dtype=float).ravel()
        nxt = None
        if next_features is not None and not terminal:
            frozen = (isinstance(next_features, np.ndarray)
                      and next_features.ndim == 2
                      and next_features.dtype == float
                      and not next_features.flags.writeable)
            nxt = (next_features if frozen
                   else np.atleast_2d(np.array(next_features, dtype=float)))
        transition = (features, float(reward), nxt, terminal)
        if len(self.storage) < self.config.buffer_capacity:
            self.storage.append(transition)
        else:
            self.storage[self.next_slot] = transition
        self.next_slot = (self.next_slot + 1) % self.config.buffer_capacity

    def train_step(self) -> Optional[float]:
        if len(self.storage) < max(self.config.min_buffer_for_training, 1):
            return None
        if self.memo_version != self.target_version:
            self.memo.clear()
            self.memo_version = self.target_version
        idx = self.rng.integers(0, len(self.storage), size=self.config.batch_size)
        batch = self.last_batch = [self.storage[i] for i in idx]
        features = np.vstack([t[0] for t in batch])
        targets = np.empty(len(batch))
        for i, (_, reward, nxt, terminal) in enumerate(batch):
            target = reward
            if not terminal and nxt is not None:
                target_max = self._bootstrap_max(nxt)
                if target_max is not None:
                    target += self.config.gamma * target_max
            targets[i] = target
        self.last_targets = targets
        loss = self.online.train_batch(features, targets.reshape(-1, 1), self.adam)
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_every == 0:
            self.sync_target()
        return loss

    def _bootstrap_max(self, nxt: np.ndarray) -> Optional[float]:
        self.bootstrap_lookups += 1
        entry = self.memo.get(id(nxt))
        if entry is None:
            target_q = self.target.forward(nxt).ravel()
            entry = (nxt, float(target_q.max()) if target_q.size else None)
            self.memo[id(nxt)] = entry
            self.target_forwards += 1
        return entry[1]

    def sync_target(self) -> None:
        self.target.load(self.online)
        self.target_version += 1

    def set_weights(self, weights) -> None:
        self.online.load(LayerwiseMLP(weights))
        self.sync_target()
