"""Seeded per-annotator service-time model.

Real annotators take time: the serving layer draws each answer's latency
from a :class:`LatencyModel` — a per-annotator mean service time with
seeded uniform jitter, on its *own* RNG stream.  Like the PR 2 fault
model, the latency stream never touches annotator answer streams, so a
latency model changes *when* answers land on the virtual clock but never
*what* they say — the property the async==sync identity tests rely on.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_rng

MeanLike = Union[float, np.ndarray, list]


class LatencyModel:
    """Per-annotator mean service times with seeded multiplicative jitter.

    ``mean`` is a scalar (shared) or a length-``n_annotators`` array of
    virtual seconds; each draw multiplies the annotator's mean by
    ``1 + jitter * U[-1, 1)`` from the model's own stream.
    """

    def __init__(
        self,
        n_annotators: int,
        *,
        mean: MeanLike = 1.0,
        jitter: float = 0.25,
        rng: SeedLike = 0,
    ) -> None:
        if n_annotators <= 0:
            raise ConfigurationError(
                f"n_annotators must be > 0, got {n_annotators}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {jitter}"
            )
        means = np.asarray(mean, dtype=float)
        if means.ndim == 0:
            means = np.full(n_annotators, float(means))
        if means.shape != (n_annotators,):
            raise ConfigurationError(
                f"mean must be a scalar or shape ({n_annotators},), got "
                f"{means.shape}"
            )
        if means.min() <= 0.0:
            raise ConfigurationError(
                f"mean service times must be > 0, got min {means.min():.6f}"
            )
        self.n_annotators = n_annotators
        self.jitter = float(jitter)
        self._means = means
        self._rng = as_rng(rng)

    @classmethod
    def for_pool(
        cls,
        pool,
        *,
        worker_latency: float = 1.0,
        expert_latency: Optional[float] = None,
        jitter: float = 0.25,
        rng: SeedLike = 0,
    ) -> "LatencyModel":
        """A model matched to a pool: experts are slower than workers.

        ``expert_latency`` defaults to three times the worker latency —
        experts deliberate; workers click through.  Expert rows are
        identified by per-annotator cost above the pool's cheapest.
        """
        if worker_latency <= 0.0:
            raise ConfigurationError(
                f"worker_latency must be > 0, got {worker_latency}"
            )
        if expert_latency is None:
            expert_latency = 3.0 * worker_latency
        if expert_latency <= 0.0:
            raise ConfigurationError(
                f"expert_latency must be > 0, got {expert_latency}"
            )
        costs = np.asarray(pool.costs, dtype=float)
        means = np.where(
            costs > costs.min(), float(expert_latency), float(worker_latency)
        )
        return cls(len(costs), mean=means, jitter=jitter, rng=rng)

    def means(self) -> np.ndarray:
        """The per-annotator mean service times (copy)."""
        return self._means.copy()

    def draw(self, annotator_id: int) -> float:
        """Sample one service time for ``annotator_id`` (virtual seconds)."""
        if not 0 <= annotator_id < self.n_annotators:
            raise ConfigurationError(
                f"annotator_id must be in [0, {self.n_annotators}), got "
                f"{annotator_id}"
            )
        service = self._means[annotator_id]
        if self.jitter > 0.0:
            service *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return float(max(service, 1e-9))

    # ------------------------------------------------------------------
    # Checkpoint support (symmetry with FaultModel; the serve layer
    # itself rejects checkpointing, but sessions snapshot streams).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable state (the jitter RNG) for snapshotting."""
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        try:
            self._rng.bit_generator.state = state["rng"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed latency-model state: {exc}"
            ) from exc
