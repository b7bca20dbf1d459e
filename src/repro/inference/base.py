"""Shared types for truth-inference algorithms.

All algorithms consume an :data:`AnswerMap` — ``{object_id: {annotator_id:
answer}}`` — which is exactly the per-object answer set y_i of the paper,
and produce an :class:`InferenceResult` with per-object posteriors, hard
labels, and (for EM-style methods) estimated annotator confusion matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.crowd.confusion import ConfusionMatrix
from repro.exceptions import ConfigurationError

AnswerMap = Dict[int, Dict[int, int]]


@dataclass
class InferenceResult:
    """Outcome of one truth-inference run.

    EM methods fill ``max_deltas`` with each sweep's largest absolute
    posterior change, the quantity their ``tol`` is tested against, so a
    run that hit ``max_iter`` shows whether it was still settling or
    oscillating.
    """

    posteriors: dict[int, np.ndarray]
    labels: dict[int, int]
    confusions: dict[int, ConfusionMatrix] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    max_deltas: list[float] = field(default_factory=list)

    def confidence(self, object_id: int) -> float:
        """Posterior probability of the inferred label for one object."""
        return float(self.posteriors[object_id].max())


class TruthInference:
    """Base class for aggregation algorithms."""

    def infer(self, answers: AnswerMap, n_classes: int,
              n_annotators: int) -> InferenceResult:
        """Aggregate ``answers`` into posteriors and hard labels."""
        raise NotImplementedError

    @staticmethod
    def _validate(answers: AnswerMap, n_classes: int, n_annotators: int) -> None:
        if n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {n_classes}")
        if n_annotators <= 0:
            raise ConfigurationError(
                f"n_annotators must be > 0, got {n_annotators}"
            )
        for object_id, votes in answers.items():
            if not votes:
                raise ConfigurationError(
                    f"object {object_id} has an empty answer set"
                )
            for annotator_id, answer in votes.items():
                if not 0 <= annotator_id < n_annotators:
                    raise ConfigurationError(
                        f"annotator id {annotator_id} out of range for object "
                        f"{object_id}"
                    )
                if not 0 <= answer < n_classes:
                    raise ConfigurationError(
                        f"answer {answer} out of range for object {object_id}"
                    )

    @staticmethod
    def _posterior_to_labels(posteriors: dict[int, np.ndarray]) -> dict[int, int]:
        return {oid: int(np.argmax(post)) for oid, post in posteriors.items()}
