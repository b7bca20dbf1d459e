"""Majority voting: the naive strategy of Section V-A1.

Every annotator's vote counts equally; ties go to the lowest class index.
"""

from __future__ import annotations

import numpy as np

from repro.inference.base import AnswerMap, InferenceResult, TruthInference


class MajorityVote(TruthInference):
    """Plain majority voting; ties broken by the lowest class index."""

    def infer(self, answers: AnswerMap, n_classes: int,
              n_annotators: int) -> InferenceResult:
        """Aggregate by unweighted majority vote."""
        self._validate(answers, n_classes, n_annotators)
        posteriors: dict[int, np.ndarray] = {}
        labels: dict[int, int] = {}
        for object_id, votes in answers.items():
            counts = np.zeros(n_classes)
            for answer in votes.values():
                counts[answer] += 1
            posteriors[object_id] = counts / counts.sum()
            labels[object_id] = int(np.argmax(counts))
        return InferenceResult(posteriors=posteriors, labels=labels)
