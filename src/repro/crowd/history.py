"""The labelling-history matrix — the first block of the RL State.

Section III-B models labelling history as a ``|O| x |W|`` matrix whose entry
``S[i, j]`` is ``-1`` when annotator ``j`` has not labelled object ``i`` and
the answered class index otherwise.  This module stores that matrix plus the
book-keeping the rest of the system needs: per-object answer sets, per-pair
masks, and confusion-count accumulation against inferred truths.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

UNANSWERED = -1


class LabellingHistory:
    """Dense ``|O| x |W|`` answer matrix with answer-set accessors."""

    def __init__(self, n_objects: int, n_annotators: int, n_classes: int) -> None:
        if n_objects <= 0 or n_annotators <= 0:
            raise ConfigurationError(
                f"need positive sizes, got objects={n_objects}, "
                f"annotators={n_annotators}"
            )
        if n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {n_classes}")
        self.n_objects = n_objects
        self.n_annotators = n_annotators
        self.n_classes = n_classes
        self.matrix = np.full((n_objects, n_annotators), UNANSWERED, dtype=int)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, object_id: int, annotator_id: int, answer: int) -> None:
        """Record one answer; re-asking the same pair is rejected."""
        self._check_ids(object_id, annotator_id)
        if not 0 <= answer < self.n_classes:
            raise ConfigurationError(
                f"answer must be in [0, {self.n_classes}), got {answer}"
            )
        if self.matrix[object_id, annotator_id] != UNANSWERED:
            raise ConfigurationError(
                f"annotator {annotator_id} already answered object {object_id}"
            )
        self.matrix[object_id, annotator_id] = answer

    def amend(self, object_id: int, annotator_id: int, answer: int) -> None:
        """Overwrite an *existing* answer in place (e.g. transit corruption).

        Unlike :meth:`record` this requires the pair to have answered
        already.
        """
        self._check_ids(object_id, annotator_id)
        if not 0 <= answer < self.n_classes:
            raise ConfigurationError(
                f"answer must be in [0, {self.n_classes}), got {answer}"
            )
        if self.matrix[object_id, annotator_id] == UNANSWERED:
            raise ConfigurationError(
                f"annotator {annotator_id} has not answered object "
                f"{object_id}; nothing to amend"
            )
        self.matrix[object_id, annotator_id] = answer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_answered(self, object_id: int, annotator_id: int) -> bool:
        """Whether ``annotator_id`` has already answered ``object_id``."""
        self._check_ids(object_id, annotator_id)
        return self.matrix[object_id, annotator_id] != UNANSWERED

    def answers_for(self, object_id: int) -> dict[int, int]:
        """Answer set of one object: ``{annotator_id: class}`` (paper's y_i)."""
        self._check_ids(object_id, 0)
        row = self.matrix[object_id]
        answered = np.nonzero(row != UNANSWERED)[0]
        return {int(j): int(row[j]) for j in answered}

    def answer_counts(self, object_id: int) -> np.ndarray:
        """Votes per class for one object (for majority voting / features)."""
        counts = np.zeros(self.n_classes)
        for answer in self.answers_for(object_id).values():
            counts[answer] += 1
        return counts

    def n_answers(self, object_id: int) -> int:
        """How many annotators have answered ``object_id``."""
        self._check_ids(object_id, 0)
        return int((self.matrix[object_id] != UNANSWERED).sum())

    def answered_objects(self) -> np.ndarray:
        """Indices of objects with at least one human answer."""
        return np.nonzero((self.matrix != UNANSWERED).any(axis=1))[0]

    def annotator_load(self, annotator_id: int) -> int:
        """Number of answers annotator ``annotator_id`` has given."""
        self._check_ids(0, annotator_id)
        return int((self.matrix[:, annotator_id] != UNANSWERED).sum())

    def confusion_counts(self, annotator_id: int,
                         truths: dict[int, int]) -> np.ndarray:
        """Hard ``(true, answered)`` counts for an annotator vs inferred truths.

        Objects whose truth is not yet inferred are skipped.
        """
        self._check_ids(0, annotator_id)
        counts = np.zeros((self.n_classes, self.n_classes))
        col = self.matrix[:, annotator_id]
        for object_id, truth in truths.items():
            answer = col[object_id]
            if answer != UNANSWERED:
                counts[truth, answer] += 1
        return counts

    def copy(self) -> "LabellingHistory":
        """Deep copy (used to snapshot state between RL iterations)."""
        clone = LabellingHistory(self.n_objects, self.n_annotators, self.n_classes)
        clone.matrix = self.matrix.copy()
        return clone

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _check_ids(self, object_id: int, annotator_id: int) -> None:
        if not 0 <= object_id < self.n_objects:
            raise ConfigurationError(
                f"object_id must be in [0, {self.n_objects}), got {object_id}"
            )
        if not 0 <= annotator_id < self.n_annotators:
            raise ConfigurationError(
                f"annotator_id must be in [0, {self.n_annotators}), got {annotator_id}"
            )
