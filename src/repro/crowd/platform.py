"""The simulated crowdsourcing platform.

:class:`CrowdPlatform` is the sole gateway through which any labelling
framework obtains human answers.  It couples the three invariants every
experiment must respect: (1) answers are sampled from the annotators'
*latent* confusion matrices, (2) each answer is charged to the shared
:class:`~repro.crowd.cost.BudgetManager`, and (3) each answer is recorded in
the :class:`~repro.crowd.history.LabellingHistory`.  Ground truth lives here
and is never exposed to frameworks — only to the evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.crowd.cost import BudgetManager
from repro.crowd.history import LabellingHistory
from repro.crowd.pool import AnnotatorPool
from repro.exceptions import BudgetExhaustedError, ConfigurationError


@dataclass(frozen=True)
class AnswerRecord:
    """One collected answer, as appended to the platform's answer log."""

    object_id: int
    annotator_id: int
    answer: int
    cost: float


def collect_batch(
    platform,
    assignments: Iterable[tuple[int, Sequence[int]]],
    ask: Callable[[int, int], Optional[object]],
) -> list:
    """The batch-collection rules every platform layer shares.

    Walks ``(object, [annotators])`` assignments pair by pair and calls
    ``ask(object_id, annotator_id)`` for each pair that is still open on
    ``platform``: answered pairs and at-capacity annotators are skipped,
    and so is an annotator the budget cannot afford.  Collection stops
    once even the cheapest annotator is unaffordable, so the budget
    drains exactly.  ``ask`` returns what the batch collects for that
    pair, or ``None`` when its layer gave up on the request (the layer
    counts the drop); ``None`` is left out of the returned list.
    """
    collected: list = []
    for object_id, annotator_ids in assignments:
        for annotator_id in annotator_ids:
            if platform.history.has_answered(object_id, annotator_id):
                continue
            if platform.at_capacity(annotator_id):
                continue
            if not platform.budget.can_afford(platform.pool[annotator_id].cost):
                # This annotator is out of reach, but a cheaper one later
                # in the batch may not be.
                if not platform.budget.can_afford(platform.cheapest_cost()):
                    return collected
                continue
            result = ask(object_id, annotator_id)
            if result is not None:
                collected.append(result)
    return collected


class CrowdPlatform:
    """Couples answer simulation, budget charging and history recording."""

    def __init__(
        self,
        true_labels: np.ndarray,
        pool: AnnotatorPool,
        budget: BudgetManager,
        *,
        history: Optional[LabellingHistory] = None,
        difficulty: Optional[np.ndarray] = None,
    ) -> None:
        truths = np.asarray(true_labels, dtype=int)
        if truths.ndim != 1 or truths.size == 0:
            raise ConfigurationError(
                f"true_labels must be a non-empty 1-D array, got shape {truths.shape}"
            )
        if truths.min() < 0 or truths.max() >= pool.n_classes:
            raise ConfigurationError(
                f"true labels must be in [0, {pool.n_classes})"
            )
        self._true_labels = truths
        if difficulty is not None:
            difficulty = np.asarray(difficulty, dtype=float)
            if difficulty.shape != truths.shape:
                raise ConfigurationError(
                    f"difficulty must have shape {truths.shape}, got "
                    f"{difficulty.shape}"
                )
            if difficulty.min() < 0 or difficulty.max() > 1:
                raise ConfigurationError("difficulty must lie in [0, 1]")
        #: Optional per-object difficulty damping annotator expertise.
        self._difficulty = difficulty
        self.pool = pool
        self.budget = budget
        self.history = history or LabellingHistory(
            truths.size, len(pool), pool.n_classes
        )
        self.answer_log: list[AnswerRecord] = []

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return self._true_labels.size

    @property
    def n_classes(self) -> int:
        return self.pool.n_classes

    # ------------------------------------------------------------------
    # Answer collection
    # ------------------------------------------------------------------
    def ask(self, object_id: int, annotator_id: int) -> AnswerRecord:
        """Collect one answer, charging the budget.

        Raises :class:`BudgetExhaustedError` when the annotator's cost
        exceeds the remaining budget, and rejects duplicate (object,
        annotator) pairs — the paper masks those actions with ``Q = -inf``.
        """
        annotator = self.pool[annotator_id]
        if self.history.has_answered(object_id, annotator_id):
            raise ConfigurationError(
                f"duplicate request: annotator {annotator_id} already answered "
                f"object {object_id}"
            )
        if self.at_capacity(annotator_id):
            raise ConfigurationError(
                f"annotator {annotator_id} has reached its capacity of "
                f"{annotator.capacity} answers"
            )
        if not self.budget.can_afford(annotator.cost):
            raise BudgetExhaustedError(
                f"annotator {annotator_id} costs {annotator.cost}, remaining "
                f"budget {self.budget.remaining:.2f}"
            )
        difficulty = (
            float(self._difficulty[object_id])
            if self._difficulty is not None else 0.0
        )
        answer = annotator.answer(
            int(self._true_labels[object_id]), difficulty=difficulty
        )
        self.budget.charge(annotator.cost, object_id=object_id,
                           annotator_id=annotator_id)
        self.history.record(object_id, annotator_id, answer)
        record = AnswerRecord(object_id, annotator_id, answer, annotator.cost)
        self.answer_log.append(record)
        return record

    def ask_batch(
        self, assignments: Iterable[tuple[int, Sequence[int]]]
    ) -> list[AnswerRecord]:
        """Collect answers for ``(object, [annotators])`` assignments.

        Stops cleanly (returning what was collected) once the budget cannot
        afford the next answer, so frameworks can drain the budget exactly.
        Duplicate pairs are skipped rather than raising, because batch
        assignments may legitimately overlap earlier iterations.
        """
        return collect_batch(self, assignments, self.ask)

    def at_capacity(self, annotator_id: int) -> bool:
        """Whether the annotator has exhausted its answer capacity."""
        capacity = self.pool[annotator_id].capacity
        if capacity is None:
            return False
        return self.history.annotator_load(annotator_id) >= capacity

    def cheapest_cost(self) -> float:
        """Cost of the cheapest annotator (the affordability threshold)."""
        return float(self.pool.costs.min())

    # ------------------------------------------------------------------
    # Evaluation-only access
    # ------------------------------------------------------------------
    def evaluation_labels(self) -> np.ndarray:
        """Ground truth — for metric computation only, never for learning."""
        return self._true_labels.copy()
