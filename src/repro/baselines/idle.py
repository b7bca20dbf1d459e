"""IDLE baseline (Lee et al., EDBT 2018; paper ref [16]).

"An end-to-end multi-level classification framework.  On the first level,
it collected cost-effective truth inference from crowdsourcing workers
whose answers have potentially high bias and variance.  On the second
level, experts provided confident answers.  For ambiguous cases, the
objects would be labeled as 'unsolvable'.  The task selection process was
random, and it used EM algorithms for truth inference."

Random selection is IDLE's structural weakness (Fig. 4's observation 4):
budget is spread without regard to informativeness, and expert escalation
is expensive.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import train_final_classifier
from repro.core.config import BATCH_SIZE, MAX_ITERATIONS
from repro.core.framework import LabellingFramework
from repro.core.result import LabellingOutcome
from repro.crowd.platform import CrowdPlatform
from repro.datasets.base import LabelledDataset
from repro.exceptions import ConfigurationError
from repro.inference.dawid_skene import DawidSkene
from repro.utils.rng import SeedLike, as_rng

#: Experts asked per escalated object (level two).
K_EXPERTS = 1


class IDLE(LabellingFramework):
    """Random selection; worker level, expert escalation, EM inference."""

    name = "IDLE"

    def __init__(self, *, k_workers: int = 3,
                 escalation_confidence: float = 0.8,
                 rng: SeedLike = None) -> None:
        if k_workers <= 0:
            raise ConfigurationError(f"k_workers must be > 0, got {k_workers}")
        if not 0.5 < escalation_confidence < 1.0:
            raise ConfigurationError(
                f"escalation_confidence must be in (0.5, 1), got "
                f"{escalation_confidence}"
            )
        self.k_workers = k_workers
        self.escalation_confidence = escalation_confidence
        self._rng = as_rng(rng)

    def run(self, dataset: LabelledDataset,
            platform: CrowdPlatform) -> LabellingOutcome:
        """Run IDLE's influence-driven loop within ``budget``."""
        n = platform.n_objects
        worker_ids = [a.annotator_id for a in platform.pool if not a.is_expert]
        expert_ids = [a.annotator_id for a in platform.pool if a.is_expert]
        if not worker_ids:  # expert-only pool: level one uses experts too
            worker_ids = expert_ids
        em = DawidSkene()

        truths: dict[int, int] = {}
        confidences: dict[int, float] = {}
        unsolvable: set[int] = set()
        never_asked = list(self._rng.permutation(n))
        escalation_queue: list[int] = []
        iterations = 0

        def reinfer() -> None:
            answers = platform.history.answer_map()
            if not answers:
                return
            result = em.infer(answers, platform.n_classes, len(platform.pool))
            truths.clear()
            truths.update(result.labels)
            confidences.clear()
            confidences.update(
                {oid: result.confidence(oid) for oid in result.labels}
            )
            for j, confusion in result.confusions.items():
                platform.pool.set_estimate(j, confusion)

        while iterations < MAX_ITERATIONS:
            iterations += 1
            if not platform.budget.can_afford(platform.cheapest_cost()):
                break

            progressed = False
            # ---- level 2: escalate ambiguous objects to experts ----
            while escalation_queue and expert_ids:
                object_id = escalation_queue[0]
                free = [j for j in expert_ids
                        if not platform.history.has_answered(object_id, j)]
                chosen = free[:K_EXPERTS]
                if not chosen:
                    unsolvable.add(escalation_queue.pop(0))
                    continue
                if not platform.budget.can_afford(
                    sum(platform.pool[j].cost for j in chosen)
                ):
                    break
                escalation_queue.pop(0)
                platform.ask_batch([(object_id, chosen)])
                progressed = True

            # ---- level 1: random batch to workers ----
            batch = []
            while never_asked and len(batch) < BATCH_SIZE:
                batch.append(never_asked.pop())
            assignments = []
            for object_id in batch:
                k = min(self.k_workers, len(worker_ids))
                chosen = [int(j) for j in
                          self._rng.choice(worker_ids, size=k, replace=False)]
                assignments.append((object_id, chosen))
            if assignments and platform.ask_batch(assignments):
                progressed = True

            if not progressed:
                break
            reinfer()

            # Queue freshly low-confidence worker-level objects for experts.
            for object_id in batch:
                conf = confidences.get(object_id, 0.0)
                if (conf < self.escalation_confidence
                        and object_id not in escalation_queue
                        and object_id not in unsolvable):
                    escalation_queue.append(object_id)

        # "Unsolvable" objects keep their best-effort inferred label;
        # never-asked leftovers are labelled by a final classifier.
        classifier = train_final_classifier(
            dataset.features, truths, platform.n_classes, rng=self._rng
        )
        proba = (
            classifier.predict_proba(dataset.features)
            if classifier is not None else None
        )
        return self._outcome(
            platform, truths, iterations,
            proba=proba,
            extras={
                "n_truths": len(truths),
                "n_unsolvable": len(unsolvable),
                "n_escalated_pending": len(escalation_queue),
            },
        )
