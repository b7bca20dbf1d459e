"""DLTA baseline (Zheng & Chen, TKDE 2019; paper ref [46]).

"The labeling process was divided into multiple iterations.  Each iteration
consisted of two steps, label inference and label acquisition.  In the
label inference step, it used an EM algorithm to complete the process of
answer aggregation.  In the label acquisition step, given the budget, it
selected proper objects for labeling to maximize the benefits."

Realisation: Dawid–Skene EM for inference; acquisition picks the objects
whose current posterior is most uncertain (highest entropy; never-answered
objects are maximally uncertain) — the benefit-maximising choice under an
uncertainty-reduction benefit — and assigns them to the best
quality-per-cost annotators.  DLTA has no classifier in the loop; leftover
objects are labelled by a classifier trained on its inferred labels at the
end, which is the standard way to make it produce labels for all of O.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import (
    initial_random_sample,
    rank_annotators_by_value,
    train_final_classifier,
)
from repro.core.config import BATCH_SIZE, MAX_ITERATIONS
from repro.core.framework import LabellingFramework
from repro.core.result import LabellingOutcome
from repro.crowd.platform import CrowdPlatform
from repro.datasets.base import LabelledDataset
from repro.exceptions import ConfigurationError
from repro.inference.dawid_skene import DawidSkene
from repro.utils.rng import SeedLike, as_rng


class DLTA(LabellingFramework):
    """EM inference + uncertainty-driven acquisition."""

    name = "DLTA"

    def __init__(self, *, alpha: float = 0.05, k_per_object: int = 3,
                 rng: SeedLike = None) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if k_per_object <= 0:
            raise ConfigurationError("k_per_object must be > 0")
        self.alpha = alpha
        self.k_per_object = k_per_object
        self._rng = as_rng(rng)

    def run(self, dataset: LabelledDataset,
            platform: CrowdPlatform) -> LabellingOutcome:
        """Run DLTA's decoupled select/assign loop within ``budget``."""
        n = platform.n_objects
        em = DawidSkene()
        initial_random_sample(platform, self.alpha, self.k_per_object, self._rng)

        truths: dict[int, int] = {}
        posteriors: dict[int, np.ndarray] = {}
        iterations = 0
        while iterations < MAX_ITERATIONS:
            iterations += 1
            # ---- label inference ----
            answers = platform.history.answer_map()
            if answers:
                result = em.infer(answers, platform.n_classes, len(platform.pool))
                truths = dict(result.labels)
                posteriors = dict(result.posteriors)
                for j, confusion in result.confusions.items():
                    platform.pool.set_estimate(j, confusion)

            if not platform.budget.can_afford(platform.cheapest_cost()):
                break
            remaining = [i for i in range(n) if i not in truths]
            if not remaining:
                break

            # ---- label acquisition: most uncertain posteriors first ----
            def uncertainty(object_id: int) -> float:
                post = posteriors.get(object_id)
                if post is None:
                    return float(np.log(platform.n_classes))  # max entropy
                return float(-(post * np.log(post + 1e-12)).sum())

            # Objects fully answered by the pool cannot receive new labels.
            candidates = [
                i for i in range(n)
                if platform.history.n_answers(i) < len(platform.pool)
                and (i not in truths or uncertainty(i) > 1e-3)
            ]
            if not candidates:
                break
            candidates.sort(key=uncertainty, reverse=True)
            batch = candidates[:BATCH_SIZE]

            order = rank_annotators_by_value(platform)
            assignments = []
            for object_id in batch:
                free = [j for j in order
                        if not platform.history.has_answered(object_id, j)]
                if free:
                    assignments.append((object_id, free[: self.k_per_object]))
            if not platform.ask_batch(assignments):
                break

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
            extras={"n_truths": len(truths)},
        )
