"""OBA baseline (Kobayashi et al., WWW 2020; paper ref [15]).

"It trained a model based on the labelled data as 'AI workers' (e.g. KNN).
In each labelling iteration, the human workers first labeled some objects
and the labelled set would be updated.  Then the 'AI Worker' predicted the
labels for all of the unlabelled objects.  For each object, if the
confidence of the prediction was higher than a threshold, it would be
labelled, otherwise it would be assigned to human workers in the following
iterations.  It assumed that the human worker could always give true
labels."

That trust assumption is OBA's downfall in the paper's Fig. 4 (it performs
worst): each object is asked to a *single* human and the raw noisy answer
becomes the label, which also poisons the AI worker's training set.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.knn import KNNClassifier
from repro.core.config import MAX_ITERATIONS
from repro.core.framework import LabellingFramework
from repro.core.result import LabellingOutcome
from repro.crowd.platform import CrowdPlatform
from repro.datasets.base import LabelledDataset
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_rng

#: Objects sent to humans per iteration, one trusted answer each.
BATCH_SIZE = 12
#: Neighbours of the KNN "AI worker".
KNN_K = 5


class OBA(LabellingFramework):
    """Human+AI crowd with trusted single human answers and a KNN AI worker."""

    name = "OBA"

    def __init__(self, *, alpha: float = 0.05,
                 confidence_threshold: float = 0.75,
                 rng: SeedLike = None) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if not 0.5 <= confidence_threshold < 1.0:
            raise ConfigurationError(
                f"confidence_threshold must be in [0.5, 1), got "
                f"{confidence_threshold}"
            )
        self.alpha = alpha
        self.confidence_threshold = confidence_threshold
        self._rng = as_rng(rng)

    def run(self, dataset: LabelledDataset,
            platform: CrowdPlatform) -> LabellingOutcome:
        """Run OBA's online assignment loop within ``budget``."""
        n = platform.n_objects
        workers = [a.annotator_id for a in platform.pool if not a.is_expert]
        # OBA's model has homogeneous "human workers"; fall back to the whole
        # pool if the platform provides only experts.
        humans = workers or [a.annotator_id for a in platform.pool]

        human_labels: dict[int, int] = {}
        ai_labels: dict[int, int] = {}
        pending = list(self._rng.permutation(n))
        iterations = 0

        while iterations < MAX_ITERATIONS:
            iterations += 1
            # ---- humans label a batch (one trusted answer per object) ----
            batch = [i for i in pending if i not in human_labels
                     and i not in ai_labels][:BATCH_SIZE]
            if not batch:
                break
            progressed = False
            for object_id in batch:
                worker = int(self._rng.choice(humans))
                if platform.history.has_answered(object_id, worker):
                    free = [
                        j for j in humans
                        if not platform.history.has_answered(object_id, j)
                    ]
                    if not free:
                        continue
                    worker = free[0]
                if not platform.budget.can_afford(platform.pool[worker].cost):
                    continue
                record = platform.ask(object_id, worker)
                human_labels[object_id] = record.answer  # trusted verbatim
                progressed = True
            if not progressed:
                break

            # ---- AI worker predicts; confident predictions stick ----
            labelled = {**ai_labels, **human_labels}
            ids = np.fromiter(labelled.keys(), dtype=int)
            y = np.fromiter(labelled.values(), dtype=int)
            if ids.size >= KNN_K and np.unique(y).size >= 2:
                ai = KNNClassifier(platform.n_classes, k=KNN_K)
                ai.fit(dataset.features[ids], y)
                unlabelled = [i for i in range(n) if i not in labelled]
                if unlabelled:
                    proba = ai.predict_proba(dataset.features[unlabelled])
                    for row, object_id in enumerate(unlabelled):
                        if proba[row].max() >= self.confidence_threshold:
                            ai_labels[object_id] = int(proba[row].argmax())

            if len(human_labels) + len(ai_labels) >= n:
                break
            if not platform.budget.can_afford(platform.cheapest_cost()):
                break

        # Leftovers: final AI prediction regardless of confidence.
        labelled = {**ai_labels, **human_labels}
        proba = None
        ids = np.fromiter(labelled.keys(), dtype=int) if labelled else np.array([], int)
        if ids.size >= KNN_K:
            y = np.fromiter(labelled.values(), dtype=int)
            if np.unique(y).size >= 2:
                ai = KNNClassifier(platform.n_classes, k=KNN_K)
                ai.fit(dataset.features[ids], y)
                proba = ai.predict_proba(dataset.features)
        return self._outcome(
            platform, human_labels, iterations,
            enriched=ai_labels,
            proba=proba,
            extras={"n_human": len(human_labels), "n_ai": len(ai_labels)},
        )
