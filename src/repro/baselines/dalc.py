"""DALC baseline (Yang et al., WWW 2018; paper ref [42]).

"It provided a unified Bayesian model to infer the true labels and
parameters of the classification model to reach an optimal learning
efficiency simultaneously.  In each labeling iteration, it selected some
most informative tasks and the annotators with the highest expertise for
these tasks."

Realisation: DALC couples a Bayesian label model (Dawid–Skene EM) with a
classifier trained on the inferred labels, alternating between them — the
"infer labels and model parameters simultaneously" loop — but without
CrowdRL's joint E-step coupling, expert-quality bounding, or classifier
tempering (those are CrowdRL's contributions).  It keeps TS and TA
independent: tasks are chosen by classifier-posterior entropy and always
assigned to the *highest-expertise* annotators regardless of cost, which
burns the (10x pricier) experts' budget quickly — the structural reasons it
trails CrowdRL in Fig. 4.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    initial_random_sample,
    rank_annotators_by_quality,
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


class DALC(LabellingFramework):
    """Unified Bayesian inference; entropy TS; highest-expertise TA."""

    name = "DALC"

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
        """Run DALC's decoupled select/assign loop within ``budget``."""
        n = platform.n_objects
        initial_random_sample(platform, self.alpha, self.k_per_object, self._rng)

        truths: dict[int, int] = {}
        classifier = None
        iterations = 0

        def infer() -> None:
            nonlocal classifier
            answers = platform.history.answer_map()
            if not answers:
                return
            # DALC alternates Bayesian label inference with classifier
            # refitting on the inferred labels.  Unlike CrowdRL's joint
            # model, the classifier does not feed back into the E-step
            # (Section V's critique of treating the two independently).
            result = DawidSkene().infer(
                answers, platform.n_classes, len(platform.pool)
            )
            truths.clear()
            truths.update(result.labels)
            for j, confusion in result.confusions.items():
                platform.pool.set_estimate(j, confusion)
            fitted = train_final_classifier(
                dataset.features, truths, platform.n_classes, rng=self._rng
            )
            if fitted is not None:
                classifier = fitted

        infer()
        while iterations < MAX_ITERATIONS:
            iterations += 1
            if not platform.budget.can_afford(platform.cheapest_cost()):
                break
            remaining = [i for i in range(n) if i not in truths
                         and platform.history.n_answers(i) < len(platform.pool)]
            if not remaining:
                break

            # ---- most informative tasks: classifier-posterior entropy ----
            if classifier is not None:
                proba = classifier.predict_proba(dataset.features[remaining])
                scores = -(proba * np.log(proba + 1e-12)).sum(axis=1)
                order = np.argsort(-scores, kind="stable")
                batch = [remaining[i] for i in order[:BATCH_SIZE]]
            else:
                k = min(BATCH_SIZE, len(remaining))
                batch = [int(i) for i in
                         self._rng.choice(remaining, size=k, replace=False)]

            # ---- highest-expertise annotators, cost ignored ----
            ranked = rank_annotators_by_quality(platform)
            assignments = []
            for object_id in batch:
                free = [j for j in ranked
                        if not platform.history.has_answered(object_id, j)]
                if free:
                    assignments.append((object_id, free[: self.k_per_object]))
            if not platform.ask_batch(assignments):
                break
            infer()

        proba = (
            classifier.predict_proba(dataset.features)
            if classifier is not None else None
        )
        return self._outcome(
            platform, truths, iterations,
            proba=proba,
            extras={"n_truths": len(truths)},
        )
