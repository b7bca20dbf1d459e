"""The Hybrid baseline (paper Section VI-A2).

"In each labeling iteration, it used a MinExpError algorithm [26] based on
the method of bootstrap, which selected the object whose labels from
annotators were different from the label predicted by the current
classifier with the maximum probability.  It used a DQN for task assignment
as used in [32] ...  For truth inference, it used a PM algorithm [48]."

So Hybrid glues together best-of-breed *independent* components:

* TS — bootstrap MinExpError scores over unlabelled objects;
* TA — a small DQN (as in Shan et al.) that, given the selected object,
  picks annotators; its reward is answer-agreement with the inferred truth
  minus a cost penalty;
* TI — PM.

It is the strongest baseline in Fig. 4 but still trails CrowdRL because TS
and TA never coordinate, and PM ignores object features.
"""

from __future__ import annotations

import numpy as np

from repro.active.bootstrap import min_exp_error_scores
from repro.baselines.common import initial_random_sample, train_final_classifier
from repro.core.config import (
    BATCH_SIZE,
    MAX_ITERATIONS,
    MIN_LABELS_FOR_CLASSIFIER,
    default_classifier_factory,
)
from repro.core.framework import LabellingFramework
from repro.core.result import LabellingOutcome
from repro.crowd.platform import CrowdPlatform
from repro.datasets.base import LabelledDataset
from repro.exceptions import ConfigurationError
from repro.inference.pm import PMInference
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.utils.rng import SeedLike, as_rng

#: Featurization width of the assignment DQN: annotator cost, estimated
#: quality, expert flag, load + object answer count and disagreement.
_TA_FEATURES = 6
#: Weight of the normalised answer cost in the assignment DQN's reward.
COST_PENALTY = 0.3


class Hybrid(LabellingFramework):
    """MinExpError TS + DQN TA (Shan et al.) + PM TI."""

    name = "Hybrid"

    def __init__(self, *, alpha: float = 0.05, k_per_object: int = 3,
                 n_bootstrap: int = 4, epsilon: float = 0.15,
                 rng: SeedLike = None) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if k_per_object <= 0 or n_bootstrap <= 0:
            raise ConfigurationError(
                "k_per_object and n_bootstrap must be > 0"
            )
        if not 0 <= epsilon <= 1:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        self.alpha = alpha
        self.k_per_object = k_per_object
        self.n_bootstrap = n_bootstrap
        self.epsilon = epsilon
        self._rng = as_rng(rng)

    # ------------------------------------------------------------------
    def _ta_features(self, platform: CrowdPlatform, object_id: int) -> np.ndarray:
        """Featurize every annotator for the assignment DQN, ``(|W|, 6)``."""
        pool = platform.pool
        costs = pool.costs
        qualities = pool.estimated_qualities()
        experts = pool.expert_mask.astype(float)
        loads = np.array([
            platform.history.annotator_load(j) for j in range(len(pool))
        ]) / max(platform.n_objects, 1)
        n_answers = platform.history.n_answers(object_id)
        counts = platform.history.answer_counts(object_id)
        disagreement = (
            1.0 - counts.max() / counts.sum() if counts.sum() > 0 else 0.0
        )
        obj = np.array([min(n_answers / self.k_per_object, 1.0), disagreement])
        return np.column_stack([
            costs / costs.max(), qualities, experts, loads,
            np.tile(obj, (len(pool), 1)),
        ])

    # ------------------------------------------------------------------
    def run(self, dataset: LabelledDataset,
            platform: CrowdPlatform) -> LabellingOutcome:
        """Run the hybrid TA+TI loop within ``budget``."""
        n = platform.n_objects
        pm = PMInference()
        ta_agent = DQNAgent(
            DQNConfig(n_features=_TA_FEATURES, hidden=(32, 16),
                      min_buffer_for_training=16),
            rng=self._rng,
        )
        initial_random_sample(platform, self.alpha, self.k_per_object, self._rng)

        truths: dict[int, int] = {}
        iterations = 0

        def infer() -> None:
            answers = platform.history.answer_map()
            if not answers:
                return
            result = pm.infer(answers, platform.n_classes, len(platform.pool))
            truths.clear()
            truths.update(result.labels)

        infer()
        while iterations < MAX_ITERATIONS:
            iterations += 1
            if not platform.budget.can_afford(platform.cheapest_cost()):
                break
            remaining = [i for i in range(n) if i not in truths
                         and platform.history.n_answers(i) < len(platform.pool)]
            if not remaining:
                break

            # ---- TS: bootstrap MinExpError ----
            labelled_ids = np.fromiter(truths.keys(), dtype=int)
            if (labelled_ids.size >= MIN_LABELS_FOR_CLASSIFIER
                    and np.unique(
                        np.fromiter(truths.values(), dtype=int)).size >= 2):
                y = np.array([truths[i] for i in labelled_ids])
                scores = min_exp_error_scores(
                    lambda: default_classifier_factory(
                        dataset.n_features, platform.n_classes, self._rng
                    ),
                    dataset.features[labelled_ids], y,
                    dataset.features[remaining],
                    n_bootstrap=self.n_bootstrap, rng=self._rng,
                )
                order = np.argsort(-scores, kind="stable")
                batch = [remaining[i] for i in order[:BATCH_SIZE]]
            else:
                k = min(BATCH_SIZE, len(remaining))
                batch = [int(i) for i in
                         self._rng.choice(remaining, size=k, replace=False)]

            # ---- TA: epsilon-greedy DQN over annotators ----
            batch_assignments: list[tuple[int, list[int]]] = []
            taken: list[tuple[int, np.ndarray, int]] = []  # (obj, feat, ann)
            for object_id in batch:
                feats = self._ta_features(platform, object_id)
                q = ta_agent.q_values(feats)
                free = [j for j in range(len(platform.pool))
                        if not platform.history.has_answered(object_id, j)]
                chosen: list[int] = []
                pool_free = list(free)
                for _ in range(min(self.k_per_object, len(pool_free))):
                    if self._rng.random() < self.epsilon:
                        pick = int(self._rng.choice(pool_free))
                    else:
                        pick = max(pool_free, key=lambda j: q[j])
                    chosen.append(pick)
                    pool_free.remove(pick)
                if chosen:
                    batch_assignments.append((object_id, chosen))
                    taken.extend(
                        (object_id, feats[j], j) for j in chosen
                    )

            records = platform.ask_batch(batch_assignments)
            if not records:
                break
            infer()

            # ---- TA reward: agreement with inferred truth, cost penalty ----
            answered_pairs = {(r.object_id, r.annotator_id): r for r in records}
            max_cost = float(platform.pool.costs.max())
            for object_id, feats, annotator_id in taken:
                record = answered_pairs.get((object_id, annotator_id))
                if record is None:
                    continue  # budget ran out mid-batch
                truth = truths.get(object_id)
                agree = 1.0 if truth is not None and record.answer == truth else 0.0
                reward = agree - COST_PENALTY * record.cost / max_cost
                ta_agent.remember(feats, reward, None, True)
            ta_agent.train(2)

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
            extras={"n_truths": len(truths),
                    "ta_train_steps": ta_agent.train_steps},
        )
