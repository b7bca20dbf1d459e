"""The Environment: joint truth inference, enrichment, quality updates.

Section V: on each iteration the environment (1) retrains the classifier on
the current labelled set and enriches the labelled set with the classifier's
confident predictions (Algorithm 1 lines 4-14), (2) after new answers
arrive, runs the joint truth-inference model over all answered objects, and
(3) refreshes the learning-side annotator-quality estimates that feed the
State's quality column.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.core.config import (
    MIN_LABELS_FOR_CLASSIFIER,
    CrowdRLConfig,
    default_classifier_factory,
)
from repro.crowd.platform import CrowdPlatform
from repro.exceptions import ConfigurationError
from repro.inference.base import InferenceResult
from repro.inference.joint import JointInference
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference
from repro.obs import phase_timer
from repro.utils.rng import SeedLike, as_rng

#: Sweep cap of CrowdRL's joint EM (not :class:`JointInference`'s 30).
JOINT_MAX_ITER = 25


class Environment:
    """Couples the platform with joint inference and enrichment."""

    def __init__(
        self,
        platform: CrowdPlatform,
        features: np.ndarray,
        config: CrowdRLConfig,
        rng: SeedLike = None,
    ) -> None:
        features = np.asarray(features, dtype=float)
        if features.shape[0] != platform.n_objects:
            raise ConfigurationError(
                f"features cover {features.shape[0]} objects, platform has "
                f"{platform.n_objects}"
            )
        self.platform = platform
        self.features = features
        self.config = config
        self._rng = as_rng(rng)
        self.classifier: Optional[Classifier] = None
        #: Inferred labels for human-answered objects.
        self.truths: dict[int, int] = {}
        #: Posteriors backing those labels.
        self.posteriors: dict[int, np.ndarray] = {}
        #: Labels the classifier assigned during enrichment.
        self.enriched: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Truth inference (Section V-A)
    # ------------------------------------------------------------------
    def infer_truths(self) -> InferenceResult:
        """Run joint inference over every human-answered object.

        Falls back to majority voting while the labelled set is too small
        to train the classifier (the joint model needs a usable ``phi``).
        """
        with phase_timer("infer"):
            return self._infer_truths()

    def _infer_truths(self) -> InferenceResult:
        """Untimed body of :meth:`infer_truths`."""
        history = self.platform.history
        answers = history.answer_map()
        if not answers:
            return InferenceResult(posteriors={}, labels={})

        if self.config.inference_method == "pm":
            result = PMInference().infer(
                answers, self.platform.n_classes, len(self.platform.pool)
            )
        elif len(answers) >= MIN_LABELS_FOR_CLASSIFIER:
            classifier = default_classifier_factory(
                self.features.shape[1], self.platform.n_classes, self._rng
            )
            joint = JointInference(
                classifier,
                self.features,
                expert_mask=self.platform.pool.expert_mask,
                expert_floor=self.config.expert_floor,
                max_iter=JOINT_MAX_ITER,
            )
            result = joint.infer(
                answers, self.platform.n_classes, len(self.platform.pool)
            )
            if joint.fitted_classifier is not None:
                self.classifier = joint.fitted_classifier
        else:
            result = MajorityVote().infer(
                answers, self.platform.n_classes, len(self.platform.pool)
            )

        self.truths = dict(result.labels)
        self.posteriors = dict(result.posteriors)
        # Refresh the State's estimated-quality column; joint inference's own
        # matrices are the better estimate when available.
        if result.confusions:
            for j, confusion in result.confusions.items():
                self.platform.pool.set_estimate(j, confusion)
        else:
            self.platform.pool.update_estimates(history, self.truths)
        return result

    # ------------------------------------------------------------------
    # Labelled-set enrichment (Algorithm 1 lines 4-14)
    # ------------------------------------------------------------------
    def train_and_enrich(self) -> list[int]:
        """Retrain ``phi`` on the labelled set, then auto-label confident objects.

        Returns the ids labelled by the classifier this iteration.  Objects
        whose top-2 probability gap is at most the enrichment margin epsilon
        stay unlabelled (Algorithm 1 lines 10-11).  Previous enrichment
        labels are dropped and recomputed from the freshly trained
        classifier, so early mistakes heal as ``phi`` improves.
        """
        with phase_timer("enrich"):
            return self._train_and_enrich()

    def _train_and_enrich(self) -> list[int]:
        """Untimed body of :meth:`train_and_enrich`."""
        self.enriched.clear()
        if len(self.truths) < max(self.config.min_truths_for_enrichment,
                                  MIN_LABELS_FOR_CLASSIFIER):
            return []
        ids = np.fromiter(self.truths.keys(), dtype=int)
        y = np.fromiter(self.truths.values(), dtype=int)
        if np.unique(y).size < 2:
            return []  # classifier needs at least two observed classes

        if self.classifier is None or self.config.inference_method != "joint":
            # No jointly fitted classifier available — fit a fresh one.
            self.classifier = default_classifier_factory(
                self.features.shape[1], self.platform.n_classes, self._rng
            )
            with phase_timer("retrain"):
                self.classifier.fit(self.features[ids], y)

        keep = np.ones(self.platform.n_objects, dtype=bool)
        keep[ids] = False
        unlabelled = np.flatnonzero(keep)
        if unlabelled.size == 0:
            return []
        proba = self.classifier.predict_proba(self.features[unlabelled])
        part = np.partition(proba, -2, axis=1)
        margins = part[:, -1] - part[:, -2]
        # Vectorized margin test + argmax replaces the per-row Python loop;
        # `confident` is ascending, preserving the old insertion order.
        confident = np.flatnonzero(margins > self.config.enrichment_margin)
        labels = proba[confident].argmax(axis=1)
        newly = [int(i) for i in unlabelled[confident]]
        self.enriched.update(zip(newly, (int(c) for c in labels)))
        return newly

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def classifier_proba(self) -> Optional[np.ndarray]:
        """Class probabilities for all objects, or None before first training."""
        if self.classifier is None:
            return None
        return self.classifier.predict_proba(self.features)
