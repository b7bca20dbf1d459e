"""CrowdRL joint truth inference (paper Section V).

Rather than treating the trained classifier as "just another annotator"
(which compounds annotator noise with model bias), the joint model runs one
EM over three coupled unknowns:

* the latent true labels ``y_i`` (E-step posterior ``q(y_i)``),
* each annotator's confusion matrix ``Pi^j`` (M-step soft counts), and
* the classifier parameters ``Theta`` (M-step: retrain on soft labels).

E-step (Eq. 8's posterior):  ``q(y_i = c)  propto  p(y_i = c | phi(x_i);
Theta_last) * prod_j p(yhat_i^j | y_i = c, Pi^j_last)``.

M-step confusion update uses soft counts (the paper's hard-indicator
formula in the soft-posterior limit), and expert rows are bounded below so
an EM run cannot demote an expert (Section V-A2; see DESIGN.md for how we
resolve the garbled printed formula).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.classifiers.base import Classifier
from repro.crowd.confusion import ConfusionMatrix
from repro.exceptions import ConfigurationError
from repro.inference.base import AnswerMap, InferenceResult, TruthInference
from repro.inference.em import (
    _AnswerIndex,
    _e_step_posteriors,
    _m_step_confusions,
)
from repro.obs import get_registry, phase_timer

#: Histogram edges for each sweep's ``max_delta`` (``infer.em_max_delta``):
#: decades around the default ``tol`` of 1e-4.
EM_DELTA_EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _floor_diagonals(confusions: np.ndarray, mask: np.ndarray,
                     floor: float) -> np.ndarray:
    """``confusions`` with the diagonals of ``mask`` rows bounded by ``floor``.

    :meth:`ConfusionMatrix.with_quality_floor` over a stack: each class
    whose diagonal entry is under ``floor`` gets ``floor`` on the diagonal
    and the rest of its row spread uniformly off-diagonal.
    """
    n_classes = confusions.shape[-1]
    diag = np.arange(n_classes)
    low = (confusions[:, diag, diag] < floor) & mask[:, None]
    bounded = confusions.copy()
    bounded[low] = (1.0 - floor) / (n_classes - 1)
    matrix, cls = np.nonzero(low)
    bounded[matrix, cls, cls] = floor
    return bounded


class JointInference(TruthInference):
    """EM over classifier parameters, confusion matrices and truths.

    Parameters
    ----------
    classifier:
        Any :class:`~repro.classifiers.base.Classifier`; retrained on soft
        labels every M-step (its final fit is exposed as
        :attr:`fitted_classifier` and doubles as the framework's ``phi``).
    features:
        ``(n_objects, n_features)`` matrix indexed by object id.
    expert_mask:
        Boolean per-annotator vector; ``True`` rows get quality bounding.
    expert_floor:
        Minimum diagonal confusion entry for experts (``1 - epsilon`` in the
        paper's notation; default 0.9).
    classifier_weight:
        Multiplier on the classifier's log-likelihood contribution in the
        E-step.  ``1.0`` is the paper's model; ``0.0`` disables the
        classifier (useful for ablations).
    classifier_clip:
        The classifier's probabilities are clipped into
        ``[1-clip, clip]`` before entering the E-step, so the classifier
        contributes like one reasonably good annotator instead of an
        infinitely confident one.  Without this the EM feedback loop
        (classifier trained on posteriors that the classifier itself
        shaped) can amplify early mistakes — the very composite-bias
        problem Section V warns about.
    max_iter / tol / smoothing:
        EM controls, matching :class:`~repro.inference.dawid_skene.DawidSkene`.
    learn_prior:
        When False (default) the class prior stays uniform.  Learning the
        prior jointly with the classifier term invites a slow runaway —
        each EM sweep tilts the prior a little further toward the majority
        posterior until everything collapses onto one class — so it is off
        unless the caller knows the classes are genuinely imbalanced.
    """

    def __init__(
        self,
        classifier: Classifier,
        features: np.ndarray,
        *,
        expert_mask: Optional[Sequence[bool]] = None,
        expert_floor: float = 0.9,
        classifier_weight: float = 1.0,
        classifier_clip: float = 0.8,
        max_iter: int = 30,
        tol: float = 1e-4,
        smoothing: float = 1.0,
        refit_every: int = 1,
        learn_prior: bool = False,
    ) -> None:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ConfigurationError(
                f"features must be 2-D, got shape {features.shape}"
            )
        if not 0.0 < expert_floor < 1.0:
            raise ConfigurationError(
                f"expert_floor must be in (0, 1), got {expert_floor}"
            )
        if classifier_weight < 0:
            raise ConfigurationError(
                f"classifier_weight must be >= 0, got {classifier_weight}"
            )
        if max_iter <= 0 or refit_every <= 0:
            raise ConfigurationError("max_iter and refit_every must be > 0")
        if not 0.5 < classifier_clip < 1.0:
            raise ConfigurationError(
                f"classifier_clip must be in (0.5, 1), got {classifier_clip}"
            )
        self.classifier_clip = classifier_clip
        self.classifier = classifier
        self.features = features
        self.expert_mask = (
            np.asarray(expert_mask, dtype=bool) if expert_mask is not None else None
        )
        self.expert_floor = expert_floor
        self.classifier_weight = classifier_weight
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.refit_every = refit_every
        self.learn_prior = learn_prior
        self.fitted_classifier: Optional[Classifier] = None

    # ------------------------------------------------------------------
    def infer(self, answers: AnswerMap, n_classes: int,
              n_annotators: int) -> InferenceResult:
        """Run the joint EM of Section V over ``answers`` (Eqs. 7-8)."""
        self._validate(answers, n_classes, n_annotators)
        if self.expert_mask is not None and self.expert_mask.size != n_annotators:
            raise ConfigurationError(
                f"expert_mask has {self.expert_mask.size} entries, expected "
                f"{n_annotators}"
            )
        index = _AnswerIndex(answers, n_classes, n_annotators)
        object_ids = index.object_ids
        if not object_ids:
            return InferenceResult(posteriors={}, labels={})
        for oid in object_ids:
            if not 0 <= oid < self.features.shape[0]:
                raise ConfigurationError(
                    f"object id {oid} has no feature row (features cover "
                    f"{self.features.shape[0]} objects)"
                )

        x = self.features[object_ids]

        # ---- Initialise q(y) with majority voting ----
        post = index.vote_shares()

        prior = np.full(n_classes, 1.0 / n_classes)
        clf_log = np.zeros((len(object_ids), n_classes))  # classifier term

        converged = False
        iteration = 0
        max_deltas: list[float] = []
        for iteration in range(1, self.max_iter + 1):
            # ---- M-step ----
            with phase_timer("infer.m_step"):
                # (a) Annotator confusion matrices from soft counts.
                confusions = _m_step_confusions(
                    index.soft_counts(post, self.smoothing)
                )
                if self.learn_prior:
                    prior_mass = index.class_mass(post, self.smoothing)
                    prior = prior_mass / prior_mass.sum()

                # (b) Expert-quality bounding (Section V-A2).
                if self.expert_mask is not None:
                    confusions = _floor_diagonals(
                        confusions, self.expert_mask, self.expert_floor
                    )

            # (c) Retrain the classifier on the soft posteriors.
            if self.classifier_weight > 0 and iteration % self.refit_every == 0:
                with phase_timer("infer.refit"):
                    self.classifier.fit_soft(x, post.copy())
                    self.fitted_classifier = self.classifier
                    proba = np.clip(
                        self.classifier.predict_proba(x),
                        1.0 - self.classifier_clip,
                        self.classifier_clip,
                    )
                    clf_log = self.classifier_weight * np.log(proba)

            # ---- E-step ----
            with phase_timer("infer.e_step"):
                new_post = _e_step_posteriors(index, prior, clf_log, confusions)
            max_delta = float(np.abs(new_post - post).max())
            max_deltas.append(max_delta)
            post = new_post

            if max_delta < self.tol:
                converged = True
                break

        registry = get_registry()
        registry.inc("infer.em_sweeps", iteration)
        for max_delta in max_deltas:
            registry.observe("infer.em_max_delta", max_delta, EM_DELTA_EDGES)
        if converged:
            registry.inc("infer.em_converged")
        else:
            registry.inc("infer.em_hit_max_iter")

        posteriors = {oid: post[row] for row, oid in enumerate(object_ids)}
        return InferenceResult(
            posteriors=posteriors,
            labels=self._posterior_to_labels(posteriors),
            confusions={
                int(j): ConfusionMatrix(confusions[j])
                for j in np.unique(index.annotators)
            },
            iterations=iteration,
            converged=converged,
            max_deltas=max_deltas,
        )
