"""Dawid–Skene expectation-maximisation truth inference.

The classic confusion-matrix EM [Dawid & Skene 1979; paper ref 48 surveys
it].  E-step: posterior over each object's true label given current
confusion matrices and class prior.  M-step: re-estimate confusion matrices
from soft counts and the prior from posterior mass.  DLTA, IDLE and DALC
use this as their inference component, re-running it over every answered
object at each labelling iteration; both steps are the bincount kernels
of :mod:`repro.inference.em`.
"""

from __future__ import annotations

import numpy as np

from repro.crowd.confusion import ConfusionMatrix
from repro.exceptions import ConfigurationError
from repro.inference.base import AnswerMap, InferenceResult, TruthInference
from repro.inference.em import (
    _AnswerIndex,
    _e_step_posteriors,
    _m_step_confusions,
)


class DawidSkene(TruthInference):
    """Confusion-matrix EM: the inference of the DLTA, IDLE and DALC baselines.

    Parameters
    ----------
    max_iter:
        Iteration cap for the EM loop.
    tol:
        Convergence threshold on the max-abs change of posteriors.
    smoothing:
        Laplace smoothing added to the soft confusion counts so no entry
        collapses to zero probability.
    """

    def __init__(self, *, max_iter: int = 100, tol: float = 1e-5,
                 smoothing: float = 0.1) -> None:
        if max_iter <= 0:
            raise ConfigurationError(f"max_iter must be > 0, got {max_iter}")
        if tol <= 0:
            raise ConfigurationError(f"tol must be > 0, got {tol}")
        if smoothing < 0:
            raise ConfigurationError(f"smoothing must be >= 0, got {smoothing}")
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing

    def infer(self, answers: AnswerMap, n_classes: int,
              n_annotators: int) -> InferenceResult:
        """Run Dawid-Skene EM over ``answers``."""
        self._validate(answers, n_classes, n_annotators)
        index = _AnswerIndex(answers, n_classes, n_annotators)
        if not index.object_ids:
            return InferenceResult(posteriors={}, labels={})

        # Initialise posteriors with majority voting.
        post = index.vote_shares()
        no_classifier = np.zeros_like(post)

        converged = False
        iteration = 0
        max_deltas: list[float] = []
        for iteration in range(1, self.max_iter + 1):
            # M-step: soft confusion counts and prior.
            confusions = _m_step_confusions(
                index.soft_counts(post, self.smoothing)
            )
            prior_mass = index.class_mass(post, self.smoothing)
            prior = prior_mass / prior_mass.sum()

            # E-step: posterior per object.
            new_post = _e_step_posteriors(index, prior, no_classifier, confusions)
            max_delta = float(np.abs(new_post - post).max())
            max_deltas.append(max_delta)
            post = new_post

            if max_delta < self.tol:
                converged = True
                break

        posteriors = {oid: post[row] for row, oid in enumerate(index.object_ids)}
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
