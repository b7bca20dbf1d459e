"""The PM (point-estimation / minimax entropy-style weighted) algorithm.

Paper reference [48] (Zheng et al., "Truth inference in crowdsourcing: Is
the problem solved?", PVLDB 2017) describes PM as iteratively alternating
between (a) estimating each object's truth as the weight-maximising label
and (b) re-estimating each annotator's weight from its distance to the
current truths, until both converge.  The Hybrid baseline and the paper's
M3 ablation use PM as their truth-inference component.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.inference.base import AnswerMap, InferenceResult, TruthInference
from repro.inference.em import _AnswerIndex


class PMInference(TruthInference):
    """Iterative weighted voting with distance-based annotator weights.

    Annotator weight update follows the PM scheme: ``w_j = -log(err_j)``
    where ``err_j`` is the (regularised) fraction of annotator j's answers
    that disagree with the current truth estimates.
    """

    def __init__(self, *, max_iter: int = 100, tol: float = 1e-6,
                 regulariser: float = 1e-3) -> None:
        if max_iter <= 0:
            raise ConfigurationError(f"max_iter must be > 0, got {max_iter}")
        if tol <= 0:
            raise ConfigurationError(f"tol must be > 0, got {tol}")
        if not 0 < regulariser < 0.5:
            raise ConfigurationError(
                f"regulariser must be in (0, 0.5), got {regulariser}"
            )
        self.max_iter = max_iter
        self.tol = tol
        self.regulariser = regulariser

    def infer(self, answers: AnswerMap, n_classes: int,
              n_annotators: int) -> InferenceResult:
        """Run PM's distance-based iterative weighting over ``answers``."""
        self._validate(answers, n_classes, n_annotators)
        index = _AnswerIndex(answers, n_classes, n_annotators)
        if not index.object_ids:
            return InferenceResult(posteriors={}, labels={})

        n_seen = np.bincount(index.annotators, minlength=n_annotators)
        seen = n_seen > 0
        weights = np.ones(n_annotators)
        converged = False
        iteration = 0

        for iteration in range(1, self.max_iter + 1):
            # Truth update: weighted votes.
            scores = np.bincount(
                index.votes, weights[index.annotators],
                minlength=len(index.object_ids) * n_classes,
            ).reshape(-1, n_classes)
            # Every object has an answer and every weight is positive
            # (err <= 1 - regulariser), so no row total is zero.
            post = scores / scores.sum(axis=1, keepdims=True)
            labels = post.argmax(axis=1)

            # Weight update: w_j = -log(regularised error rate).
            wrong = index.answers != labels[index.rows]
            n_wrong = np.bincount(index.annotators[wrong],
                                  minlength=n_annotators)
            err = np.clip(n_wrong[seen] / n_seen[seen],
                          self.regulariser, 1.0 - self.regulariser)
            new_weights = weights.copy()
            new_weights[seen] = -np.log(err)

            delta = float(np.abs(new_weights - weights).max())
            weights = new_weights
            if delta < self.tol:
                converged = True
                break

        posteriors = {oid: post[row] for row, oid in enumerate(index.object_ids)}
        return InferenceResult(
            posteriors=posteriors,
            labels=self._posterior_to_labels(posteriors),
            iterations=iteration,
            converged=converged,
        )
