"""Plain-EM Dawid–Skene: the oracle for the SQUAREM-accelerated solver.

:class:`repro.inference.dawid_skene.DawidSkene` reaches the Dawid–Skene
fixed point by SQUAREM extrapolation between pairs of EM maps.  This is
the same model solved by plain EM, one M-step and one E-step per sweep,
kept here verbatim: joint EM without its classifier must take exactly
these sweeps (``test_inference_joint.py``), and at a tight ``tol`` both
solvers reach the same posteriors (``test_inference_em.py``).
"""

from __future__ import annotations

import numpy as np

from repro.crowd.confusion import ConfusionMatrix
from repro.inference.base import AnswerMap, InferenceResult
from repro.inference.em import (
    _AnswerIndex,
    _e_step_posteriors,
    _m_step_confusions,
)


def plain_em(answers: AnswerMap, n_classes: int, n_annotators: int, *,
             max_iter: int = 100, tol: float = 1e-5,
             smoothing: float = 0.3) -> InferenceResult:
    """Dawid–Skene by plain EM from majority-vote posteriors; ``max_iter``
    counts sweeps."""
    index = _AnswerIndex(answers, n_classes, n_annotators)
    post = index.vote_shares()
    no_classifier = np.zeros_like(post)

    converged = False
    iteration = 0
    max_deltas: list[float] = []
    for iteration in range(1, max_iter + 1):
        # M-step: soft confusion counts and prior.
        confusions = _m_step_confusions(index.soft_counts(post, smoothing))
        prior_mass = index.class_mass(post, smoothing)
        prior = prior_mass / prior_mass.sum()

        # E-step: posterior per object.
        new_post = _e_step_posteriors(index, prior, no_classifier, confusions)
        max_delta = float(np.abs(new_post - post).max())
        max_deltas.append(max_delta)
        post = new_post

        if max_delta < tol:
            converged = True
            break

    posteriors = {oid: post[row] for row, oid in enumerate(index.object_ids)}
    return InferenceResult(
        posteriors=posteriors,
        labels={oid: int(np.argmax(p)) for oid, p in posteriors.items()},
        confusions={
            int(j): ConfusionMatrix(confusions[j])
            for j in np.unique(index.annotators)
        },
        iterations=iteration,
        converged=converged,
        max_deltas=max_deltas,
    )
