"""Dawid–Skene expectation-maximisation truth inference.

The classic confusion-matrix EM [Dawid & Skene 1979; paper ref 48 surveys
it].  E-step: posterior over each object's true label given current
confusion matrices and class prior.  M-step: re-estimate confusion matrices
from soft counts and the prior from posterior mass.  DLTA, IDLE and DALC
use this as their inference component, re-running it over every answered
object at each labelling iteration; both steps are the bincount kernels
of :mod:`repro.inference.em`.

Plain EM creeps along a slow linear tail on these problems (each sweep
shrinks the change only ~0.96x), so the fixed point is reached by SQUAREM
[Varadhan & Roland 2008]: two EM maps, then a step along the squared
extrapolation of their differences, projected back onto the simplex
(DESIGN.md section 5).  The fixed point is plain EM's; ``tests/ds_oracle.py``
keeps plain EM as the oracle.
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
from repro.obs import get_registry

#: Floor an extrapolated posterior is clipped to before its rows are
#: renormalised: the projection back onto the open simplex.
_SIMPLEX_FLOOR = 1e-12


class DawidSkene(TruthInference):
    """Confusion-matrix EM: the inference of the DLTA, IDLE and DALC baselines.

    Parameters
    ----------
    max_iter:
        Cap on EM map evaluations (M-step plus E-step), extrapolated or not.
    tol:
        Convergence threshold on one EM map's max-abs change of posteriors.
    smoothing:
        Laplace smoothing added to the soft confusion counts so no entry
        collapses to zero probability.  The default 0.3 was chosen on
        paired seeds (DESIGN.md section 5).
    """

    def __init__(self, *, max_iter: int = 100, tol: float = 1e-5,
                 smoothing: float = 0.3) -> None:
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
        """Run SQUAREM-accelerated Dawid-Skene EM over ``answers``."""
        self._validate(answers, n_classes, n_annotators)
        index = _AnswerIndex(answers, n_classes, n_annotators)
        if not index.object_ids:
            return InferenceResult(posteriors={}, labels={})
        no_classifier = np.zeros((len(index.object_ids), n_classes))

        def em_map(post):
            confusions = _m_step_confusions(
                index.soft_counts(post, self.smoothing)
            )
            prior_mass = index.class_mass(post, self.smoothing)
            prior = prior_mass / prior_mass.sum()
            return _e_step_posteriors(index, prior, no_classifier,
                                      confusions), confusions

        # Initialise posteriors with majority voting.  Each cycle maps
        # start -> p1 -> p2 and extrapolates from start along r and v;
        # every map counts towards max_iter and records its max_delta.
        start = index.vote_shares()
        maps: list[np.ndarray] = []
        max_deltas: list[float] = []
        converged = False
        while len(max_deltas) < self.max_iter:
            previous = maps[-1] if maps else start
            post, confusions = em_map(previous)
            max_deltas.append(float(np.abs(post - previous).max()))
            maps.append(post)
            if max_deltas[-1] < self.tol:
                converged = True
                break
            if len(maps) < 2:
                continue
            p1, p2 = maps
            r = p1 - start
            v = p2 - p1 - r
            v_norm = float(np.sqrt(np.vdot(v, v)))
            alpha = -1.0 if v_norm == 0.0 else min(
                -float(np.sqrt(np.vdot(r, r))) / v_norm, -1.0)
            start = np.maximum(start - 2.0 * alpha * r + alpha * alpha * v,
                               _SIMPLEX_FLOOR)
            start /= start.sum(axis=1, keepdims=True)
            maps = []

        registry = get_registry()
        registry.inc("infer.ds_sweeps", len(max_deltas))
        registry.inc("infer.ds_converged" if converged
                     else "infer.ds_hit_max_iter")

        posteriors = {oid: post[row] for row, oid in enumerate(index.object_ids)}
        return InferenceResult(
            posteriors=posteriors,
            labels=self._posterior_to_labels(posteriors),
            confusions={
                int(j): ConfusionMatrix(confusions[j])
                for j in np.unique(index.annotators)
            },
            iterations=len(max_deltas),
            converged=converged,
            max_deltas=max_deltas,
        )
