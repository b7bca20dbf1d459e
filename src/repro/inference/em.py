"""Flat-index kernels shared by the EM-style truth inferences.

:class:`~repro.inference.dawid_skene.DawidSkene` and
:class:`~repro.inference.joint.JointInference` run the same two inner
steps over an :data:`AnswerMap`: the E-step adds each answering
annotator's log confusion column to its object's log posterior, and the
M-step adds each object's posterior to the soft confusion counts of the
annotators who answered it.  :class:`_AnswerIndex` flattens the answer map
once per ``infer`` into ``(row, annotator, answer)`` arrays, so both steps
are one gather plus one ``np.add.at`` instead of a Python loop per answer.

``np.add.at`` is unbuffered and applies its updates in index order, and
the flat arrays list answers row by row in each object's dict order, so
every sum is accumulated in exactly the order the per-answer loops used:
the kernels are bit-identical to them.

:class:`~repro.inference.pm.PMInference` runs on the same index: its
weighted votes are one ``np.add.at`` over ``(row, answer)``, and its
per-annotator seen and wrong counts are ``np.bincount`` over the flat
annotator array.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import prob_simplex, row_stochastic, shaped
from repro.inference.base import AnswerMap


class _AnswerIndex:
    """A validated :data:`AnswerMap` as flat ``(row, annotator, answer)``.

    ``object_ids`` are the answered objects in ascending order; ``rows``
    indexes into them.  Answers appear row by row, each object's in the
    order its answer dict yields them.
    """

    __slots__ = ("n_classes", "n_annotators", "object_ids", "rows",
                 "annotators", "answers")

    def __init__(self, answers: AnswerMap, n_classes: int,
                 n_annotators: int) -> None:
        self.n_classes = n_classes
        self.n_annotators = n_annotators
        self.object_ids = sorted(answers)
        rows, annotators, labels = [], [], []
        for row, oid in enumerate(self.object_ids):
            for annotator_id, answer in answers[oid].items():
                rows.append(row)
                annotators.append(annotator_id)
                labels.append(answer)
        self.rows = np.asarray(rows, dtype=np.intp)
        self.annotators = np.asarray(annotators, dtype=np.intp)
        self.answers = np.asarray(labels, dtype=np.intp)

    def vote_shares(self) -> np.ndarray:
        """Majority-vote posteriors: each object's answer counts, normalised."""
        votes = np.zeros((len(self.object_ids), self.n_classes))
        np.add.at(votes, (self.rows, self.answers), 1.0)
        return votes / votes.sum(axis=1, keepdims=True)

    def soft_counts(self, post: np.ndarray, smoothing: float) -> np.ndarray:
        """Smoothed soft counts ``counts[j, c, l]`` of annotator ``j``
        answering ``l`` on objects of posterior class ``c``."""
        counts = np.full(
            (self.n_annotators, self.n_classes, self.n_classes), smoothing
        )
        np.add.at(counts, (self.annotators, slice(None), self.answers),
                  post[self.rows])
        return counts

    def class_mass(self, post: np.ndarray, smoothing: float) -> np.ndarray:
        """Smoothed posterior mass per class, summed object by object."""
        mass = np.full((1, self.n_classes), smoothing)
        np.add.at(mass, np.zeros(len(self.object_ids), dtype=np.intp), post)
        return mass[0]


@shaped(counts="(n_annotators, n_classes, n_classes)")
@row_stochastic(result=True)
def _m_step_confusions(counts: np.ndarray) -> np.ndarray:
    """M-step confusion update: normalise soft counts row-wise (Eq. 7).

    ``counts[j, c, l]`` is the smoothed soft count of annotator ``j``
    answering ``l`` on objects of (posterior) class ``c``; the result is
    the stack of row-stochastic confusion matrices ``Pi^j``.  A row with
    no mass — possible only with ``smoothing=0``, e.g. an annotator who
    answered nothing — stays uniform.
    """
    totals = counts.sum(axis=-1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / counts.shape[-1])
    return np.divide(counts, totals, out=uniform, where=totals > 0)


@shaped(clf_log="(n_objects, n_classes)", result="(n_objects, n_classes)")
@prob_simplex(result=True)
def _e_step_posteriors(
    index: _AnswerIndex,
    prior: np.ndarray,
    clf_log: np.ndarray,
    confusions: np.ndarray,
) -> np.ndarray:
    """E-step posterior ``q(y_i = c)`` for every object (Eq. 8).

    Combines the class prior, a per-object log-likelihood term (the
    classifier's, or zeros) and each answering annotator's confusion
    column in log space, then normalises per object onto the simplex.
    """
    log_post = np.log(prior + 1e-12)[None, :] + clf_log
    columns = np.log(confusions[index.annotators, :, index.answers] + 1e-12)
    np.add.at(log_post, index.rows, columns)
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    return post / post.sum(axis=1, keepdims=True)
