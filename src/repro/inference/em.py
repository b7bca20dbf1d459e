"""Flat-index kernels shared by the EM-style truth inferences.

:class:`~repro.inference.dawid_skene.DawidSkene` and
:class:`~repro.inference.joint.JointInference` run the same two inner
steps over an :data:`AnswerMap`: the E-step adds each answering
annotator's log confusion column to its object's log posterior, and the
M-step adds each object's posterior to the soft confusion counts of the
annotators who answered it.  :class:`_AnswerIndex` flattens the answer map
once per ``infer`` into ``(row, annotator, answer)`` arrays and the bin
indices the steps scatter into, so each step is one gather plus one
``np.bincount`` instead of a Python loop per answer.

``np.bincount`` with weights adds ``weights[i]`` into its bin in input
order, each bin starting from ``0.0``.  Every kernel puts each bin's
start value (the smoothing constant, or the log prior plus the
classifier term) first in the weights, ahead of the per-answer terms, so
every bin is that start value followed by its terms in answer order.
The flat arrays list answers row by row in each object's dict order,
which is the order the per-answer loops (and the ``np.add.at`` scatters
they became) added them in: the sums are bit-identical to both.
``0.0 + s == s`` for every start value ``s`` short of ``-0.0``, whose
sign nothing downstream reads.

:class:`~repro.inference.pm.PMInference` runs on the same index: its
weighted votes are one ``np.bincount`` over the ``(row, answer)`` cells,
and its per-annotator seen and wrong counts are ``np.bincount`` over the
flat annotator array.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import prob_simplex, row_stochastic, shaped
from repro.inference.base import AnswerMap


class _AnswerIndex:
    """A validated :data:`AnswerMap` as flat ``(row, annotator, answer)``.

    ``object_ids`` are the answered objects in ascending order; ``rows``
    indexes into them.  Answers appear row by row, each object's in the
    order its answer dict yields them.  ``votes`` is each answer's flat
    ``(row, answer)`` cell; ``cells`` is, per answer and class ``c``, the
    flat index of ``(annotator, c, answer)`` in an ``(n_annotators,
    n_classes, n_classes)`` array.
    """

    __slots__ = ("n_classes", "n_annotators", "object_ids", "rows",
                 "annotators", "answers", "votes", "cells", "_count_bins",
                 "_mass_bins", "_post_bins")

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
        self.votes = self.rows * n_classes + self.answers
        # Bin layouts for the bincount kernels: one start bin per output
        # entry, in output order, then the per-answer bins.
        classes = np.arange(n_classes)
        self.cells = ((self.annotators[:, None] * n_classes + classes)
                      * n_classes + self.answers[:, None]).ravel()
        n_cells = n_annotators * n_classes * n_classes
        n_entries = len(self.object_ids) * n_classes
        self._count_bins = np.concatenate([np.arange(n_cells), self.cells])
        self._mass_bins = np.tile(classes, len(self.object_ids) + 1)
        self._post_bins = np.concatenate([
            np.arange(n_entries),
            (self.rows[:, None] * n_classes + classes).ravel(),
        ])

    def vote_shares(self) -> np.ndarray:
        """Majority-vote posteriors: each object's answer counts, normalised."""
        votes = np.bincount(self.votes, minlength=len(self.object_ids)
                            * self.n_classes).reshape(-1, self.n_classes)
        return votes / votes.sum(axis=1, keepdims=True)

    def soft_counts(self, post: np.ndarray, smoothing: float) -> np.ndarray:
        """Smoothed soft counts ``counts[j, c, l]`` of annotator ``j``
        answering ``l`` on objects of posterior class ``c``."""
        shape = (self.n_annotators, self.n_classes, self.n_classes)
        n_cells = shape[0] * shape[1] * shape[2]
        weights = np.concatenate([np.full(n_cells, smoothing),
                                  post[self.rows].ravel()])
        return np.bincount(self._count_bins, weights,
                           minlength=n_cells).reshape(shape)

    def class_mass(self, post: np.ndarray, smoothing: float) -> np.ndarray:
        """Smoothed posterior mass per class, summed object by object."""
        weights = np.concatenate([np.full(self.n_classes, smoothing),
                                  post.ravel()])
        return np.bincount(self._mass_bins, weights,
                           minlength=self.n_classes)


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
    start = np.log(prior + 1e-12)[None, :] + clf_log
    columns = np.log(np.take(confusions, index.cells) + 1e-12)
    log_post = np.bincount(
        index._post_bins, np.concatenate([start.ravel(), columns]),
        minlength=start.size,
    ).reshape(start.shape)
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    return post / post.sum(axis=1, keepdims=True)
