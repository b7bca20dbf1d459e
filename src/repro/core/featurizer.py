"""State featurization: the Q-network's per-pair input tensor.

The Q-network consumes a ``(|O|, |W|, N_PAIR_FEATURES)`` tensor built from
three blocks (see :mod:`repro.core.state` for the feature definitions):
per-object, per-annotator and run-level features.  Every call computes
them from the :class:`~repro.core.state.LabellingState` it wraps.  The
paper's State (Section III-B) is the history matrix plus the cost and
quality columns, so the features are a pure function of it, and the
Agent's Q-pass over all ``|O| |W|`` pairs already costs more than this
``O(|O| |W|)`` numpy pass — there is nothing worth caching
(DESIGN.md §8).

The feature-width constants are defined here and re-exported by
:mod:`repro.core.state` for compatibility.

``tests/test_core_featurizer.py`` pins every block against a per-object
Python-loop oracle under random mutation interleavings, and
``tests/test_vectorized_identity.py`` pins whole runs bit-identical to the
original implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.crowd.history import UNANSWERED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.state import LabellingState

#: Featurization width; the Q-network's input size.
N_OBJECT_FEATURES = 6
N_ANNOTATOR_FEATURES = 4
N_GLOBAL_FEATURES = 3
N_PAIR_FEATURES = N_OBJECT_FEATURES + N_ANNOTATOR_FEATURES + N_GLOBAL_FEATURES


class StateFeaturizer:
    """Computes the pair-feature tensor and its blocks from a state.

    Parameters
    ----------
    state:
        The :class:`~repro.core.state.LabellingState` to featurize.  Every
        method reads it afresh and returns a new array.
    """

    def __init__(self, state: "LabellingState") -> None:
        self._state = state

    def features(self) -> np.ndarray:
        """The ``(|O|, |W|, N_PAIR_FEATURES)`` tensor of every pair."""
        obj = self.object_features()
        ann = self.annotator_features()
        tensor = np.empty((obj.shape[0], ann.shape[0], N_PAIR_FEATURES))
        tensor[:, :, :N_OBJECT_FEATURES] = obj[:, None, :]
        tensor[:, :, N_OBJECT_FEATURES:-N_GLOBAL_FEATURES] = ann[None, :, :]
        tensor[:, :, -N_GLOBAL_FEATURES:] = self.global_features()
        return tensor

    def annotator_loads(self) -> np.ndarray:
        """Per-annotator answer counts, shape ``(|W|,)``."""
        return (self._state.history.matrix != UNANSWERED).sum(axis=0)

    def object_features(self) -> np.ndarray:
        """Per-object block, shape ``(|O|, N_OBJECT_FEATURES)``."""
        state = self._state
        matrix = state.history.matrix
        n = state.history.n_objects
        n_classes = state.history.n_classes
        answered = matrix != UNANSWERED
        n_answers = answered.sum(axis=1).astype(float)
        # Majority-vote share: bincount over flattened (row, class) indices.
        row_idx, _ = np.nonzero(answered)
        flat = row_idx * n_classes + matrix[answered]
        counts = np.bincount(flat, minlength=n * n_classes).reshape(n, n_classes)
        with np.errstate(invalid="ignore"):
            share = counts.max(axis=1) / counts.sum(axis=1)
        vote_share = np.where(n_answers > 0, share, 0.0)
        disagreement = np.where(n_answers > 0, 1.0 - vote_share, 0.0)

        proba = state._classifier_proba
        if proba is not None:
            part = np.partition(proba, -2, axis=1)
            clf_margin = part[:, -1] - part[:, -2]
            clf_maxp = proba.max(axis=1)
            clf_entropy = (
                -(proba * np.log(proba + 1e-12)).sum(axis=1) / np.log(n_classes)
            )
        else:
            clf_margin = np.zeros(n)
            clf_maxp = np.full(n, 1.0 / n_classes)
            clf_entropy = np.ones(n)
        return np.column_stack([
            np.minimum(n_answers / state.answer_norm, 1.0),
            disagreement,
            vote_share,
            clf_margin,
            clf_maxp,
            clf_entropy,
        ])

    def annotator_features(self) -> np.ndarray:
        """Per-annotator block, shape ``(|W|, N_ANNOTATOR_FEATURES)``."""
        state = self._state
        costs = state.pool.costs
        load_norm = (
            self.annotator_loads().astype(float)
            / max(state.history.n_objects, 1)
        )
        return np.column_stack([
            costs / costs.max(),
            state.pool.estimated_qualities(),
            state.pool.expert_mask.astype(float),
            load_norm,
        ])

    def global_features(self) -> np.ndarray:
        """Run-level block, shape ``(N_GLOBAL_FEATURES,)``."""
        state = self._state
        n = state.history.n_objects
        return np.array([
            state.budget.remaining / state.budget.total,
            len(state._human_labelled) / n,
            len(state._enriched) / n,
        ])


__all__ = [
    "StateFeaturizer",
    "N_OBJECT_FEATURES",
    "N_ANNOTATOR_FEATURES",
    "N_GLOBAL_FEATURES",
    "N_PAIR_FEATURES",
]
