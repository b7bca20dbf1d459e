"""The RL State and its featurization for the Q-network.

Section III-B defines the State as the ``|O| x |W|`` labelling-history
matrix plus per-annotator cost and estimated-quality columns.  The raw
state space has ``(|C|+1)^{|O||W|}`` configurations, so — as discussed in
DESIGN.md — the Q-network consumes a fixed-length featurization of each
candidate ``(object, annotator)`` action in the current state:

* object block (6): answer count, vote disagreement, majority share,
  classifier margin / max-probability / entropy at the object;
* annotator block (4): normalised cost, estimated quality, expert flag,
  normalised load;
* global block (3): remaining-budget fraction, human-labelled fraction,
  classifier-enriched fraction.

Everything in the vector is derived from information the paper's State
exposes (labelling history, costs, estimated qualities, classifier) —
never from latent ground truth.

The actual feature computation lives in
:class:`repro.core.featurizer.StateFeaturizer`, which computes every
block from the state on each call; :class:`LabellingState` exposes it as
``state.featurizer`` and keeps thin delegating wrappers
(:meth:`feature_tensor`, :meth:`pair_features`, the block accessors) for
compatibility.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Optional, Sequence

import numpy as np

from repro.core.featurizer import (
    N_ANNOTATOR_FEATURES,
    N_GLOBAL_FEATURES,
    N_OBJECT_FEATURES,
    N_PAIR_FEATURES,
    StateFeaturizer,
)
from repro.crowd.cost import BudgetManager
from repro.crowd.history import UNANSWERED, LabellingHistory
from repro.crowd.pool import AnnotatorPool
from repro.exceptions import ConfigurationError
from repro.obs import phase_timer

__all__ = [
    "LabellingState",
    "StateFeaturizer",
    "N_OBJECT_FEATURES",
    "N_ANNOTATOR_FEATURES",
    "N_GLOBAL_FEATURES",
    "N_PAIR_FEATURES",
]


class LabellingState:
    """A live view over the run's history / pool / budget, with featurizers."""

    def __init__(
        self,
        history: LabellingHistory,
        pool: AnnotatorPool,
        budget: BudgetManager,
        *,
        answer_norm: int = 5,
        mask_enriched: bool = True,
        unavailable: Optional[Callable[[], AbstractSet[int]]] = None,
    ) -> None:
        """``mask_enriched`` controls whether classifier-enriched objects are
        excluded from the action space.  The paper's worked example (Table
        III) leaves the classifier-labelled object selectable, and with
        non-sticky enrichment its provisional labels can still be improved
        by human answers, so CrowdRL runs with ``mask_enriched=False``
        unless enrichment is sticky.

        ``unavailable`` is an optional zero-argument callable returning the
        ids of annotators currently out of rotation (e.g. quarantined by a
        :class:`~repro.crowd.resilient.ResilientCollector`); their columns
        are masked out of the action space exactly like answered pairs."""
        if answer_norm <= 0:
            raise ConfigurationError(f"answer_norm must be > 0, got {answer_norm}")
        self.history = history
        self.pool = pool
        self.budget = budget
        self.answer_norm = answer_norm
        self.mask_enriched = mask_enriched
        self.unavailable = unavailable
        self._classifier_proba: Optional[np.ndarray] = None
        self._human_labelled: set[int] = set()
        self._enriched: set[int] = set()
        #: Computes the Q-network's features from this state.
        self.featurizer = StateFeaturizer(self)

    # ------------------------------------------------------------------
    # Updates from the environment
    # ------------------------------------------------------------------
    def set_classifier_proba(self, proba: Optional[np.ndarray]) -> None:
        """Install the classifier's current class probabilities for all objects."""
        if proba is not None:
            proba = np.asarray(proba, dtype=float)
            expected = (self.history.n_objects, self.history.n_classes)
            if proba.shape != expected:
                raise ConfigurationError(
                    f"classifier proba must have shape {expected}, got {proba.shape}"
                )
        self._classifier_proba = proba

    def set_labelled(self, human: Sequence[int], enriched: Sequence[int]) -> None:
        """Record which objects now carry labels (human-inferred / enriched)."""
        self._human_labelled = set(int(i) for i in human)
        self._enriched = set(int(i) for i in enriched)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def labelled_objects(self) -> set[int]:
        return self._human_labelled | self._enriched

    def unlabelled_objects(self) -> np.ndarray:
        """Ids of objects not yet labelled by humans or enrichment."""
        labelled = self.labelled_objects
        keep = np.ones(self.history.n_objects, dtype=bool)
        if labelled:
            keep[np.fromiter(sorted(labelled), dtype=int)] = False
        return np.flatnonzero(keep).astype(int)

    def all_labelled(self) -> bool:
        return len(self.labelled_objects) >= self.history.n_objects

    # ------------------------------------------------------------------
    # Featurization (delegates to the StateFeaturizer)
    # ------------------------------------------------------------------
    def object_features(self) -> np.ndarray:
        """Per-object feature block, shape ``(|O|, N_OBJECT_FEATURES)``."""
        return self.featurizer.object_features()

    def annotator_features(self) -> np.ndarray:
        """Per-annotator block (the State's cost/quality columns), ``(|W|, 4)``."""
        return self.featurizer.annotator_features()

    def global_features(self) -> np.ndarray:
        """Run-level block, shape ``(N_GLOBAL_FEATURES,)``."""
        return self.featurizer.global_features()

    def pair_features(self, object_id: int, annotator_id: int) -> np.ndarray:
        """Featurize one candidate action ``(object_id, annotator_id)``."""
        return self.featurizer.features()[object_id, annotator_id].copy()

    def feature_tensor(self) -> np.ndarray:
        """Featurize every pair: shape ``(|O|, |W|, N_PAIR_FEATURES)``."""
        with phase_timer("featurize"):
            return self.featurizer.features()

    def action_mask(self) -> np.ndarray:
        """Valid-action mask, shape ``(|O|, |W|)``.

        Invalid (to be scored ``-inf``, Section IV-B): pairs whose object is
        already labelled (by humans or enrichment), pairs already answered,
        annotators the remaining budget cannot afford, annotators that
        have exhausted their answer capacity, and annotators reported
        unavailable (quarantined) by the collection layer.
        """
        mask = np.ones((self.history.n_objects, len(self.pool)), dtype=bool)
        if self.mask_enriched:
            labelled = sorted(self.labelled_objects)
        else:
            labelled = sorted(self._human_labelled)
        if labelled:
            mask[labelled, :] = False
        mask &= self.history.matrix == UNANSWERED
        # Affordability and capacity, vectorized over annotators.
        costs = self.pool.costs
        affordable = costs <= self.budget.remaining + 1e-9
        capacities = np.array([
            np.inf if a.capacity is None else float(a.capacity)
            for a in self.pool
        ])
        loads = self.featurizer.annotator_loads()
        available = affordable & (loads < capacities)
        if self.unavailable is not None:
            out = [int(j) for j in self.unavailable()
                   if 0 <= int(j) < len(self.pool)]
            if out:
                available[out] = False
        mask &= available[None, :]
        return mask
