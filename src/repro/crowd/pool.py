"""Heterogeneous annotator pools and learning-side quality estimates.

The pool holds the simulated annotators (latent matrices) plus the
*estimated* confusion matrices Pi-hat that labelling frameworks are allowed
to see.  Estimates start uninformative and are refreshed from inferred
truths at the end of each labelling iteration, as the paper's State does.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.crowd.cost import CostModel
from repro.crowd.history import LabellingHistory
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_rng, spawn_rngs


class AnnotatorPool:
    """An ordered collection of annotators with estimated qualities."""

    def __init__(self, annotators: Sequence[Annotator], n_classes: int) -> None:
        if not annotators:
            raise ConfigurationError("pool needs at least one annotator")
        ids = [a.annotator_id for a in annotators]
        if ids != list(range(len(annotators))):
            raise ConfigurationError(
                f"annotator ids must be 0..{len(annotators) - 1} in order, got {ids}"
            )
        for a in annotators:
            if a.confusion.n_classes != n_classes:
                raise ConfigurationError(
                    f"annotator {a.annotator_id} has {a.confusion.n_classes} "
                    f"classes, pool expects {n_classes}"
                )
        self.annotators = list(annotators)
        self.n_classes = n_classes
        # Learning-side estimates: start uninformative except for a mild
        # optimistic prior (frameworks know experts are hired as experts).
        self.estimates: list[ConfusionMatrix] = [
            ConfusionMatrix.from_accuracy(n_classes, 0.9 if a.is_expert else 0.6)
            for a in annotators
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_classes: int,
        n_workers: int,
        n_experts: int,
        *,
        cost_model: Optional[CostModel] = None,
        worker_accuracy: tuple[float, float] = (0.55, 0.80),
        expert_accuracy: tuple[float, float] = (0.92, 0.995),
        rng: SeedLike = None,
    ) -> "AnnotatorPool":
        """Build a heterogeneous pool of workers then experts.

        Accuracy ranges default to plausible crowdsourcing values: noisy
        workers and near-perfect experts, matching the worked example in
        Tables II, IV and V of the paper (worker quality ~0.6-0.65, expert
        quality 0.985-1.0).
        """
        if n_workers < 0 or n_experts < 0 or n_workers + n_experts == 0:
            raise ConfigurationError(
                f"need a non-empty pool, got workers={n_workers}, experts={n_experts}"
            )
        cost_model = cost_model or CostModel()
        rng = as_rng(rng)
        streams = spawn_rngs(rng, n_workers + n_experts)
        annotators: list[Annotator] = []
        for i in range(n_workers + n_experts):
            is_expert = i >= n_workers
            low, high = expert_accuracy if is_expert else worker_accuracy
            confusion = ConfusionMatrix.random(
                n_classes, diagonal_low=low, diagonal_high=high, rng=streams[i]
            )
            annotators.append(
                Annotator(
                    annotator_id=i,
                    kind=AnnotatorKind.EXPERT if is_expert else AnnotatorKind.WORKER,
                    confusion=confusion,
                    cost=cost_model.expert_cost if is_expert else cost_model.worker_cost,
                    _rng=streams[i],
                )
            )
        return cls(annotators, n_classes)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.annotators)

    def __getitem__(self, annotator_id: int) -> Annotator:
        return self.annotators[annotator_id]

    def __iter__(self):
        return iter(self.annotators)

    @property
    def costs(self) -> np.ndarray:
        return np.array([a.cost for a in self.annotators])

    @property
    def expert_mask(self) -> np.ndarray:
        return np.array([a.is_expert for a in self.annotators])

    def estimated_qualities(self) -> np.ndarray:
        """Vector of scalar quality estimates ``tr(Pi-hat)/|C|`` (State column)."""
        return np.array([est.quality() for est in self.estimates])

    def true_qualities(self) -> np.ndarray:
        """Latent qualities, for evaluation/reporting only."""
        return np.array([a.true_quality for a in self.annotators])

    # ------------------------------------------------------------------
    # Estimate updates
    # ------------------------------------------------------------------
    def update_estimates(self, history: LabellingHistory,
                         truths: dict[int, int], *, smoothing: float = 1.0) -> None:
        """Refresh Pi-hat for every annotator from inferred truths."""
        for annotator in self.annotators:
            counts = history.confusion_counts(annotator.annotator_id, truths)
            if counts.sum() > 0:
                self.estimates[annotator.annotator_id] = (
                    ConfusionMatrix.estimate_from_counts(counts, smoothing)
                )

    def set_estimate(self, annotator_id: int, estimate: ConfusionMatrix) -> None:
        """Override one annotator's estimated confusion matrix."""
        if estimate.n_classes != self.n_classes:
            raise ConfigurationError(
                f"estimate has {estimate.n_classes} classes, pool expects "
                f"{self.n_classes}"
            )
        self.estimates[annotator_id] = estimate
