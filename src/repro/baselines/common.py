"""Shared plumbing for baseline frameworks."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.core.config import (
    MIN_LABELS_FOR_CLASSIFIER,
    default_classifier_factory,
)
from repro.crowd.platform import CrowdPlatform
from repro.utils.rng import SeedLike, as_rng


def rank_annotators_by_value(platform: CrowdPlatform) -> list[int]:
    """Annotator ids sorted by estimated quality per unit cost, best first."""
    qualities = platform.pool.estimated_qualities()
    costs = platform.pool.costs
    return [int(j) for j in np.argsort(-(qualities / costs), kind="stable")]


def rank_annotators_by_quality(platform: CrowdPlatform) -> list[int]:
    """Annotator ids sorted by estimated quality alone, best first."""
    qualities = platform.pool.estimated_qualities()
    return [int(j) for j in np.argsort(-qualities, kind="stable")]


def train_final_classifier(
    features: np.ndarray,
    labels: dict[int, int],
    n_classes: int,
    *,
    rng: SeedLike = None,
) -> Optional[Classifier]:
    """Fit the end-of-run classifier used to label leftover objects.

    Returns ``None`` when the labelled set is too small or single-class —
    callers then fall back to the majority label.
    """
    if len(labels) < MIN_LABELS_FOR_CLASSIFIER:
        return None
    ids = np.fromiter(labels.keys(), dtype=int)
    y = np.fromiter(labels.values(), dtype=int)
    if np.unique(y).size < 2:
        return None
    classifier = default_classifier_factory(
        features.shape[1], n_classes, as_rng(rng)
    )
    classifier.fit(features[ids], y)
    return classifier


def initial_random_sample(
    platform: CrowdPlatform,
    alpha: float,
    k_per_object: int,
    rng: SeedLike = None,
    *,
    annotator_order: Optional[list[int]] = None,
) -> None:
    """Label an alpha fraction of objects with k annotators each.

    ``annotator_order`` fixes which annotators answer (best-value first by
    default), mirroring the cold-start of Algorithm 1 line 2 for baselines.
    """
    rng = as_rng(rng)
    n = platform.n_objects
    n_initial = max(1, int(round(alpha * n)))
    chosen = rng.choice(n, size=min(n_initial, n), replace=False)
    order = annotator_order or rank_annotators_by_value(platform)
    k = min(k_per_object, len(platform.pool))
    preferred = order[:k]
    platform.ask_batch((int(i), preferred) for i in chosen)
