"""Shared fixtures: small datasets, pools and platforms for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BudgetManager, CostModel, make_platform
from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.crowd.pool import AnnotatorPool
from repro.datasets.synthetic import make_blobs


@pytest.fixture(autouse=True)
def _fresh_policy_cache():
    """Clear the offline-policy cache around every test.

    A warm cache skips pretraining (and its RNG draws), so leakage across
    tests would make RL-framework results depend on test execution order
    and could mask regressions.
    """
    from repro.harness.experiment import clear_pretrained_policies

    clear_pretrained_policies()
    yield
    clear_pretrained_policies()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_dataset():
    """60 objects, 8 features, binary, easily separable."""
    return make_blobs(60, 8, separation=3.0, name="tiny", rng=7)


@pytest.fixture
def hard_dataset():
    """80 objects, 10 features, hard task."""
    return make_blobs(80, 10, separation=1.5, name="hard", rng=11)


def build_pool(n_classes=2, worker_accs=(0.7, 0.65, 0.75), expert_accs=(0.95,),
               worker_cost=1.0, expert_cost=10.0, seed=5):
    """Deterministic pool with symmetric confusion matrices."""
    streams = np.random.default_rng(seed).spawn(len(worker_accs) + len(expert_accs))
    annotators = []
    for i, acc in enumerate(worker_accs):
        annotators.append(Annotator(
            annotator_id=i, kind=AnnotatorKind.WORKER,
            confusion=ConfusionMatrix.from_accuracy(n_classes, acc),
            cost=worker_cost, _rng=streams[i],
        ))
    for j, acc in enumerate(expert_accs):
        i = len(worker_accs) + j
        annotators.append(Annotator(
            annotator_id=i, kind=AnnotatorKind.EXPERT,
            confusion=ConfusionMatrix.from_accuracy(n_classes, acc),
            cost=expert_cost, _rng=streams[i],
        ))
    return AnnotatorPool(annotators, n_classes)


@pytest.fixture
def pool():
    return build_pool()


@pytest.fixture
def platform(tiny_dataset, pool):
    from repro.crowd.platform import CrowdPlatform

    return CrowdPlatform(tiny_dataset.labels, pool, BudgetManager(500.0))


@pytest.fixture
def small_platform(tiny_dataset):
    return make_platform(tiny_dataset, n_workers=3, n_experts=1,
                         budget=400.0, rng=3)
