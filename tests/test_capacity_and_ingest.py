"""Tests for annotator capacity limits."""

import numpy as np
import pytest

from repro import BudgetManager, CrowdRL, CrowdRLConfig
from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError


def capped_pool(capacities=(2, None, None), n_classes=2):
    annotators = []
    streams = np.random.default_rng(0).spawn(len(capacities))
    for i, capacity in enumerate(capacities):
        annotators.append(Annotator(
            annotator_id=i, kind=AnnotatorKind.WORKER,
            confusion=ConfusionMatrix.from_accuracy(n_classes, 0.8),
            cost=1.0, capacity=capacity, _rng=streams[i],
        ))
    return AnnotatorPool(annotators, n_classes)


class TestCapacity:
    def test_ask_rejects_beyond_capacity(self):
        pool = capped_pool()
        platform = CrowdPlatform(np.array([0, 1, 0]), pool,
                                 BudgetManager(100.0))
        platform.ask(0, 0)
        platform.ask(1, 0)
        assert platform.at_capacity(0)
        with pytest.raises(ConfigurationError):
            platform.ask(2, 0)

    def test_ask_batch_skips_full_annotators(self):
        pool = capped_pool()
        platform = CrowdPlatform(np.array([0, 1, 0]), pool,
                                 BudgetManager(100.0))
        records = platform.ask_batch((i, [0]) for i in range(3))
        assert len(records) == 2  # third request silently skipped

    def test_state_masks_full_annotators(self):
        from repro.core.state import LabellingState

        pool = capped_pool(capacities=(1, None, None))
        platform = CrowdPlatform(np.array([0, 1, 0]), pool,
                                 BudgetManager(100.0))
        platform.ask(0, 0)
        state = LabellingState(platform.history, pool, platform.budget)
        mask = state.action_mask()
        assert not mask[:, 0].any()
        assert mask[1:, 1].all()

    def test_uncapped_annotator_never_at_capacity(self):
        pool = capped_pool(capacities=(None,))
        platform = CrowdPlatform(np.array([0, 1]), pool, BudgetManager(100.0))
        platform.ask(0, 0)
        assert not platform.at_capacity(0)

    def test_invalid_capacity_raises(self):
        with pytest.raises(ConfigurationError):
            Annotator(0, AnnotatorKind.WORKER, ConfusionMatrix.uniform(2),
                      1.0, capacity=0)

    def test_crowdrl_runs_with_capped_pool(self):
        dataset = make_blobs(30, 5, separation=3.0, rng=0)
        pool = capped_pool(capacities=(10, 10, 10))
        platform = CrowdPlatform(dataset.labels, pool, BudgetManager(200.0))
        config = CrowdRLConfig(alpha=0.1, batch_size=3,
                               min_truths_for_enrichment=8,
                               train_steps_per_iteration=1)
        outcome = CrowdRL(config, rng=1).run(dataset, platform)
        assert outcome.final_labels.shape == (30,)
        for j in range(3):
            assert platform.history.annotator_load(j) <= 10
