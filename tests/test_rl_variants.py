"""Tests for demonstration acting and offline pretraining."""

import numpy as np
import pytest

from repro.core.agent import Agent
from repro.core.config import CrowdRLConfig
from repro.core.framework import CrowdRL
from repro.core.state import LabellingState
from repro.crowd.cost import BudgetManager
from repro.crowd.history import LabellingHistory
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError

from conftest import build_pool


class TestDemonstrationActing:
    def make_state(self, n_objects=8):
        history = LabellingHistory(n_objects, 4, 2)
        return LabellingState(history, build_pool(), BudgetManager(200.0))

    def test_demo_scores_prefer_uncertain_objects(self):
        config = CrowdRLConfig(demo_probability=1.0, batch_size=1,
                               k_per_object=2)
        agent = Agent(8, 4, config, rng=0)
        state = self.make_state()
        proba = np.full((8, 2), 0.5)
        proba[0] = [0.99, 0.01]   # object 0 is already obvious
        state.set_classifier_proba(proba)
        chosen = {agent.act(state)[0].object_id for _ in range(10)}
        assert 0 not in chosen

    def test_demo_scores_mask_respected(self):
        config = CrowdRLConfig(demo_probability=1.0, batch_size=8)
        agent = Agent(8, 4, config, rng=0)
        state = self.make_state()
        state.set_labelled(human=[1, 2], enriched=[])
        objects = {a.object_id for a in agent.act(state)}
        assert objects.isdisjoint({1, 2})

    def test_pretrain_restores_config(self):
        dataset = make_blobs(30, 5, separation=3.0, rng=0)
        from repro import make_platform

        config = CrowdRLConfig(alpha=0.1, batch_size=4,
                               min_truths_for_enrichment=10,
                               train_steps_per_iteration=1)
        framework = CrowdRL(config, rng=1)
        platform = make_platform(dataset, n_workers=2, n_experts=1,
                                 budget=90.0, rng=2)
        framework.pretrain(dataset, platform, demo_probability=0.7)
        assert framework.config.demo_probability == 0.0
        assert framework.config is config

    def test_invalid_demo_probability_raises(self):
        with pytest.raises(ConfigurationError):
            CrowdRLConfig(demo_probability=1.5)
