"""Tests for the Double-DQN variant and demonstration pretraining."""

import dataclasses

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
from repro.rl.dqn import DQNAgent, DQNConfig

from conftest import build_pool


class TestDoubleDQN:
    def make_agent(self, double):
        return DQNAgent(
            DQNConfig(n_features=3, hidden=(8,), batch_size=8,
                      min_buffer_for_training=8, double_dqn=double,
                      gamma=1.0),
            rng=0,
        )

    def test_double_dqn_trains(self):
        agent = self.make_agent(double=True)
        rng = np.random.default_rng(0)
        for _ in range(50):
            agent.remember(rng.normal(size=3), 1.0,
                           rng.normal(size=(4, 3)), False)
        assert agent.train_step() is not None

    def test_double_dqn_targets_bounded_by_vanilla(self):
        """Double DQN's bootstrap is target-net value at the online argmax,
        which can never exceed the target-net max used by vanilla DQN —
        the overestimation-control property."""
        agent = self.make_agent(double=True)
        # Desynchronise online and target networks.
        x = np.random.default_rng(1).normal(size=(8, 3))
        for _ in range(30):
            agent.qnet.train_on_targets(x, np.linspace(-1, 1, 8))
        nxt = np.random.default_rng(2).normal(size=(5, 3))
        target_q = agent.qnet.predict_target(nxt)
        online_q = agent.qnet.predict(nxt)
        double_bootstrap = target_q[int(np.argmax(online_q))]
        assert double_bootstrap <= target_q.max() + 1e-12

    def test_learns_bandit_like_vanilla(self):
        agent = self.make_agent(double=True)
        rng = np.random.default_rng(0)
        for _ in range(200):
            good = rng.random() < 0.5
            feats = np.array([1.0, 0.0, 0.0]) if good else np.zeros(3)
            agent.remember(feats, 1.0 if good else 0.0, None, True)
        agent.train(300)
        q = agent.q_values(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert q[0] > q[1] + 0.3


class TestCrowdRLVariantPlumbing:
    def test_config_flags_reach_dqn(self):
        config = CrowdRLConfig(double_dqn=True)
        agent = Agent(5, 3, config, rng=0)
        assert agent.dqn.config.double_dqn

    def test_variant_run_end_to_end(self):
        dataset = make_blobs(40, 6, separation=3.0, rng=0)
        from repro import make_platform

        platform = make_platform(dataset, n_workers=3, n_experts=1,
                                 budget=120.0, rng=1)
        config = CrowdRLConfig(
            alpha=0.1, batch_size=4, min_truths_for_enrichment=10,
            train_steps_per_iteration=2, double_dqn=True,
        )
        outcome = CrowdRL(config, rng=2).run(dataset, platform)
        assert outcome.final_labels.shape == (40,)


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
