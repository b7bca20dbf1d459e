"""Tests for repro.rl.qnetwork and repro.rl.dqn."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.qnetwork import QNetwork


class TestQNetwork:
    def test_predict_shape(self):
        qnet = QNetwork(4, rng=0)
        assert qnet.predict(np.ones((6, 4))).shape == (6,)

    def test_predict_single_row(self):
        qnet = QNetwork(4, rng=0)
        assert qnet.predict(np.ones(4)).shape == (1,)

    def test_target_starts_synced(self):
        qnet = QNetwork(4, rng=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_allclose(qnet.predict(x), qnet.predict_target(x))

    def test_target_lags_until_sync(self):
        qnet = QNetwork(3, rng=0)
        x = np.random.default_rng(0).normal(size=(8, 3))
        for _ in range(20):
            qnet.train_on_targets(x, np.ones(8))
        assert not np.allclose(qnet.predict(x), qnet.predict_target(x))
        qnet.sync_target()
        np.testing.assert_allclose(qnet.predict(x), qnet.predict_target(x))

    def test_train_regresses_toward_targets(self):
        qnet = QNetwork(2, learning_rate=0.01, rng=0)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        targets = np.array([2.0, -1.0])
        for _ in range(500):
            qnet.train_on_targets(x, targets)
        np.testing.assert_allclose(qnet.predict(x), targets, atol=0.2)

    def test_shape_mismatch_raises(self):
        qnet = QNetwork(2, rng=0)
        with pytest.raises(ConfigurationError):
            qnet.train_on_targets(np.ones((3, 2)), np.ones(2))

    def test_weight_roundtrip(self):
        a = QNetwork(3, rng=0)
        b = QNetwork(3, rng=1)
        x = np.random.default_rng(2).normal(size=(4, 3))
        b.set_weights(a.get_weights())
        np.testing.assert_allclose(a.predict(x), b.predict(x))


class TestDQNConfig:
    def test_defaults_valid(self):
        DQNConfig(n_features=5)

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(n_features=5, gamma=0.0)

    def test_invalid_features(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(n_features=0)

    def test_invalid_sync(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(n_features=3, target_sync_every=0)


class TestDQNAgent:
    def make_agent(self, **kwargs):
        defaults = dict(n_features=3, hidden=(8,), batch_size=8,
                        min_buffer_for_training=8)
        defaults.update(kwargs)
        return DQNAgent(DQNConfig(**defaults), rng=0)

    def test_no_training_below_min_buffer(self):
        agent = self.make_agent()
        agent.remember(np.ones(3), 1.0, None, True)
        assert agent.train_step() is None

    def test_trains_once_buffer_filled(self):
        agent = self.make_agent()
        for i in range(10):
            agent.remember(np.full(3, i / 10), 1.0, None, True)
        assert agent.train_step() is not None
        assert agent.train_steps == 1

    def test_learns_to_rank_rewarding_actions(self):
        """Terminal bandit: feature [1,...] pays 1, feature [0,...] pays 0."""
        agent = self.make_agent()
        rng = np.random.default_rng(0)
        for _ in range(200):
            good = rng.random() < 0.5
            feats = np.array([1.0, 0.0, 0.0]) if good else np.zeros(3)
            agent.remember(feats, 1.0 if good else 0.0, None, True)
        agent.train(300)
        q = agent.q_values(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert q[0] > q[1] + 0.3

    def test_bootstrap_uses_next_features(self):
        """Non-terminal transitions add the discounted next max to targets."""
        agent = self.make_agent(gamma=1.0, min_buffer_for_training=4,
                                batch_size=8, learning_rate=0.01,
                                target_sync_every=10)
        nxt = np.array([[0.0, 1.0, 0.0]])
        # Make the next-state action genuinely valuable first.
        for _ in range(50):
            agent.remember(nxt[0], 2.0, None, True)
        agent.train(400)
        next_value = float(agent.qnet.predict_target(nxt)[0])
        assert next_value > 1.0
        # A non-terminal transition into that state should now target
        # reward + next_value, i.e. noticeably above its raw reward.
        start = np.array([1.0, 1.0, 1.0])
        for _ in range(50):
            agent.remember(start, 0.0, nxt, False)
        agent.train(600)
        assert float(agent.q_values(start[None, :])[0]) > 0.5

    def test_feature_width_validated(self):
        agent = self.make_agent()
        with pytest.raises(ConfigurationError):
            agent.remember(np.ones(4), 1.0, None, True)
        with pytest.raises(ConfigurationError):
            agent.remember(np.ones(3), 1.0, np.ones((2, 4)), False)

    def test_weight_transfer_between_agents(self):
        a = self.make_agent()
        b = self.make_agent()
        x = np.random.default_rng(1).normal(size=(4, 3))
        b.set_weights(a.get_weights())
        np.testing.assert_allclose(a.q_values(x), b.q_values(x))
