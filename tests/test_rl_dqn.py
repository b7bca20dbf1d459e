"""Tests for repro.rl.qnetwork and repro.rl.dqn."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# One replay-traffic operation: push a transition (successor index into a
# small pool, -1 for terminal; reward), train one step, sync the target
# net, or load fresh weights (set_weights also resyncs the target).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(-1, 5),
                  st.floats(-1.0, 1.0, allow_nan=False)),
        st.tuples(st.just("train")),
        st.tuples(st.just("sync")),
        st.tuples(st.just("set_weights"), st.integers(0, 3)),
    ),
    min_size=1, max_size=60,
)


class TestBootstrapMemo:
    """The per-target-version bootstrap memo never changes a target."""

    N = 3

    @given(ops=_ops, capacity=st.integers(2, 9),
           sync_every=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_targets_bit_identical_to_uncached(self, ops, capacity,
                                                sync_every, seed):
        agent = DQNAgent(DQNConfig(
            n_features=self.N, hidden=(4,), batch_size=4,
            buffer_capacity=capacity, min_buffer_for_training=2,
            target_sync_every=sync_every,
        ), rng=seed)
        rng = np.random.default_rng(seed)
        # Even-indexed successors are shared read-only arrays (stored as-is
        # by every push); odd ones are writable, so each push copies them.
        pool = [rng.normal(size=(1 + i, self.N)) for i in range(6)]
        for array in pool[::2]:
            array.setflags(write=False)

        # Spy on each step's batch and check its targets against fresh,
        # uncached forwards just before the online net is updated.  The
        # batch is dropped once checked: holding it would keep evicted
        # successor copies alive and hide a memo that reuses their ids.
        sampled = []
        sample = agent.buffer.sample

        def recording_sample(batch_size):
            sampled.append(sample(batch_size))
            return sampled[-1]

        agent.buffer.sample = recording_sample
        checked = []
        train_on_targets = agent.qnet.train_on_targets

        def checking_train(features, targets):
            expected = []
            for t in sampled.pop():
                value = t.reward
                if not t.terminal and t.next_features is not None:
                    target_q = agent.qnet.predict_target(t.next_features)
                    value += agent.config.gamma * float(target_q.max())
                expected.append(value)
            np.testing.assert_array_equal(targets, np.array(expected))
            checked.append(len(expected))
            return train_on_targets(features, targets)

        agent.qnet.train_on_targets = checking_train
        for op in ops:
            if op[0] == "push":
                _, succ, reward = op
                terminal = succ < 0
                agent.remember(rng.normal(size=self.N), reward,
                               None if terminal else pool[succ], terminal)
            elif op[0] == "train":
                agent.train_step()
            elif op[0] == "sync":
                agent.qnet.sync_target()
            else:
                agent.set_weights(
                    QNetwork(self.N, hidden=(4,), rng=op[1]).get_weights())
        assert len(checked) == agent.train_steps
        assert agent.target_forwards <= agent.bootstrap_lookups

    def test_shared_successor_costs_one_forward_per_version(self):
        agent = DQNAgent(DQNConfig(n_features=self.N, hidden=(4,),
                                   batch_size=8, min_buffer_for_training=4,
                                   target_sync_every=100), rng=0)
        nxt = np.ones((5, self.N))
        nxt.setflags(write=False)
        for i in range(6):
            agent.remember(np.full(self.N, i / 6), 1.0, nxt, False)
        agent.train(3)
        assert agent.bootstrap_lookups == 24
        assert agent.target_forwards == 1
        agent.qnet.sync_target()
        agent.train(1)
        assert agent.target_forwards == 2

    def test_memo_holds_keyed_arrays_until_sync(self):
        """A keyed array stays alive while memoised, so its id is never
        reused for another successor; a sync releases it."""
        agent = DQNAgent(DQNConfig(n_features=self.N, hidden=(4,),
                                   batch_size=4, min_buffer_for_training=2,
                                   target_sync_every=100), rng=0)
        nxt = np.ones((2, self.N))
        nxt.setflags(write=False)
        for _ in range(3):
            agent.remember(np.ones(self.N), 1.0, nxt, False)
        agent.train_step()
        ref = weakref.ref(nxt)
        agent.buffer.clear()
        del nxt
        assert ref() is not None
        agent.qnet.sync_target()
        for _ in range(3):
            agent.remember(np.ones(self.N), 1.0, None, True)
        agent.train_step()
        assert ref() is None
