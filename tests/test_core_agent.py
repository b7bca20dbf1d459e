"""Tests for repro.core.agent and repro.core.action."""

import numpy as np
import pytest

from repro.core.action import Assignment
from repro.core.agent import Agent
from repro.core.config import CrowdRLConfig
from repro.core.state import LabellingState
from repro.crowd.cost import BudgetManager
from repro.crowd.history import LabellingHistory
from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    ExperimentSetting,
    ExperimentSpec,
    run_experiment,
)
from repro.obs import read_events
from repro.rl.dqn import DQNAgent
from repro.rl.qnetwork import QNetwork

from conftest import build_pool


def make_agent_and_state(n_objects=8, batch_size=2, k=2, **config_kwargs):
    pool = build_pool()  # 4 annotators
    config = CrowdRLConfig(batch_size=batch_size, k_per_object=k,
                           **config_kwargs)
    agent = Agent(n_objects, len(pool), config, rng=np.random.default_rng(0))
    history = LabellingHistory(n_objects, len(pool), 2)
    state = LabellingState(history, pool, BudgetManager(200.0))
    return agent, state


class TestAssignment:
    def test_pairs(self):
        a = Assignment(3, (0, 2))
        assert a.pairs == [(3, 0), (3, 2)]

    def test_duplicate_annotators_raise(self):
        with pytest.raises(ConfigurationError):
            Assignment(0, (1, 1))

    def test_empty_annotators_raise(self):
        with pytest.raises(ConfigurationError):
            Assignment(0, ())

    def test_negative_object_raises(self):
        with pytest.raises(ConfigurationError):
            Assignment(-1, (0,))


class TestQMatrix:
    def test_shape_and_masking(self):
        agent, state = make_agent_and_state()
        state.set_labelled(human=[0], enriched=[])
        q = agent.q_matrix(state)
        assert q.shape == (8, 4)
        assert np.isneginf(q[0]).all()
        assert np.isfinite(q[1]).all()


class TestAct:
    def test_batch_size_respected(self):
        agent, state = make_agent_and_state(batch_size=3, k=2)
        assignments = agent.act(state)
        assert len(assignments) == 3
        for a in assignments:
            assert len(a.annotator_ids) == 2

    def test_no_duplicate_objects_in_batch(self):
        agent, state = make_agent_and_state(batch_size=4)
        objects = [a.object_id for a in agent.act(state)]
        assert len(objects) == len(set(objects))

    def test_all_masked_returns_empty(self):
        agent, state = make_agent_and_state()
        state.set_labelled(human=range(8), enriched=[])
        assert agent.act(state) == []

    def test_random_ts_mode(self):
        agent, state = make_agent_and_state(batch_size=3, ts_mode="random")
        assignments = agent.act(state)
        assert len(assignments) == 3

    def test_random_ta_mode(self):
        agent, state = make_agent_and_state(batch_size=2, ta_mode="random")
        assignments = agent.act(state)
        for a in assignments:
            assert len(set(a.annotator_ids)) == len(a.annotator_ids)

    def test_random_ts_excludes_masked_objects(self):
        agent, state = make_agent_and_state(batch_size=8, ts_mode="random")
        state.set_labelled(human=[0, 1, 2, 3], enriched=[])
        objects = {a.object_id for a in agent.act(state)}
        assert objects == {4, 5, 6, 7}


class TestLearning:
    def test_remember_and_train(self):
        agent, state = make_agent_and_state()
        feats = state.feature_tensor()[0, :2].reshape(2, -1)
        for _ in range(30):
            agent.remember_iteration(feats, np.array([1.0, 0.5]), state, False)
        losses = agent.dqn.train(5)
        assert losses  # buffer is big enough to train

    def test_scalar_reward_broadcasts(self):
        agent, state = make_agent_and_state()
        feats = state.feature_tensor()[0, :3].reshape(3, -1)
        agent.remember_iteration(feats, 0.7, state, True)
        assert len(agent.dqn.buffer) == 3

    def test_terminal_stores_no_next(self):
        agent, state = make_agent_and_state()
        feats = state.feature_tensor()[0, :1].reshape(1, -1)
        agent.remember_iteration(feats, 1.0, state, True)
        transition = agent.dqn.buffer._storage[-1]
        assert transition.terminal
        assert transition.next_features is None

    def test_fully_masked_next_state_becomes_terminal(self):
        agent, state = make_agent_and_state()
        feats = state.feature_tensor()[0, :1].reshape(1, -1)
        state.set_labelled(human=range(8), enriched=[])
        agent.remember_iteration(feats, 1.0, state, False)
        assert agent.dqn.buffer._storage[-1].terminal

    def test_iteration_shares_one_read_only_successor(self):
        agent, state = make_agent_and_state()
        feats = state.feature_tensor()[0, :3].reshape(3, -1)
        agent.remember_iteration(feats, 1.0, state, False)
        successors = [t.next_features for t in agent.dqn.buffer._storage]
        assert len(successors) == 3
        assert all(s is successors[0] for s in successors)
        assert not successors[0].flags.writeable

    def test_writable_successor_is_copied(self):
        agent, state = make_agent_and_state()
        feats = state.feature_tensor()[0, 0]
        nxt = state.feature_tensor()[1, :2].copy()
        agent.dqn.remember(feats, 1.0, nxt, False)
        stored = agent.dqn.buffer._storage[-1].next_features
        assert stored is not nxt
        nxt[:] = 0.0
        assert stored.any()

    def test_policy_weight_roundtrip(self):
        agent_a, state = make_agent_and_state()
        agent_b, _ = make_agent_and_state()
        x = state.feature_tensor().reshape(-1, state.feature_tensor().shape[-1])
        agent_b.set_policy_weights(agent_a.get_policy_weights())
        np.testing.assert_allclose(
            agent_a.dqn.q_values(x), agent_b.dqn.q_values(x)
        )

    def test_invalid_sizes_raise(self):
        with pytest.raises(ConfigurationError):
            Agent(0, 4, CrowdRLConfig())


class TestBootstrapMemoInEpisode:
    """A seeded episode computes each (version, successor set) target once."""

    def test_target_forwards_match_distinct_pairs(self, monkeypatch, tmp_path):
        forwards = []
        lookups = []
        predict_target = QNetwork.predict_target
        bootstrap_max = DQNAgent._bootstrap_max

        def counting_predict_target(qnet, features):
            forwards.append(features)
            return predict_target(qnet, features)

        def recording_bootstrap_max(dqn, nxt):
            # Keep each array alive so no id is reused within the run.
            lookups.append((dqn.qnet.target_version, id(nxt), nxt))
            return bootstrap_max(dqn, nxt)

        monkeypatch.setattr(QNetwork, "predict_target", counting_predict_target)
        monkeypatch.setattr(DQNAgent, "_bootstrap_max", recording_bootstrap_max)
        path = tmp_path / "events.jsonl"
        run_experiment("CrowdRL", ExperimentSetting("S12CP", scale=0.02, seed=0),
                       ExperimentSpec(metrics_out=path), pretrain=False)

        distinct = {(version, key) for version, key, _ in lookups}
        assert len(forwards) == len(distinct)
        assert 10 * len(forwards) <= len(lookups)
        events = read_events(path, kind="iteration")
        # Iterations that train nothing (replay buffer still filling)
        # report no loss and no lookups.
        idle = [e for e in events if e["td_loss"] is None]
        assert idle and len(idle) < len(events)
        assert all(e["bootstrap_lookups"] == 0 for e in idle)
        assert sum(e["target_forwards"] for e in events) == len(forwards)
        assert sum(e["bootstrap_lookups"] for e in events) == len(lookups)
