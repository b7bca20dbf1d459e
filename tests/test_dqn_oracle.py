"""The array-backed DQN against the transition-by-transition oracle.

A seeded stream of replay traffic drives :class:`~repro.rl.dqn.DQNAgent`
and :class:`dqn_oracle.OracleDQN` side by side: pushes whose successor is
a shared read-only array (stored once, reused across pushes and across
ring evictions), a writable array (copied on every push) or nothing
(terminal), train steps, target syncs and weight loads.  After every
operation the online and target weights, the last TD targets and loss
and both work counters must be equal bit for bit.
"""

import numpy as np
import pytest

from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.qnetwork import QNetwork
from repro.utils.rng import spawn_rngs

from dqn_oracle import OracleDQN

CONFIGS = {
    # Small enough that the ring wraps, shared successors are evicted
    # and pushed again, and the target syncs every few steps.
    "tiny": DQNConfig(n_features=3, hidden=(4,), batch_size=4,
                      buffer_capacity=7, min_buffer_for_training=2,
                      target_sync_every=3),
    # The CrowdRL agent's network and minibatch, over a short ring.
    "paper-shapes": DQNConfig(n_features=13, buffer_capacity=60),
}


def _drive(config: DQNConfig, seed: int, n_ops: int) -> None:
    agent = DQNAgent(config, rng=seed)
    oracle = OracleDQN(config, agent.get_weights(), spawn_rngs(seed, 2)[1])
    seen = []
    train_on_targets = agent.qnet.train_on_targets

    def recording_train(features, targets):
        seen.append(np.array(targets))
        return train_on_targets(features, targets)

    agent.qnet.train_on_targets = recording_train
    rng = np.random.default_rng(seed)
    n = config.n_features
    # Shared read-only successors, one of them without rows.
    pool = [rng.normal(size=(rows, n)) for rows in (0, 1, 5, 9, 16)]
    for array in pool:
        array.setflags(write=False)
    kinds = ["shared", "writable", "terminal", "train", "sync", "weights"]
    for _ in range(n_ops):
        kind = rng.choice(kinds, p=[0.3, 0.15, 0.1, 0.35, 0.05, 0.05])
        if kind == "train":
            loss = agent.train_step()
            assert loss == oracle.train_step()
            if loss is not None:
                np.testing.assert_array_equal(seen.pop(), oracle.last_targets)
        elif kind == "sync":
            agent.qnet.sync_target()
            oracle.sync_target()
        elif kind == "weights":
            weights = QNetwork(n, hidden=config.hidden,
                               rng=int(rng.integers(100))).get_weights()
            agent.set_weights(weights)
            oracle.set_weights(weights)
        else:
            features = rng.normal(size=n)
            reward = float(rng.normal())
            if kind == "shared":
                nxt = pool[rng.integers(len(pool))]
            elif kind == "writable":
                nxt = rng.normal(size=(int(rng.integers(1, 8)), n))
            else:
                nxt = None
            agent.remember(features, reward, nxt, nxt is None)
            oracle.remember(features, reward, nxt, nxt is None)
        np.testing.assert_array_equal(agent.qnet.online.params,
                                      oracle.online.flat())
        np.testing.assert_array_equal(agent.qnet.target.params,
                                      oracle.target.flat())
        assert agent.target_forwards == oracle.target_forwards
        assert agent.bootstrap_lookups == oracle.bootstrap_lookups
        assert agent.train_steps == oracle.train_steps
    assert not seen
    assert oracle.train_steps > n_ops // 5
    assert 0 < oracle.target_forwards < oracle.bootstrap_lookups


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_agent_matches_the_oracle_bit_for_bit(name, seed):
    _drive(CONFIGS[name], seed, n_ops=400)
