"""Tests for repro.rl.replay."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rl.replay import ReplayBuffer, Transition


def make_transition(value=0.0, reward=1.0, terminal=False):
    return Transition(np.array([value]), reward,
                      None if terminal else np.array([[value + 1]]), terminal)


class TestReplayBuffer:
    def test_push_and_len(self):
        buf = ReplayBuffer(10, rng=0)
        buf.push(make_transition())
        assert len(buf) == 1

    def test_capacity_ring(self):
        buf = ReplayBuffer(3, rng=0)
        for i in range(5):
            buf.push(make_transition(float(i)))
        assert len(buf) == 3
        values = sorted(t.features[0] for t in buf._storage)
        assert values == [2.0, 3.0, 4.0]

    def test_sample_size(self):
        buf = ReplayBuffer(10, rng=0)
        for i in range(4):
            buf.push(make_transition(float(i)))
        assert len(buf.sample(8)) == 8  # sampling with replacement

    def test_sample_empty_raises(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(5, rng=0).sample(1)

    def test_sample_nonpositive_raises(self):
        buf = ReplayBuffer(5, rng=0)
        buf.push(make_transition())
        with pytest.raises(ConfigurationError):
            buf.sample(0)

    def test_clear(self):
        buf = ReplayBuffer(5, rng=0)
        buf.push(make_transition())
        buf.clear()
        assert len(buf) == 0

    def test_invalid_capacity_raises(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(0)

    def test_sampling_deterministic_with_seed(self):
        def collect(seed):
            buf = ReplayBuffer(10, rng=seed)
            for i in range(10):
                buf.push(make_transition(float(i)))
            return [t.features[0] for t in buf.sample(5)]

        assert collect(7) == collect(7)
