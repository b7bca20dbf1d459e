"""Tests for repro.rl.replay."""

import weakref

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rl.replay import NO_SUCCESSOR, ReplayBuffer


def push(buf, value=0.0, reward=1.0, terminal=False):
    buf.push(np.array([value]), reward,
             None if terminal else np.array([[value + 1]]))


class TestReplayBuffer:
    def test_push_and_len(self):
        buf = ReplayBuffer(10, rng=0)
        push(buf)
        assert len(buf) == 1

    def test_capacity_ring(self):
        buf = ReplayBuffer(3, rng=0)
        for i in range(5):
            push(buf, float(i), reward=float(i))
        assert len(buf) == 3
        assert sorted(buf.features[:, 0]) == [2.0, 3.0, 4.0]
        np.testing.assert_array_equal(buf.rewards, buf.features[:, 0])
        successors = [buf.successor(s)[0, 0] for s in buf.slots]
        np.testing.assert_array_equal(successors, buf.features[:, 0] + 1)

    def test_rows_grow_with_the_buffer(self):
        buf = ReplayBuffer(5000, rng=0)
        for i in range(40):
            push(buf, float(i))
        assert 40 <= buf._rewards.size < 5000
        np.testing.assert_array_equal(buf.features[:, 0], np.arange(40.0))

    def test_sample_size(self):
        buf = ReplayBuffer(10, rng=0)
        for i in range(4):
            push(buf, float(i))
        batch = buf.sample(8)  # sampling with replacement
        assert batch.features.shape == (8, 1)
        assert batch.rewards.shape == batch.slots.shape == (8,)

    def test_sample_is_one_integers_draw(self):
        buf = ReplayBuffer(10, rng=3)
        for i in range(6):
            push(buf, float(i))
        idx = np.random.default_rng(3).integers(0, 6, size=5)
        np.testing.assert_array_equal(buf.sample(5).features[:, 0], idx)

    def test_sample_empty_raises(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(5, rng=0).sample(1)

    def test_sample_nonpositive_raises(self):
        buf = ReplayBuffer(5, rng=0)
        push(buf)
        with pytest.raises(ConfigurationError):
            buf.sample(0)

    def test_feature_width_fixed_by_first_push(self):
        buf = ReplayBuffer(5, rng=0)
        push(buf)
        with pytest.raises(ConfigurationError):
            buf.push(np.ones(2), 0.0)

    def test_clear(self):
        buf = ReplayBuffer(5, rng=0)
        push(buf)
        buf.clear()
        assert len(buf) == 0
        buf.push(np.ones(3), 0.0)
        assert buf.features.shape == (1, 3)

    def test_invalid_capacity_raises(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(0)

    def test_sampling_deterministic_with_seed(self):
        def collect(seed):
            buf = ReplayBuffer(10, rng=seed)
            for i in range(10):
                push(buf, float(i))
            return list(buf.sample(5).features[:, 0])

        assert collect(7) == collect(7)


class TestSuccessorSlots:
    def test_terminal_has_no_successor(self):
        buf = ReplayBuffer(5, rng=0)
        push(buf, terminal=True)
        assert buf.slots[-1] == NO_SUCCESSOR
        assert buf.successor(NO_SUCCESSOR) is None

    def test_shared_successor_is_stored_once(self):
        buf = ReplayBuffer(10, rng=0)
        nxt = np.ones((3, 1))
        for _ in range(4):
            buf.push(np.zeros(1), 0.0, nxt)
        assert len(set(buf.slots.tolist())) == 1
        assert buf.successor(buf.slots[0]) is nxt

    def test_values_cached_per_slot_and_version(self):
        buf = ReplayBuffer(10, rng=0)
        a, b = np.ones((2, 1)), np.full((1, 1), 5.0)
        for nxt in (a, a, b, None):
            buf.push(np.zeros(1), 0.0, nxt)
        calls = []

        def evaluate(successor):
            calls.append(successor)
            return float(successor.sum())

        slots = buf.slots
        np.testing.assert_array_equal(buf.successor_values(slots, 0, evaluate),
                                      [2.0, 2.0, 5.0, 0.0])
        buf.successor_values(slots, 0, evaluate)
        assert len(calls) == 2
        buf.successor_values(slots[:1], 1, evaluate)
        assert len(calls) == 3 and calls[-1] is a

    def test_evicted_successor_released_once_its_value_is_stale(self):
        """A successor whose value is current stays held (and its id
        reserved) until the version moves; one never valued goes at once."""
        buf = ReplayBuffer(2, rng=0)
        valued, unvalued = np.ones((1, 1)), np.ones((1, 1))
        buf.push(np.zeros(1), 0.0, valued)
        buf.push(np.zeros(1), 0.0, unvalued)
        buf.successor_values(buf.slots[:1], 0, lambda s: 1.0)
        refs = weakref.ref(valued), weakref.ref(unvalued)
        del valued, unvalued
        for _ in range(2):
            push(buf, terminal=True)
        assert refs[0]() is not None and refs[1]() is None
        buf.successor_values(buf.slots, 1, lambda s: 1.0)
        assert refs[0]() is None
