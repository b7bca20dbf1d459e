"""Tests for repro.rl.selection (the selection counts behind Eq. 6's UCB)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rl.selection import ActionStatistics


class TestActionStatistics:
    def test_record_and_counts(self):
        stats = ActionStatistics(3)
        stats.record(1)
        stats.record(1)
        stats.record(2)
        np.testing.assert_array_equal(stats.counts, [0, 2, 1])
        assert stats.total == 3

    def test_bonus_formula(self):
        stats = ActionStatistics(2)
        stats.record(0)
        stats.record(0)
        bonus = stats.bonus()
        assert bonus[0] == pytest.approx(np.sqrt(2 * np.log(2) / 2))
        assert bonus[1] == np.inf  # untried arm

    def test_bonus_zero_with_no_history(self):
        np.testing.assert_array_equal(ActionStatistics(3).bonus(), 0.0)

    def test_out_of_range_record_raises(self):
        with pytest.raises(ConfigurationError):
            ActionStatistics(2).record(2)

    def test_invalid_size_raises(self):
        with pytest.raises(ConfigurationError):
            ActionStatistics(0)
