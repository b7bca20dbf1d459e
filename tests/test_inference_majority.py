"""Tests for repro.inference.majority."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.inference.majority import MajorityVote


class TestMajorityVote:
    def test_paper_example_1(self):
        """Example 1: answers {positive, negative, positive} -> positive."""
        answers = {0: {0: 1, 2: 0, 3: 1}}  # 1 = positive
        result = MajorityVote().infer(answers, 2, 4)
        assert result.labels[0] == 1

    def test_posterior_is_vote_share(self):
        answers = {0: {0: 1, 1: 1, 2: 0}}
        result = MajorityVote().infer(answers, 2, 3)
        np.testing.assert_allclose(result.posteriors[0], [1 / 3, 2 / 3])

    def test_tie_break_lowest(self):
        answers = {0: {0: 0, 1: 1}}
        assert MajorityVote().infer(answers, 2, 2).labels[0] == 0

    def test_empty_answer_set_raises(self):
        with pytest.raises(ConfigurationError):
            MajorityVote().infer({0: {}}, 2, 1)

    def test_answer_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            MajorityVote().infer({0: {0: 5}}, 2, 1)

    def test_multiclass(self):
        answers = {0: {0: 2, 1: 2, 2: 0}}
        assert MajorityVote().infer(answers, 3, 3).labels[0] == 2

    def test_confidence_accessor(self):
        answers = {0: {0: 1, 1: 1, 2: 0}}
        result = MajorityVote().infer(answers, 2, 3)
        assert result.confidence(0) == pytest.approx(2 / 3)
