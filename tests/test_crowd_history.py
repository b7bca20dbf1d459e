"""Tests for repro.crowd.history (the State's answer matrix)."""

import numpy as np
import pytest

from repro.crowd.history import UNANSWERED, LabellingHistory
from repro.exceptions import ConfigurationError


@pytest.fixture
def history():
    return LabellingHistory(n_objects=5, n_annotators=3, n_classes=2)


class TestRecording:
    def test_starts_unanswered(self, history):
        assert (history.matrix == UNANSWERED).all()

    def test_record_and_query(self, history):
        history.record(0, 1, 1)
        assert history.has_answered(0, 1)
        assert not history.has_answered(0, 0)
        assert history.answers_for(0) == {1: 1}

    def test_duplicate_rejected(self, history):
        history.record(0, 1, 1)
        with pytest.raises(ConfigurationError):
            history.record(0, 1, 0)

    def test_answer_out_of_range(self, history):
        with pytest.raises(ConfigurationError):
            history.record(0, 0, 2)

    def test_ids_out_of_range(self, history):
        with pytest.raises(ConfigurationError):
            history.record(5, 0, 0)
        with pytest.raises(ConfigurationError):
            history.record(0, 3, 0)


class TestQueries:
    def test_answer_counts(self, history):
        history.record(2, 0, 1)
        history.record(2, 1, 1)
        history.record(2, 2, 0)
        np.testing.assert_array_equal(history.answer_counts(2), [1, 2])

    def test_n_answers(self, history):
        assert history.n_answers(1) == 0
        history.record(1, 0, 0)
        assert history.n_answers(1) == 1

    def test_answered_objects(self, history):
        history.record(1, 0, 0)
        history.record(4, 2, 1)
        np.testing.assert_array_equal(history.answered_objects(), [1, 4])

    def test_annotator_load(self, history):
        history.record(0, 1, 0)
        history.record(3, 1, 1)
        assert history.annotator_load(1) == 2
        assert history.annotator_load(0) == 0

    def test_confusion_counts_against_truths(self, history):
        history.record(0, 0, 1)   # truth 0, answered 1 -> counts[0,1]
        history.record(1, 0, 1)   # truth 1, answered 1 -> counts[1,1]
        history.record(2, 0, 0)   # truth not inferred -> skipped
        counts = history.confusion_counts(0, {0: 0, 1: 1})
        np.testing.assert_array_equal(counts, [[0, 1], [0, 1]])

    def test_answer_map_empty(self, history):
        assert history.answer_map() == {}

    @pytest.mark.parametrize("seed", range(20))
    def test_answer_map_matches_answers_for_in_order(self, seed):
        rng = np.random.default_rng(seed)
        n_objects, n_annotators = rng.integers(1, 12), rng.integers(1, 6)
        history = LabellingHistory(n_objects, n_annotators, n_classes=3)
        pairs = [(i, j) for i in range(n_objects) for j in range(n_annotators)
                 if rng.random() < 0.4]
        # Record out of order: the map's order must come from the ids,
        # not from the order answers arrived in.
        for k in rng.permutation(len(pairs)):
            i, j = pairs[k]
            history.record(i, j, int(rng.integers(3)))
        expected = {int(i): history.answers_for(int(i))
                    for i in history.answered_objects()}
        answer_map = history.answer_map()
        assert answer_map == expected
        assert list(answer_map) == list(expected)
        for i, answers in answer_map.items():
            assert list(answers.items()) == list(expected[i].items())
            assert all(type(x) is int
                       for pair in answers.items() for x in pair)
        assert all(type(i) is int for i in answer_map)

    def test_copy_is_independent(self, history):
        history.record(0, 0, 1)
        clone = history.copy()
        clone.record(1, 1, 0)
        assert not history.has_answered(1, 1)
        assert clone.has_answered(0, 0)


class TestConstruction:
    def test_invalid_sizes_raise(self):
        with pytest.raises(ConfigurationError):
            LabellingHistory(0, 3, 2)
        with pytest.raises(ConfigurationError):
            LabellingHistory(3, 0, 2)
        with pytest.raises(ConfigurationError):
            LabellingHistory(3, 3, 1)
