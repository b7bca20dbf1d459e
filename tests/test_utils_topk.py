"""Tests for repro.utils.topk, including the paper's min-heap selection."""

import numpy as np
import pytest

from repro.utils.topk import select_objects_by_topk_q, top_k_indices


class TestTopKIndices:
    def test_basic(self):
        assert top_k_indices([1.0, 3.0, 2.0], 2) == [1, 2]

    def test_k_larger_than_input(self):
        assert sorted(top_k_indices([1.0, 2.0], 5)) == [0, 1]

    def test_k_zero(self):
        assert top_k_indices([1.0, 2.0], 0) == []

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0], -1)

    def test_tie_break_lower_index_first(self):
        assert top_k_indices([2.0, 2.0, 1.0], 1) == [0]

    def test_handles_neg_inf(self):
        assert top_k_indices([-np.inf, 1.0, -np.inf], 2) == [1, 0]


class TestSelectObjectsByTopkQ:
    def test_example_3_from_paper(self):
        """Table III: o8's top-3 Q sum (4+3+2=9) is largest; annotators
        w1, w3, w5 are selected for it."""
        ninf = -np.inf
        q = np.array([
            [ninf, ninf, ninf, ninf, ninf],   # o1 labelled
            [3, 1, 1, 2, 2],                  # o2
            [1, 1, 1, 2, 4],                  # o3
            [ninf, ninf, ninf, ninf, ninf],   # o4 labelled
            [ninf, ninf, ninf, ninf, ninf],   # o5 labelled
            [1, 2, 1, 1, 2],                  # o6
            [3, 2, 0, 1, 1],                  # o7
            [4, 1, 3, 0, 2],                  # o8
        ], dtype=float)
        selected = select_objects_by_topk_q(q, k_annotators=3, n_objects=1)
        assert len(selected) == 1
        object_id, annotators = selected[0]
        assert object_id == 7
        assert sorted(annotators) == [0, 2, 4]  # w1, w3, w5

    def test_masked_rows_never_selected(self):
        q = np.full((3, 2), -np.inf)
        q[1] = [1.0, 2.0]
        selected = select_objects_by_topk_q(q, 2, 3)
        assert [obj for obj, _ in selected] == [1]

    def test_orders_by_descending_score(self):
        q = np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
        selected = select_objects_by_topk_q(q, 2, 3)
        assert [obj for obj, _ in selected] == [1, 2, 0]

    def test_respects_n_objects(self):
        q = np.ones((5, 3))
        assert len(select_objects_by_topk_q(q, 2, 2)) == 2

    def test_k_annotators_capped_by_width(self):
        q = np.array([[1.0, 2.0]])
        (obj, annotators), = select_objects_by_topk_q(q, 5, 1)
        assert obj == 0 and sorted(annotators) == [0, 1]

    def test_partially_masked_row_uses_finite_entries(self):
        q = np.array([[-np.inf, 5.0, -np.inf], [1.0, 1.0, 1.0]])
        selected = select_objects_by_topk_q(q, 2, 2)
        scores = dict(selected)
        assert scores[0] == [1]           # only the finite annotator
        assert sorted(scores[1]) == [0, 1]

    def test_bad_q_shape_raises(self):
        with pytest.raises(ValueError):
            select_objects_by_topk_q(np.ones(3), 1, 1)

    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            select_objects_by_topk_q(np.ones((2, 2)), 0, 1)

    def test_zero_objects_gives_empty(self):
        assert select_objects_by_topk_q(np.ones((2, 2)), 1, 0) == []
