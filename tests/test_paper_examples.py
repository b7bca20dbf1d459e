"""Reproductions of the paper's worked examples (Tables II-V, Examples 1-3).

These tests pin the library's semantics to the concrete numbers printed in
the paper, which is the strongest available ground truth for a reproduction.
"""

import numpy as np
import pytest

from repro.core.reward import RewardWeights, iteration_reward
from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.crowd.cost import BudgetManager, CostModel
from repro.inference.majority import MajorityVote
from repro.utils.topk import select_objects_by_topk_q

#: Table IV — confusion matrix of worker w1.
PI_W1 = np.array([[0.60, 0.40], [0.30, 0.70]])
#: Table V — confusion matrix of expert w4.
PI_W4 = np.array([[0.98, 0.02], [0.01, 0.99]])
# Class convention: index 0 = 'positive' (first row of the tables),
# index 1 = 'negative'.
POS, NEG = 0, 1


class TestTableIVandV:
    def test_w1_quality_matches_table_ii(self):
        """Table II lists w1's quality as 0.65 = tr(Pi)/|C|."""
        assert ConfusionMatrix(PI_W1).quality() == pytest.approx(0.65)

    def test_w4_quality_matches_table_ii(self):
        """Table II lists w4's quality as 0.985; the paper's running text
        computes it as (0.98 + 0.99) / 2 from Table V."""
        assert ConfusionMatrix(PI_W4).quality() == pytest.approx(0.985)

    def test_pi_w4_negative_entry(self):
        """'The element pi_22 = 0.99 denotes w4 has probability 0.99 to
        label a negative object as negative.'"""
        cm = ConfusionMatrix(PI_W4)
        assert cm.likelihood(NEG, NEG) == pytest.approx(0.99)


class TestExample1:
    def test_mv_infers_o1_positive(self):
        """w1, w3 answer positive; w2(?) negative... per Example 1 the
        answer set is {positive, negative, positive} plus the expert's
        positive — MV infers positive."""
        answers = {0: {0: POS, 2: NEG, 1: POS, 3: POS}}
        result = MajorityVote().infer(answers, 2, 4)
        assert result.labels[0] == POS

    def test_costs_match_example(self):
        """Worker costs 1, expert costs 5 in Example 1's budget of 30."""
        model = CostModel(worker_cost=1.0, expert_cost=5.0)
        worker = Annotator(0, AnnotatorKind.WORKER,
                           ConfusionMatrix(PI_W1), model.worker_cost)
        expert = Annotator(1, AnnotatorKind.EXPERT,
                           ConfusionMatrix(PI_W4), model.expert_cost)
        budget = BudgetManager(30.0)
        # Example 2: employing w1 + w3 (workers) + w5 (expert) costs
        # 1 + 1 + 5 = 7.
        budget.charge(worker.cost)
        budget.charge(worker.cost)
        budget.charge(expert.cost)
        assert budget.spent == pytest.approx(7.0)
        assert budget.remaining == pytest.approx(23.0)


class TestExample2:
    def test_reward_of_second_iteration(self):
        """Example 2: one object enriched by phi, r_phi(2) = 1/|unlabelled|.

        After the first iteration 3 of 8 objects are labelled, so 5 are
        unlabelled and the enrichment of o2 gives r_phi = 1/5."""
        weights = RewardWeights(enrichment_weight=1.0, cost_weight=0.0)
        reward = iteration_reward(
            weights, n_enriched=1, n_unlabelled_before=5,
            iteration_cost=7.0, worst_case_cost=21.0,
        )
        assert reward == pytest.approx(1 / 5)

    def test_cost_of_assignment(self):
        """r_cost(2) = 1 + 1 + 5 = 7 for w1, w3, w5 on o8."""
        model = CostModel(worker_cost=1.0, expert_cost=5.0)
        cost = 2 * model.worker_cost + model.expert_cost
        assert cost == pytest.approx(7.0)


class TestExample3:
    """Table III: the Q(S(2), A(2)) matrix over objects o1..o8 (rows) and
    annotators w1..w5 (columns); 'x' entries are -inf masks for the
    already-labelled o1, o4, o5."""

    Q = np.array([
        [-np.inf] * 5,            # o1 labelled
        [3, 1, 1, 2, 2],          # o2
        [1, 1, 1, 2, 4],          # o3
        [-np.inf] * 5,            # o4 labelled
        [-np.inf] * 5,            # o5 labelled
        [1, 2, 1, 1, 2],          # o6
        [3, 2, 0, 1, 1],          # o7
        [4, 1, 3, 0, 2],          # o8
    ], dtype=float)

    def test_o8_selected_with_w1_w3_w5(self):
        """'The summation of the Top-3 Q values of o8 is 9, which is the
        biggest. Thus we select o8 and assign it to w1, w3 and w5.'"""
        (object_id, annotators), = select_objects_by_topk_q(self.Q, 3, 1)
        assert object_id == 7
        assert sorted(annotators) == [0, 2, 4]

    def test_labelled_objects_never_reselected(self):
        selected = select_objects_by_topk_q(self.Q, 3, 8)
        chosen = {obj for obj, _ in selected}
        assert chosen.isdisjoint({0, 3, 4})

    def test_top3_sum_of_o8_is_9(self):
        from repro.utils.topk import top_k_indices

        o8 = self.Q[7]
        assert np.sum(o8[top_k_indices(o8, 3)]) == pytest.approx(9.0)
