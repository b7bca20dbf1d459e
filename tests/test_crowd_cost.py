"""Tests for repro.crowd.cost."""

import pytest

from repro.crowd.cost import BudgetManager, CostModel
from repro.exceptions import BudgetExhaustedError, ConfigurationError


class TestCostModel:
    def test_defaults_match_paper(self):
        model = CostModel()
        assert model.worker_cost == 1.0
        assert model.expert_cost == 10.0

    def test_invalid_costs_raise(self):
        with pytest.raises(ConfigurationError):
            CostModel(worker_cost=0)


class TestBudgetManager:
    def test_remaining(self):
        budget = BudgetManager(30.0)
        budget.charge(5.0)
        assert budget.remaining == 25.0
        assert budget.spent == 5.0

    def test_exhaustion_raises(self):
        budget = BudgetManager(10.0)
        budget.charge(10.0)
        assert budget.exhausted
        with pytest.raises(BudgetExhaustedError):
            budget.charge(0.5)

    def test_can_afford(self):
        budget = BudgetManager(10.0)
        assert budget.can_afford(10.0)
        assert not budget.can_afford(10.5)

    def test_negative_charge_raises(self):
        with pytest.raises(ConfigurationError):
            BudgetManager(10.0).charge(-1.0)

    def test_invalid_total_raises(self):
        with pytest.raises(ConfigurationError):
            BudgetManager(0)

    def test_ledger_iteration_cost(self):
        budget = BudgetManager(100.0)
        budget.charge(5.0)
        mark = budget.ledger_length
        budget.charge(3.0)
        budget.charge(2.0)
        assert budget.iteration_cost(mark) == 5.0
        assert budget.iteration_cost(0) == 10.0

    def test_ledger_records_ids(self):
        budget = BudgetManager(10.0)
        budget.charge(1.0, object_id=3, annotator_id=2)
        assert budget._ledger[-1] == (3, 2, 1.0)
