"""Tests for repro.core.config and repro.core.reward."""

import pytest

from repro.core.config import CrowdRLConfig, default_classifier_factory
from repro.core.reward import RewardWeights, iteration_reward
from repro.exceptions import ConfigurationError


class TestCrowdRLConfig:
    def test_defaults_valid(self):
        config = CrowdRLConfig()
        assert config.alpha == 0.05
        assert config.k_per_object == 3

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 1.0),
        ("k_per_object", 0),
        ("batch_size", 0),
        ("enrichment_margin", 0.0), ("enrichment_margin", 1.0),
        ("expert_floor", 1.0),
        ("max_iterations", 0),
        ("train_steps_per_iteration", -1),
        ("ts_mode", "greedy"),
        ("ta_mode", "best"),
        ("inference_method", "mv"),
        ("info_gain_weight", -1.0),
    ])
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(ConfigurationError):
            CrowdRLConfig(**{field: value})

    def test_default_classifier_factory(self):
        clf = default_classifier_factory(4, 2)
        assert clf.n_classes == 2
        assert clf.n_features == 4


class TestRewardWeights:
    def test_defaults(self):
        weights = RewardWeights()
        assert weights.gamma == 0.95

    def test_negative_weight_raises(self):
        with pytest.raises(ConfigurationError):
            RewardWeights(enrichment_weight=-1)

    def test_invalid_gamma_raises(self):
        with pytest.raises(ConfigurationError):
            RewardWeights(gamma=0.0)
        with pytest.raises(ConfigurationError):
            RewardWeights(gamma=1.1)


class TestIterationReward:
    def test_enrichment_component(self):
        weights = RewardWeights(enrichment_weight=1.0, cost_weight=0.0)
        reward = iteration_reward(
            weights, n_enriched=5, n_unlabelled_before=10,
            iteration_cost=0.0, worst_case_cost=10.0,
        )
        assert reward == pytest.approx(0.5)

    def test_cost_component_negative(self):
        weights = RewardWeights(enrichment_weight=0.0, cost_weight=1.0)
        reward = iteration_reward(
            weights, n_enriched=0, n_unlabelled_before=10,
            iteration_cost=5.0, worst_case_cost=10.0,
        )
        assert reward == pytest.approx(-0.5)

    def test_combined(self):
        weights = RewardWeights(enrichment_weight=1.0, cost_weight=0.5)
        reward = iteration_reward(
            weights, n_enriched=10, n_unlabelled_before=10,
            iteration_cost=10.0, worst_case_cost=10.0,
        )
        assert reward == pytest.approx(1.0 - 0.5)

    def test_zero_unlabelled_no_division_error(self):
        reward = iteration_reward(
            RewardWeights(), n_enriched=0, n_unlabelled_before=0,
            iteration_cost=1.0, worst_case_cost=10.0,
        )
        assert reward < 0

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            iteration_reward(RewardWeights(), n_enriched=-1,
                             n_unlabelled_before=1, iteration_cost=0,
                             worst_case_cost=1)
        with pytest.raises(ConfigurationError):
            iteration_reward(RewardWeights(), n_enriched=0,
                             n_unlabelled_before=1, iteration_cost=0,
                             worst_case_cost=0)
