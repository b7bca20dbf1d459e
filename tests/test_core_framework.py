"""Tests for repro.core.framework (Algorithm 1 end to end)."""

import numpy as np
import pytest

from repro import BudgetManager, CrowdRL, CrowdRLConfig, make_platform
from repro.core.config import MIN_LABELS_FOR_CLASSIFIER
from repro.core.environment import JOINT_MAX_ITER
from repro.core.framework import LabellingFramework
from repro.core.result import LabelSource
from repro.crowd.platform import CrowdPlatform
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError
from repro.obs import JsonlEventLog, make_registry, read_events, use_registry

from conftest import build_pool


def quick_config(**kwargs):
    defaults = dict(alpha=0.1, batch_size=4, k_per_object=2,
                    min_truths_for_enrichment=10,
                    train_steps_per_iteration=2, max_iterations=50)
    defaults.update(kwargs)
    return CrowdRLConfig(**defaults)


@pytest.fixture
def dataset():
    return make_blobs(50, 6, separation=3.0, rng=0)


def fresh_platform(dataset, budget=150.0, seed=1):
    return make_platform(dataset, n_workers=3, n_experts=1, budget=budget,
                         rng=seed)


class TestRun:
    def test_produces_labels_for_all_objects(self, dataset):
        platform = fresh_platform(dataset)
        outcome = CrowdRL(quick_config(), rng=2).run(dataset, platform)
        assert outcome.final_labels.shape == (50,)
        assert set(np.unique(outcome.label_sources)) <= {0, 1, 2}

    def test_budget_never_exceeded(self, dataset):
        platform = fresh_platform(dataset, budget=60.0)
        outcome = CrowdRL(quick_config(), rng=2).run(dataset, platform)
        assert outcome.spent <= 60.0 + 1e-9

    def test_reasonable_accuracy_on_separable_data(self, dataset):
        accs = []
        for seed in (2, 3, 4):
            platform = fresh_platform(dataset, budget=200.0)
            config = quick_config(k_per_object=3)
            outcome = CrowdRL(config, rng=seed).run(dataset, platform)
            accs.append(
                outcome.evaluate(platform.evaluation_labels()).accuracy
            )
        assert np.mean(accs) > 0.7

    def test_human_sources_match_truth_count(self, dataset):
        platform = fresh_platform(dataset)
        outcome = CrowdRL(quick_config(), rng=2).run(dataset, platform)
        counts = outcome.source_counts()
        assert counts["human"] == outcome.extras["n_truths"]

    def test_reward_history_populated(self, dataset):
        platform = fresh_platform(dataset)
        outcome = CrowdRL(quick_config(), rng=2).run(dataset, platform)
        assert len(outcome.reward_history) >= 1

    def test_dataset_platform_size_mismatch_raises(self, dataset):
        other = make_blobs(20, 6, rng=1)
        platform = fresh_platform(dataset)
        with pytest.raises(ConfigurationError):
            CrowdRL(quick_config()).run(other, platform)

    def test_max_iterations_respected(self, dataset):
        platform = fresh_platform(dataset, budget=10_000.0)
        config = quick_config(max_iterations=3)
        outcome = CrowdRL(config, rng=2).run(dataset, platform)
        assert outcome.iterations <= 3

    def test_tiny_budget_still_returns_labels(self, dataset):
        platform = fresh_platform(dataset, budget=6.0)
        outcome = CrowdRL(quick_config(), rng=2).run(dataset, platform)
        assert outcome.final_labels.shape == (50,)
        assert outcome.spent <= 6.0


class TestPretraining:
    def test_pretrain_transfers_weights(self, dataset):
        framework = CrowdRL(quick_config(), rng=3)
        pre_set = make_blobs(30, 6, separation=2.0, rng=5)
        framework.pretrain(pre_set, fresh_platform(pre_set, seed=6))
        assert framework._pretrained_weights is not None
        platform = fresh_platform(dataset)
        outcome = framework.run(dataset, platform)
        assert outcome.final_labels.shape == (50,)

    def test_deterministic_given_seed(self, dataset):
        def run_once():
            platform = fresh_platform(dataset, seed=9)
            return CrowdRL(quick_config(), rng=11).run(dataset, platform)

        a, b = run_once(), run_once()
        np.testing.assert_array_equal(a.final_labels, b.final_labels)
        assert a.spent == b.spent


class TestIterationEvents:
    """CrowdRL's per-iteration ``iteration`` events on the registry's log."""

    FIELDS = {"iteration", "spent", "n_truths", "n_enriched", "reward",
              "iteration_cost", "n_assignments", "td_loss",
              "target_forwards", "bootstrap_lookups", "em_sweeps",
              "em_converged"}

    @staticmethod
    def _logged(tmp_path, **config_kwargs):
        dataset = make_blobs(40, 6, separation=3.0, rng=0)
        platform = make_platform(dataset, n_workers=3, n_experts=1,
                                 budget=120.0, rng=1)
        config = CrowdRLConfig(alpha=0.1, batch_size=4,
                               min_truths_for_enrichment=10,
                               train_steps_per_iteration=1, **config_kwargs)
        path = tmp_path / "events.jsonl"
        log = JsonlEventLog(path)
        with use_registry(make_registry(events=log)):
            outcome = CrowdRL(config, rng=2).run(dataset, platform)
        log.close()
        return read_events(path, kind="iteration"), outcome

    @pytest.fixture
    def logged_run(self, tmp_path):
        return self._logged(tmp_path)

    def test_records_every_iteration(self, logged_run):
        events, outcome = logged_run
        # One event per iteration that reached the act/infer stage.
        assert 1 <= len(events) <= outcome.iterations
        assert [e["iteration"] for e in events] == list(
            range(1, len(events) + 1))
        assert all(set(e) - {"seq", "kind"} == self.FIELDS for e in events)

    def test_spent_monotone(self, logged_run):
        events, _ = logged_run
        spends = [e["spent"] for e in events]
        assert all(a <= b for a, b in zip(spends, spends[1:]))

    def test_truth_counts_monotone(self, logged_run):
        events, _ = logged_run
        truths = [e["n_truths"] for e in events]
        assert all(a <= b for a, b in zip(truths, truths[1:]))

    def test_total_cost_matches_ledger_delta(self, logged_run):
        events, outcome = logged_run
        # Iteration costs exclude only the initial alpha-sample.
        total = sum(e["iteration_cost"] for e in events)
        assert total <= outcome.spent + 1e-9
        assert total > 0

    def test_reward_matches_history(self, logged_run):
        events, outcome = logged_run
        rewards = [e["reward"] for e in events]
        assert rewards == outcome.reward_history[:len(rewards)]

    def test_em_fields_follow_the_inference_run(self, logged_run):
        events, _ = logged_run
        assert any(e["em_sweeps"] is not None for e in events)
        for e in events:
            if e["n_truths"] < MIN_LABELS_FOR_CLASSIFIER:  # majority vote
                assert e["em_sweeps"] is None and e["em_converged"] is None
            else:  # joint EM
                assert 1 <= e["em_sweeps"] <= JOINT_MAX_ITER
                assert isinstance(e["em_converged"], bool)
                if e["em_sweeps"] < JOINT_MAX_ITER:
                    assert e["em_converged"]

    def test_em_fields_none_under_pm(self, tmp_path):
        events, _ = self._logged(tmp_path, inference_method="pm")
        assert events
        assert all(e["em_sweeps"] is None and e["em_converged"] is None
                   for e in events)


class TestFinalizeLabels:
    def test_precedence_human_over_enriched(self):
        labels, sources = LabellingFramework._finalize_labels(
            3, 2, truths={0: 1}, enriched={0: 0, 1: 0}, fallback_proba=None
        )
        assert labels[0] == 1
        assert sources[0] == LabelSource.HUMAN
        assert labels[1] == 0
        assert sources[1] == LabelSource.ENRICHED

    def test_fallback_uses_classifier(self):
        proba = np.array([[0.9, 0.1], [0.1, 0.9], [0.2, 0.8]])
        labels, sources = LabellingFramework._finalize_labels(
            3, 2, truths={}, enriched={}, fallback_proba=proba
        )
        np.testing.assert_array_equal(labels, [0, 1, 1])
        assert (sources == LabelSource.PREDICTED).all()

    def test_no_classifier_majority_default(self):
        labels, _sources = LabellingFramework._finalize_labels(
            4, 2, truths={0: 1, 1: 1, 2: 0}, enriched={}, fallback_proba=None
        )
        assert labels[3] == 1  # majority of truths
