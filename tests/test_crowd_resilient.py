"""Tests for the resilient collection layer (repro.crowd.resilient)."""

import logging
import warnings

import numpy as np
import pytest

from repro.core.state import LabellingState
from repro.crowd.compose import wrap
from repro.crowd.cost import BudgetManager
from repro.crowd.faults import FaultModel
from repro.crowd.platform import CrowdPlatform
from repro.crowd.resilient import (
    CollectorStats,
    ResiliencePolicy,
    ResilientCollector,
)
from repro.datasets.synthetic import make_blobs
from repro.exceptions import CollectionFailedError, ConfigurationError
from repro.harness.experiment import (
    FRAMEWORK_NAMES,
    ExperimentSetting,
    ExperimentSpec,
    run_experiment,
)

from conftest import build_pool


def make_stack(budget=500.0, seed=7, policy=None, collector_rng=0,
               **fault_kwargs):
    """dataset -> platform -> UnreliablePlatform -> ResilientCollector."""
    dataset = make_blobs(40, 6, separation=3.0, name="t", rng=seed)
    pool = build_pool(seed=seed)
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(budget))
    collector = wrap(
        platform,
        faults=FaultModel(len(pool), **fault_kwargs),
        resilient=True,
        policy=policy,
        resilience_seed=collector_rng,
    )
    return collector, platform


class TestDeprecatedConstruction:
    def test_direct_construction_is_silent(self):
        dataset = make_blobs(20, 6, separation=3.0, name="t", rng=0)
        pool = build_pool(seed=0)
        platform = CrowdPlatform(dataset.labels, pool, BudgetManager(100.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ResilientCollector(platform, rng=2)

    def test_wrap_constructs_without_warning(self, recwarn):
        collector, _ = make_stack()
        assert isinstance(collector, ResilientCollector)
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations == []


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_factor": 0.5},
        {"backoff_jitter": 2.0},
        {"failure_threshold": 0.0},
        {"min_attempts": 0},
    ])
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(**kwargs)


class TestRetry:
    def test_timeouts_are_retried_then_succeed(self):
        # Annotator 0 times out sometimes; retries should still land most
        # answers on annotator 0 rather than reassigning.
        collector, platform = make_stack(timeout=[0.4, 0.0, 0.0, 0.0])
        records = collector.ask_batch([(i, [0]) for i in range(20)])
        assert collector.stats.retries > 0
        assert any(r.annotator_id == 0 for r in records)

    def test_backoff_accumulates_simulated_wait(self):
        collector, _ = make_stack(timeout=[0.6, 0.0, 0.0, 0.0])
        collector.ask_batch([(i, [0]) for i in range(20)])
        assert collector.stats.simulated_wait > 0.0

    def test_deterministic_given_seeds(self):
        a, _ = make_stack(timeout=0.3)
        b, _ = make_stack(timeout=0.3)
        ra = a.ask_batch([(i, [0, 1, 2, 3]) for i in range(15)])
        rb = b.ask_batch([(i, [0, 1, 2, 3]) for i in range(15)])
        assert ra == rb
        assert a.stats == b.stats


class TestReassignment:
    def test_unavailable_annotator_reassigned(self):
        collector, _ = make_stack(
            abandon=[1.0, 0.0, 0.0, 0.0],
            policy=ResiliencePolicy(quarantine_enabled=False),
        )
        records = collector.ask_batch([(i, [0]) for i in range(10)])
        assert len(records) == 10
        assert all(r.annotator_id != 0 for r in records)
        assert collector.stats.reassignments >= 10

    def test_collection_failure_when_everyone_faults(self):
        collector, _ = make_stack(abandon=1.0)
        with pytest.raises(CollectionFailedError):
            collector.ask(0, 0)
        assert collector.stats.gave_up == 1

    def test_batch_never_raises_on_faults(self):
        collector, _ = make_stack(abandon=1.0)
        records = collector.ask_batch([(i, [0, 1, 2, 3]) for i in range(5)])
        assert records == []
        assert collector.stats.gave_up > 0

    def test_ask_batch_mixed_fault_outcomes(self):
        """One batch, three fault kinds: retry, silent corrupt, reassign.

        Annotator 0 times out (retried on the spot), annotator 1 corrupts
        silently (the bad answer is recorded as a normal one), annotator 2
        is in a permanent outage (every request reassigned away);
        annotator 3 is honest.  The batch must absorb all three at once.
        """
        collector, platform = make_stack(
            timeout=[0.5, 0.0, 0.0, 0.0],
            corrupt=[0.0, 1.0, 0.0, 0.0],
            offline=[0.0, 0.0, 1.0, 0.0],
            policy=ResiliencePolicy(quarantine_enabled=False),
        )
        assignments = [(i, [0, 1, 2, 3]) for i in range(8)]
        records = collector.ask_batch(assignments)
        # Timeouts on annotator 0 were retried rather than dropped.
        assert collector.stats.retries > 0
        assert collector.stats.faults["timeout"] > 0
        # The offline annotator never produced an answer; its requests
        # were reassigned to someone who did (the collector buckets
        # offline outages under the 'unavailable' fault category).
        assert collector.stats.faults["unavailable"] > 0
        assert collector.stats.reassignments > 0
        assert all(r.annotator_id != 2 for r in records)
        # Corrupt answers are indistinguishable from honest ones to the
        # collector: they land on the books like any record.
        corrupt_records = [r for r in records if r.annotator_id == 1]
        assert corrupt_records
        for record in corrupt_records:
            assert platform.history.matrix[record.object_id, 1] == \
                record.answer
        # Every object still got answers despite the mixed outcomes.
        answered_objects = {r.object_id for r in records}
        assert answered_objects == set(range(8))


class TestQuarantine:
    def quarantining_collector(self):
        return make_stack(
            abandon=[1.0, 0.0, 0.0, 0.0],
            policy=ResiliencePolicy(min_attempts=3, failure_threshold=0.5),
        )

    def test_failure_rate_triggers_quarantine(self, caplog):
        collector, _ = self.quarantining_collector()
        with caplog.at_level(logging.WARNING, "repro.crowd.resilient"):
            collector.ask_batch([(i, [0]) for i in range(10)])
        assert 0 in collector.quarantined_annotators()
        assert collector.stats.quarantine_events
        assert any("quarantined annotator 0" in r.message
                   for r in caplog.records)

    def test_quarantined_annotator_not_routed_to(self):
        collector, platform = self.quarantining_collector()
        collector.ask_batch([(i, [0]) for i in range(20)])
        # After quarantine no further *attempts* hit annotator 0: the
        # failure count stops growing once the breaker opens.
        events = collector.stats.quarantine_events
        assert len(events) == 1
        _, _, attempts_at_quarantine = events[0]
        assert collector._attempts[0] == attempts_at_quarantine

    def test_state_masks_quarantined_columns(self):
        collector, platform = self.quarantining_collector()
        collector.ask_batch([(i, [0]) for i in range(10)])
        state = LabellingState(
            platform.history, platform.pool, platform.budget,
            unavailable=collector.quarantined_annotators,
        )
        mask = state.action_mask()
        assert not mask[:, 0].any()
        assert mask[:, 1].any()

    def test_stats_state_round_trip(self):
        collector, _ = self.quarantining_collector()
        collector.ask_batch([(i, [0, 1]) for i in range(10)])
        state = collector.state_dict()
        fresh, _ = self.quarantining_collector()
        fresh.load_state_dict(state)
        assert fresh.quarantined_annotators() == collector.quarantined_annotators()
        assert fresh.stats == collector.stats
        assert CollectorStats.from_dict(
            collector.stats.as_dict()) == collector.stats


class TestRateZeroEquivalence:
    """Acceptance: rate-0 faults + collector reproduce the seed run exactly."""

    def test_batch_collection_identical(self):
        collector, _ = make_stack(seed=11)
        _, bare = make_stack(seed=11)
        assignments = [(i, [3, 0, 1, 2]) for i in range(12)]
        assert collector.ask_batch(assignments) == bare.ask_batch(assignments)

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_frameworks_reproduce_seed_metrics(self, name):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=3)
        plain = run_experiment(name, setting, pretrain=False)
        guarded = run_experiment(
            name, setting, ExperimentSpec(
                faults=FaultModel(
                    setting.n_workers + setting.n_experts, rng=0),
                resilient=True,
            ), pretrain=False,
        )
        assert guarded.report == plain.report
        assert np.array_equal(guarded.outcome.final_labels,
                              plain.outcome.final_labels)
        assert guarded.outcome.spent == plain.outcome.spent

    def test_crowdrl_with_pretraining_reproduces(self):
        from repro.harness.experiment import clear_pretrained_policies

        setting = ExperimentSetting("S12CP", scale=0.02, seed=5)
        clear_pretrained_policies()
        plain = run_experiment("CrowdRL", setting)
        clear_pretrained_policies()
        guarded = run_experiment("CrowdRL", setting,
                                 ExperimentSpec(faults=0.0, resilient=True))
        assert guarded.report == plain.report
