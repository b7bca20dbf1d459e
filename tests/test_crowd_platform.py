"""Tests for repro.crowd.platform."""

import numpy as np
import pytest

from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.crowd.cost import BudgetManager
from repro.crowd.faults import FaultModel, UnreliablePlatform
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.crowd.resilient import ResilientCollector
from repro.exceptions import BudgetExhaustedError, ConfigurationError
from repro.serve import AsyncPlatform, LatencyModel, VirtualClock

from conftest import build_pool


def make_platform_with(budget=50.0, n_objects=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n_objects)
    return CrowdPlatform(labels, build_pool(), BudgetManager(budget))


class TestAsk:
    def test_ask_charges_and_records(self):
        platform = make_platform_with()
        record = platform.ask(0, 0)
        assert record.cost == 1.0
        assert platform.budget.spent == 1.0
        assert platform.history.has_answered(0, 0)
        assert platform.answer_log == [record]

    def test_expert_costs_more(self):
        platform = make_platform_with()
        record = platform.ask(0, 3)  # the expert in build_pool
        assert record.cost == 10.0

    def test_duplicate_pair_raises(self):
        platform = make_platform_with()
        platform.ask(0, 0)
        with pytest.raises(ConfigurationError):
            platform.ask(0, 0)

    def test_budget_enforced(self):
        platform = make_platform_with(budget=1.0)
        platform.ask(0, 0)
        with pytest.raises(BudgetExhaustedError):
            platform.ask(1, 0)

    def test_answers_come_from_latent_matrix(self):
        # Accuracy-1.0 expert always returns the truth.
        from conftest import build_pool as bp

        pool = bp(worker_accs=(), expert_accs=(1.0,))
        labels = np.array([0, 1, 1, 0])
        platform = CrowdPlatform(labels, pool, BudgetManager(100.0))
        for i, truth in enumerate(labels):
            assert platform.ask(i, 0).answer == truth


class TestAskBatch:
    def test_collects_all_affordable(self):
        platform = make_platform_with(budget=100.0)
        records = platform.ask_batch([(0, [0, 1]), (1, [0])])
        assert len(records) == 3

    def test_stops_at_budget(self):
        platform = make_platform_with(budget=2.0)
        records = platform.ask_batch([(0, [0, 1, 2])])
        assert len(records) == 2
        assert platform.budget.remaining == 0.0

    def test_skips_duplicates_silently(self):
        platform = make_platform_with()
        platform.ask(0, 0)
        records = platform.ask_batch([(0, [0, 1])])
        assert [r.annotator_id for r in records] == [1]

    def test_empty_assignment_list(self):
        platform = make_platform_with()
        assert platform.ask_batch([]) == []

    def test_unaffordable_annotator_skipped_not_fatal(self):
        # Expert (id 3) costs 10, workers cost 1.  With 5 units left the
        # expert is skipped but the cheap workers queued after it — in the
        # same and in later assignments — must still be asked.
        platform = make_platform_with(budget=5.0)
        records = platform.ask_batch([(0, [3, 0, 1]), (1, [3, 0])])
        assert [(r.object_id, r.annotator_id) for r in records] == \
            [(0, 0), (0, 1), (1, 0)]

    def test_stops_only_when_cheapest_unaffordable(self):
        platform = make_platform_with(budget=2.5)
        records = platform.ask_batch([(0, [0]), (1, [3]), (2, [0]), (3, [0])])
        # Two workers affordable; the expert is skipped; the fourth request
        # finds 0.5 < cheapest_cost() and collection stops.
        assert len(records) == 2
        assert all(r.annotator_id == 0 for r in records)


def _capped_platform():
    """Workers 0-2 (cost 1; worker 0 holds one answer), expert 3 (cost 10).

    Two answers are bought up front, leaving 4 of the 6 budget: object 0
    is answered by annotator 1, and worker 0 is at capacity.
    """
    streams = np.random.default_rng(0).spawn(4)
    annotators = [
        Annotator(annotator_id=i, kind=AnnotatorKind.WORKER,
                  confusion=ConfusionMatrix.from_accuracy(2, 0.8), cost=1.0,
                  capacity=1 if i == 0 else None, _rng=streams[i])
        for i in range(3)
    ]
    annotators.append(Annotator(
        annotator_id=3, kind=AnnotatorKind.EXPERT,
        confusion=ConfusionMatrix.from_accuracy(2, 0.95), cost=10.0,
        _rng=streams[3],
    ))
    labels = np.array([0, 1, 0, 1, 0, 1])
    platform = CrowdPlatform(labels, AnnotatorPool(annotators, 2),
                             BudgetManager(6.0))
    platform.ask(0, 1)
    platform.ask(1, 0)
    return platform


def _unreliable(platform):
    # Non-inert (the per-pair path runs) yet no fault ever fires.
    return UnreliablePlatform(platform, FaultModel.from_rate(4, 1e-12, rng=0))


def _collect_pairs(layer, platform, assignments):
    if layer == "bare":
        records = platform.ask_batch(assignments)
    elif layer == "unreliable":
        records = _unreliable(platform).ask_batch(assignments)
    elif layer == "resilient":
        records = ResilientCollector(_unreliable(platform)).ask_batch(
            assignments)
    else:
        adapter = AsyncPlatform(
            platform,
            latency=LatencyModel.for_pool(platform.pool, jitter=0.0),
            clock=VirtualClock(),
        )
        records = adapter.submit_batch(assignments)
    return [(r.object_id, r.annotator_id) for r in records]


class TestCollectBatchAcrossLayers:
    """Every batch layer walks an assignment list by the same four rules."""

    ASSIGNMENTS = [
        (0, [1, 2]),  # (0, 1) already answered: skipped
        (2, [0, 1]),  # worker 0 at capacity: skipped
        (3, [3, 2]),  # expert unaffordable with 2 left, worker 2 still bought
        (4, [1, 2]),  # (4, 1) spends the last unit; (4, 2) stops the batch
        (5, [2]),     # never reached
    ]

    @pytest.mark.parametrize(
        "layer", ["bare", "unreliable", "resilient", "async"])
    def test_same_pairs_and_ledger(self, layer):
        platform = _capped_platform()
        assignments = iter(self.ASSIGNMENTS)
        pairs = _collect_pairs(layer, platform, assignments)
        expected = [(0, 2), (2, 1), (3, 2), (4, 1)]
        assert pairs == expected
        # The batch stopped at exhaustion instead of walking on.
        assert list(assignments) == [(5, [2])]
        assert platform.budget.ledger_entries() == [
            (o, a, 1.0) for o, a in [(0, 1), (1, 0)] + expected
        ]
        assert platform.budget.remaining == 0.0


class TestConstruction:
    def test_label_range_validated(self):
        with pytest.raises(ConfigurationError):
            CrowdPlatform(np.array([0, 2]), build_pool(), BudgetManager(10.0))

    def test_empty_labels_raise(self):
        with pytest.raises(ConfigurationError):
            CrowdPlatform(np.array([]), build_pool(), BudgetManager(10.0))

    def test_evaluation_labels_is_copy(self):
        platform = make_platform_with()
        labels = platform.evaluation_labels()
        labels[0] = 1 - labels[0]
        assert platform.evaluation_labels()[0] != labels[0]

    def test_cheapest_cost(self):
        platform = make_platform_with()
        assert platform.cheapest_cost() == 1.0
