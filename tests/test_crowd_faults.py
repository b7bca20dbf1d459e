"""Tests for the fault-injection layer (repro.crowd.faults)."""

import warnings

import numpy as np
import pytest

from repro.crowd.compose import wrap
from repro.crowd.cost import BudgetManager
from repro.crowd.faults import (
    FAULT_KINDS,
    TIMEOUT_COST_FRACTION,
    FaultKind,
    FaultModel,
    UnreliablePlatform,
)
from repro.crowd.platform import CrowdPlatform
from repro.datasets.synthetic import make_blobs
from repro.exceptions import (
    AnnotatorUnavailableError,
    AnswerTimeoutError,
    ConfigurationError,
)

from conftest import build_pool


def make_unreliable(fault_model=None, budget=500.0, seed=7, **fault_kwargs):
    dataset = make_blobs(40, 6, separation=3.0, name="t", rng=seed)
    pool = build_pool(seed=seed)
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(budget))
    model = fault_model or FaultModel(len(pool), **fault_kwargs)
    return wrap(platform, faults=model, resilient=False), platform


class TestFaultModelValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(3, timeout=-0.1)

    def test_rates_summing_over_one_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(3, timeout=0.6, abandon=0.6)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(3, timeout=[0.1, 0.2])

    def test_bad_outage_length_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(3, outage_length=0)

    def test_bad_annotator_id_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(3).draw(3)

    def test_from_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultModel.from_rate(3, 1.5)

    def test_rates_matrix_shape(self):
        model = FaultModel.from_rate(4, 0.2)
        assert model.rates().shape == (4, len(FAULT_KINDS))
        assert np.allclose(model.rates().sum(axis=1), 0.2)


class TestFaultModelSampling:
    def test_inert_at_rate_zero(self):
        model = FaultModel(3)
        assert model.inert
        assert all(model.draw(j % 3) is None for j in range(50))

    def test_deterministic_given_seed(self):
        model1 = FaultModel.from_rate(3, 0.5, rng=9)
        model2 = FaultModel.from_rate(3, 0.5, rng=9)
        draws1 = [model1.draw(j % 3) for j in range(100)]
        draws2 = [model2.draw(j % 3) for j in range(100)]
        assert draws1 == draws2
        assert any(d is not None for d in draws1)

    def test_per_annotator_rates(self):
        model = FaultModel(2, timeout=[1.0, 0.0], rng=1)
        assert model.draw(0) is FaultKind.TIMEOUT
        assert model.draw(1) is None

    def test_offline_opens_burst_outage(self):
        model = FaultModel(2, offline=1.0, outage_length=3, rng=0)
        assert model.draw(0) is FaultKind.OFFLINE
        rng_state = model.state_dict()["rng"]
        # The next `outage_length` requests hit the outage window without
        # fresh sampling: the fault stream does not move ...
        for _ in range(3):
            assert model.draw(0) is FaultKind.OFFLINE
        assert model.state_dict()["rng"] == rng_state
        # ... and the first request after the window samples afresh.
        assert model.draw(0) is FaultKind.OFFLINE
        assert model.state_dict()["rng"] != rng_state

    def test_state_dict_round_trip(self):
        model = FaultModel.from_rate(3, 0.4, rng=5)
        for j in range(20):
            model.draw(j % 3)
        state = model.state_dict()
        clone = FaultModel.from_rate(3, 0.4, rng=5)
        clone.load_state_dict(state)
        draws = [model.draw(j % 3) for j in range(30)]
        assert draws == [clone.draw(j % 3) for j in range(30)]
        assert clone.clock == model.clock

    def test_malformed_state_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(2).load_state_dict({"clock": 1})

    def test_wrong_generator_state_rejected(self):
        state = FaultModel(2, rng=0).state_dict()
        state["rng"] = np.random.MT19937(0).state
        with pytest.raises(ConfigurationError,
                           match="malformed fault-model state"):
            FaultModel(2).load_state_dict(state)


class TestUnreliablePlatform:
    def test_pool_size_mismatch_rejected(self):
        unreliable, platform = make_unreliable()
        with pytest.raises(ConfigurationError):
            wrap(platform, faults=FaultModel(99))

    def test_direct_construction_is_silent(self):
        _, platform = make_unreliable()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            UnreliablePlatform(platform, FaultModel(len(platform.pool)))

    def test_timeout_raises_and_charges_partial_cost(self):
        unreliable, platform = make_unreliable(timeout=1.0)
        with pytest.raises(AnswerTimeoutError):
            unreliable.ask(0, 0)
        assert platform.budget.spent == pytest.approx(
            TIMEOUT_COST_FRACTION * platform.pool[0].cost)
        assert not platform.history.has_answered(0, 0)
        assert platform.answer_log == []

    def test_abandon_raises_and_charges_nothing(self):
        unreliable, platform = make_unreliable(abandon=1.0)
        with pytest.raises(AnnotatorUnavailableError):
            unreliable.ask(0, 0)
        assert platform.budget.spent == 0.0

    def test_offline_outage_blocks_consecutive_requests(self):
        unreliable, platform = make_unreliable(
            offline=[1.0, 0.0, 0.0, 0.0], outage_length=4)
        with pytest.raises(AnnotatorUnavailableError):
            unreliable.ask(0, 0)
        with pytest.raises(AnnotatorUnavailableError):
            unreliable.ask(1, 0)
        # Other annotators are unaffected.
        record = unreliable.ask(0, 1)
        assert record.annotator_id == 1

    def test_corruption_is_silent_and_consistent(self):
        unreliable, platform = make_unreliable(corrupt=1.0)
        record = unreliable.ask(0, 0)
        assert 0 <= record.answer < platform.n_classes
        assert platform.history.matrix[0, 0] == record.answer
        assert platform.answer_log[-1] == record
        assert platform.budget.spent == pytest.approx(platform.pool[0].cost)

    def test_ask_batch_propagates_faults(self):
        unreliable, _ = make_unreliable(timeout=1.0)
        with pytest.raises(AnswerTimeoutError):
            unreliable.ask_batch([(0, [0, 1])])

    def test_ask_batch_mixed_fault_outcomes(self):
        # One batch, three outcomes: annotator 1 corrupts silently (the
        # record lands), annotator 3 answers honestly, annotator 0 times
        # out and aborts the batch — records collected so far stay on the
        # platform's books.
        unreliable, platform = make_unreliable(
            timeout=[1.0, 0.0, 0.0, 0.0],
            corrupt=[0.0, 1.0, 0.0, 0.0],
            offline=[0.0, 0.0, 1.0, 0.0],
        )
        with pytest.raises(AnswerTimeoutError):
            unreliable.ask_batch([(0, [1, 3, 0, 2])])
        assert platform.history.has_answered(0, 1)
        assert platform.history.has_answered(0, 3)
        assert not platform.history.has_answered(0, 0)
        assert not platform.history.has_answered(0, 2)
        # The timeout wasted its cost fraction on top of the two answers.
        answered_cost = platform.pool[1].cost + platform.pool[3].cost
        assert platform.budget.spent > answered_cost

    def test_inert_batch_identical_to_bare_platform(self):
        unreliable, _ = make_unreliable(seed=3)
        _, bare = make_unreliable(seed=3)
        assignments = [(i, [0, 1, 2, 3]) for i in range(10)]
        wrapped = unreliable.ask_batch(assignments)
        direct = bare.ask_batch(assignments)
        assert wrapped == direct

    def test_waste_capped_at_remaining_budget(self):
        unreliable, platform = make_unreliable(timeout=1.0, budget=4.0)
        # The expert's waste is half of 10, but only 4 remains: waste the
        # remainder, no more.
        with pytest.raises(AnswerTimeoutError):
            unreliable.ask(0, 3)
        assert platform.budget.spent == pytest.approx(4.0)
