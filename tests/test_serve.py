"""Tests for the online labelling service (repro.serve).

Three layers of guarantees, in the order the module docstrings promise
them:

* **Units** — the virtual event clock, the seeded latency model, and the
  FIFO annotator lease table behave deterministically on their own.
* **Bit-identity** — an async single-project run is *bit-identical* to
  the synchronous reference (the oracle), across a seed matrix and with
  faults in the chain, because the inner ``ask`` executes at submission
  and latency only delays visibility.
* **Multi-tenancy** — the engine drives 8+ concurrent projects on one
  shared pool, deterministically, with per-session budget attribution
  that reconciles exactly in the per-session metrics streams.
"""

import numpy as np
import pytest

import inspect

from repro.core.config import CrowdRLConfig
from repro.core.framework import CollectRequest, CrowdRL
from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    ExperimentSetting,
    ExperimentSpec,
    clear_pretrained_policies,
    run_experiment,
)
from repro.obs import load_summary
from repro.obs.report import budget_by_phase
from repro.serve import (
    AnnotatorLeases,
    AsyncPlatform,
    LabellingSession,
    LatencyModel,
    ServeEngine,
    VirtualClock,
)

from conftest import build_pool


# ----------------------------------------------------------------------
# Units: clock, latency, leases
# ----------------------------------------------------------------------
class TestVirtualClock:
    def test_pop_orders_by_due_then_submission(self):
        clock = VirtualClock()
        clock.push(2.0, "late")
        clock.push(1.0, "early-first")
        clock.push(1.0, "early-second")
        assert [clock.pop()[2] for _ in range(3)] == [
            "early-first", "early-second", "late",
        ]

    def test_pop_advances_now(self):
        clock = VirtualClock()
        clock.push(1.5, "a")
        assert clock.now == 0.0
        clock.pop()
        assert clock.now == 1.5

    def test_past_due_rejected(self):
        clock = VirtualClock()
        clock.push(1.0, "a")
        clock.pop()
        with pytest.raises(ConfigurationError):
            clock.push(0.5, "time travel")

    def test_pop_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualClock().pop()

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualClock(start=-1.0)


class TestLatencyModel:
    def test_deterministic_given_seed(self):
        a = LatencyModel(4, mean=2.0, jitter=0.5, rng=3)
        b = LatencyModel(4, mean=2.0, jitter=0.5, rng=3)
        assert [a.draw(j % 4) for j in range(40)] == \
            [b.draw(j % 4) for j in range(40)]

    def test_draws_stay_within_jitter_band(self):
        model = LatencyModel(2, mean=4.0, jitter=0.25, rng=0)
        draws = [model.draw(0) for _ in range(200)]
        assert all(3.0 <= d <= 5.0 for d in draws)

    def test_for_pool_gives_experts_longer_service(self):
        pool = build_pool()  # 3 workers at cost 1, 1 expert at cost 10
        model = LatencyModel.for_pool(pool, worker_latency=1.0, rng=0)
        means = model.means()
        assert list(means[:3]) == [1.0, 1.0, 1.0]
        assert means[3] == 3.0

    def test_state_round_trip(self):
        model = LatencyModel(3, rng=1)
        for j in range(10):
            model.draw(j % 3)
        clone = LatencyModel(3, rng=1)
        clone.load_state_dict(model.state_dict())
        assert [model.draw(j % 3) for j in range(10)] == \
            [clone.draw(j % 3) for j in range(10)]

    @pytest.mark.parametrize("state", [
        {},
        None,
        {"rng": np.random.MT19937(0).state},
        {"rng": {}},
    ], ids=["missing-rng", "not-a-dict", "wrong-generator", "empty-rng"])
    def test_malformed_state_rejected(self, state):
        model = LatencyModel(3, rng=1)
        before = model.state_dict()
        with pytest.raises(ConfigurationError,
                           match="malformed latency-model state"):
            model.load_state_dict(state)
        assert model.state_dict() == before

    def test_bad_annotator_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(2).draw(2)


class TestAnnotatorLeases:
    def test_fifo_queueing_on_one_annotator(self):
        leases = AnnotatorLeases(2)
        start1, due1 = leases.acquire(0, 2.0, now=0.0)
        start2, due2 = leases.acquire(0, 3.0, now=0.0)
        assert (start1, due1) == (0.0, 2.0)
        assert (start2, due2) == (2.0, 5.0)  # queued behind the first
        assert leases.total_wait == 2.0

    def test_parallel_annotators_do_not_queue(self):
        leases = AnnotatorLeases(2)
        _, due1 = leases.acquire(0, 2.0, now=0.0)
        start2, _ = leases.acquire(1, 2.0, now=0.0)
        assert start2 == 0.0
        assert leases.total_wait == 0.0
        assert due1 == 2.0

    def test_grant_counts_per_session(self):
        leases = AnnotatorLeases(3)
        leases.acquire(0, 1.0, now=0.0, session="a")
        leases.acquire(1, 1.0, now=0.0, session="a")
        leases.acquire(0, 1.0, now=0.0, session="b")
        assert leases.grant_counts() == {"a": 2, "b": 1}

    def test_bad_annotator_rejected(self):
        with pytest.raises(ConfigurationError):
            AnnotatorLeases(2).acquire(2, 1.0, now=0.0)


# ----------------------------------------------------------------------
# Async adapter mechanics: overlap, delivery, guards
# ----------------------------------------------------------------------
def make_async(budget=500.0, seed=7, **kwargs):
    dataset = make_blobs(40, 6, separation=3.0, name="t", rng=seed)
    pool = build_pool(seed=seed)
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(budget))
    clock = VirtualClock()
    adapter = AsyncPlatform(
        platform,
        # Jitter-free so service times are exact: workers 1s, expert 3s.
        latency=LatencyModel.for_pool(pool, worker_latency=1.0, jitter=0.0,
                                      rng=seed),
        clock=clock,
        **kwargs,
    )
    return adapter, platform, clock


class TestAsyncPlatform:
    def test_in_flight_answers_overlap_across_annotators(self):
        adapter, _, clock = make_async()
        first = adapter.ask_async(0, 0)
        second = adapter.ask_async(1, 1)
        assert adapter.in_flight == 2
        # Both annotators work concurrently: neither waits for the other,
        # so the batch finishes before the serial sum of service times.
        assert first.start == second.start == 0.0
        assert max(first.due, second.due) < first.service + second.service

    def test_same_annotator_queues_fifo(self):
        adapter, _, _ = make_async()
        first = adapter.ask_async(0, 0)
        second = adapter.ask_async(1, 0)
        assert second.start == first.due
        assert second.due == second.start + second.service

    def test_submission_time_charging(self):
        adapter, platform, _ = make_async()
        adapter.ask_async(0, 0)
        # The budget is charged and the answer recorded at submission,
        # before any event-loop delivery happens.
        assert platform.budget.spent == platform.pool[0].cost
        assert platform.history.has_answered(0, 0)

    def test_double_delivery_rejected(self):
        adapter, _, clock = make_async()
        pending = adapter.ask_async(0, 0)
        clock.pop()
        adapter.mark_delivered(pending)
        with pytest.raises(ConfigurationError):
            adapter.mark_delivered(pending)

    def test_latency_size_mismatch_rejected(self):
        dataset = make_blobs(10, 6, separation=3.0, name="t", rng=0)
        pool = build_pool()
        platform = CrowdPlatform(
            dataset.labels, pool, BudgetManager(100.0))
        with pytest.raises(ConfigurationError):
            AsyncPlatform(platform, latency=LatencyModel(99),
                          clock=VirtualClock())

    def test_session_requires_async_platform(self):
        dataset = make_blobs(10, 6, separation=3.0, name="t", rng=0)
        pool = build_pool()
        platform = CrowdPlatform(
            dataset.labels, pool, BudgetManager(100.0))
        with pytest.raises(ConfigurationError, match="AsyncPlatform"):
            LabellingSession(
                "default", dataset, CrowdRL(CrowdRLConfig(), rng=0),
                platform)


# ----------------------------------------------------------------------
# Generator lifecycle: no dangling episode frames after faults
# ----------------------------------------------------------------------
class FaultyFramework:
    """Episode raises after its first batch lands, mid-protocol.

    ``episode()`` records every generator it hands out so tests can
    assert the frame was released after the abort.
    """

    name = "faulty"

    def __init__(self):
        self.frames = []

    def episode(self, dataset, platform):
        frame = self._episode(dataset, platform)
        self.frames.append(frame)
        return frame

    def _episode(self, dataset, platform):
        yield CollectRequest(assignments=((0, [0]),), phase="initial_sample")
        raise ValueError("annotation backend exploded")


class _UnreachablePlatform(CrowdPlatform):
    """A platform whose annotation backend fails on every request."""

    def ask(self, object_id, annotator_id):
        raise RuntimeError("annotation backend unreachable")


class TestGeneratorLifecycle:
    """Fault-abort and shutdown paths must close the episode generator."""

    def test_faulted_session_closes_episode_frame(self):
        adapter, _, clock = make_async()
        dataset = make_blobs(10, 6, separation=3.0, name="t", rng=0)
        framework = FaultyFramework()
        session = LabellingSession("default", dataset, framework, adapter)
        session.start()
        assert not session.done
        assert inspect.getgeneratorstate(framework.frames[0]) == \
            inspect.GEN_SUSPENDED
        with pytest.raises(ValueError):
            _due, _seq, pending = clock.pop()
            session.deliver(pending)
        assert inspect.getgeneratorstate(framework.frames[0]) == \
            inspect.GEN_CLOSED

    @pytest.mark.parametrize("platform_type, error", [
        (CrowdPlatform, ValueError),
        (_UnreachablePlatform, RuntimeError),
    ], ids=["episode", "submission"])
    def test_faulted_served_run_closes_frame(self, platform_type, error):
        """A single served run releases its frame whichever side faults.

        ``episode``: the episode raises after its first batch lands.
        ``submission``: the platform raises while the first batch is
        submitted, leaving the episode suspended at its ``yield`` until
        the session closes it.
        """
        from repro.harness.experiment import _run_served

        dataset = make_blobs(10, 6, separation=3.0, name="t", rng=0)
        platform = platform_type(
            dataset.labels, build_pool(), BudgetManager(100.0))
        framework = FaultyFramework()
        with pytest.raises(error):
            _run_served(framework, dataset, platform,
                        ExperimentSetting("S12CP", scale=0.02, seed=0),
                        ExperimentSpec(serve=True))
        assert inspect.getgeneratorstate(framework.frames[0]) == \
            inspect.GEN_CLOSED

    def test_engine_shutdown_closes_unfinished_sessions(self):
        pool = build_pool()
        engine = ServeEngine(
            pool,
            latency=LatencyModel.for_pool(pool, worker_latency=1.0,
                                          jitter=0.0, rng=0),
            max_active=1,
        )
        dataset = make_blobs(12, 6, separation=3.0, name="t", rng=0)
        faulty = FaultyFramework()
        queued = FaultyFramework()
        engine.add_project("p0", dataset, faulty, budget=200.0)
        engine.add_project("p1", dataset, queued, budget=200.0)
        with pytest.raises(ValueError):
            engine.run()
        # The faulted session's frame closed on its own abort path...
        assert inspect.getgeneratorstate(faulty.frames[0]) == \
            inspect.GEN_CLOSED
        # ...and the never-admitted session's frame closed at shutdown.
        assert inspect.getgeneratorstate(queued.frames[0]) == \
            inspect.GEN_CLOSED


# ----------------------------------------------------------------------
# Bit-identity: async single-project == sync oracle
# ----------------------------------------------------------------------
class TestAsyncSyncIdentity:
    """The acceptance matrix: served runs reproduce sync runs exactly."""

    @pytest.mark.parametrize("dataset", ["S12CP", "S3CP"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_served_run_is_bit_identical(self, dataset, seed):
        setting = ExperimentSetting(dataset, scale=0.02, seed=seed)
        clear_pretrained_policies()
        sync = run_experiment("CrowdRL", setting, pretrain=False)
        clear_pretrained_policies()
        served = run_experiment(
            "CrowdRL", setting, ExperimentSpec(serve=True), pretrain=False)
        assert served.report == sync.report
        assert served.outcome.spent == sync.outcome.spent
        assert served.outcome.iterations == sync.outcome.iterations
        assert np.array_equal(served.outcome.final_labels,
                              sync.outcome.final_labels)

    def test_served_run_with_faults_is_bit_identical(self):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=4)
        sync = run_experiment(
            "CrowdRL", setting, ExperimentSpec(faults=0.1), pretrain=False)
        served = run_experiment(
            "CrowdRL", setting, ExperimentSpec(faults=0.1, serve=True),
            pretrain=False)
        assert served.report == sync.report
        assert served.outcome.spent == sync.outcome.spent
        assert np.array_equal(served.outcome.final_labels,
                              sync.outcome.final_labels)
        assert served.outcome.extras["collector"] == \
            sync.outcome.extras["collector"]

    def test_served_run_with_pretraining_is_bit_identical(self):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=7)
        clear_pretrained_policies()
        sync = run_experiment("CrowdRL", setting)
        clear_pretrained_policies()
        served = run_experiment("CrowdRL", setting,
                                ExperimentSpec(serve=True))
        assert served.report == sync.report
        assert np.array_equal(served.outcome.final_labels,
                              sync.outcome.final_labels)

    def test_served_run_overlaps_collection(self):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=0)
        served = run_experiment(
            "CrowdRL", setting, ExperimentSpec(serve=True, metrics=True),
            pretrain=False)
        extras = served.outcome.extras["serve"]
        assert extras["completed"] > 0
        # Overlap is the point of the event loop: the virtual makespan
        # must beat serial collection (the sum of all service times).
        serial = served.metrics["histograms"]["serve.service_s"]["sum"]
        assert extras["makespan"] < serial
        assert served.metrics["counters"]["serve.completed"] == \
            extras["completed"]

    def test_latency_knob_implies_serve(self):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=0)
        spec = ExperimentSpec(latency=2.0)
        assert spec.serve is True
        result = run_experiment("CrowdRL", setting, spec, pretrain=False)
        assert "serve" in result.outcome.extras

    def test_serve_with_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(serve=True, checkpoint_path="x.ckpt")

    def test_framework_without_episode_protocol_rejected(self):
        setting = ExperimentSetting("S12CP", scale=0.02, seed=0)
        with pytest.raises(NotImplementedError):
            run_experiment("DLTA", setting, ExperimentSpec(serve=True),
                           pretrain=False)


# ----------------------------------------------------------------------
# Multi-tenancy: the serve engine
# ----------------------------------------------------------------------
def build_engine(n_projects, metrics_dir=None, max_active=None,
                 budget=80.0):
    datasets = [
        load_dataset("S12CP", scale=0.02, rng=100 + i)
        for i in range(n_projects)
    ]
    pool = AnnotatorPool.build(datasets[0].n_classes, 3, 2, rng=7)
    engine = ServeEngine(pool, max_active=max_active,
                         metrics_dir=metrics_dir)
    for i, dataset in enumerate(datasets):
        engine.add_project(
            f"proj{i}", dataset, CrowdRL(CrowdRLConfig(), rng=200 + i),
            budget=budget, seed=i,
        )
    return engine


class _RecordingCrowdRL(CrowdRL):
    """CrowdRL whose episode keeps every answer record its driver sends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def episode(self, dataset, platform):
        inner = super().episode(dataset, platform)
        try:
            request = next(inner)
            while True:
                records = yield request
                self.received.extend(records)
                request = inner.send(records)
        except StopIteration as stop:
            return stop.value
        finally:
            inner.close()


class TestServeEngine:
    def test_sessions_receive_records_as_the_platform_logged_them(self):
        """Delivery hands each episode its platform's records, untouched.

        The records an episode receives are the objects the platform
        logged at submission; a delivery path that rewrites, reorders or
        drops them must show up here even when the episode's outcome
        happens not to read the changed field.
        """
        datasets = [load_dataset("S12CP", scale=0.02, rng=100 + i)
                    for i in range(3)]
        pool = AnnotatorPool.build(datasets[0].n_classes, 3, 2, rng=7)
        engine = ServeEngine(pool, max_active=2)
        sessions = [
            engine.add_project(
                f"proj{i}", dataset,
                _RecordingCrowdRL(CrowdRLConfig(), rng=200 + i),
                budget=80.0, seed=i,
            )
            for i, dataset in enumerate(datasets)
        ]
        engine.run()
        for session in sessions:
            received = session.framework.received
            assert received
            assert received == session.platform.inner.answer_log

    def test_engine_dispatches_in_due_then_submission_order(
            self, monkeypatch):
        """Completions reach their sessions in ``(due, seq)`` order.

        Jitter-free service times make completions tie on ``due``, so
        the submission-order tie-break is exercised, not just the heap.
        """
        datasets = [load_dataset("S12CP", scale=0.02, rng=100 + i)
                    for i in range(3)]
        pool = AnnotatorPool.build(datasets[0].n_classes, 3, 2, rng=7)
        latency = LatencyModel.for_pool(pool, worker_latency=1.0,
                                        jitter=0.0, rng=0)
        engine = ServeEngine(pool, latency=latency, max_active=3)
        for i, dataset in enumerate(datasets):
            engine.add_project(
                f"proj{i}", dataset, CrowdRL(CrowdRLConfig(), rng=200 + i),
                budget=80.0, seed=i,
            )
        delivered = []
        deliver = LabellingSession.deliver

        def recording_deliver(session, pending):
            delivered.append((pending.due, pending.seq))
            deliver(session, pending)

        monkeypatch.setattr(LabellingSession, "deliver", recording_deliver)
        engine.run()
        assert delivered == sorted(delivered)
        assert len({due for due, _ in delivered}) < len(delivered)

    def test_eight_sessions_share_one_pool(self, tmp_path):
        """The acceptance criterion: 8 concurrent projects, exact books."""
        engine = build_engine(8, metrics_dir=tmp_path, max_active=3)
        report = engine.run()
        assert len(report.results) == 8
        assert report.peak_active == 3
        assert report.makespan > 0.0
        # Lease grants account for every submitted answer, per session.
        for result in report.results:
            assert report.grant_counts[result.name] > 0
        for i, result in enumerate(report.results):
            assert result.name == f"proj{i}"
            # Per-session metrics stream: budget attribution reconciles
            # EXACTLY against the spent gauge — no cross-session leakage.
            summary = load_summary(tmp_path / f"proj{i}.jsonl")
            attributed = sum(budget_by_phase(summary["counters"]).values())
            assert attributed == summary["gauges"]["budget.spent"]
            assert summary["gauges"]["budget.spent"] == result.outcome.spent
            assert summary["gauges"]["iterations"] == \
                result.outcome.iterations
            assert summary["counters"]["serve.completed"] == \
                summary["counters"]["serve.submitted"]

    def test_engine_runs_are_deterministic(self):
        first = build_engine(3, max_active=2).run()
        second = build_engine(3, max_active=2).run()
        assert first.makespan == second.makespan
        assert first.grant_counts == second.grant_counts
        for a, b in zip(first.results, second.results):
            assert a.report == b.report
            assert a.outcome.spent == b.outcome.spent
            assert a.finished_at == b.finished_at
            assert np.array_equal(a.outcome.final_labels,
                                  b.outcome.final_labels)

    def test_admission_cap_respected(self):
        report = build_engine(5, max_active=2).run()
        assert report.peak_active == 2
        assert len(report.results) == 5

    def test_engine_report_renders(self):
        report = build_engine(2).run()
        text = report.render()
        assert "proj0" in text and "proj1" in text
        assert "virtual makespan" in text

    def test_guards(self, tmp_path):
        with pytest.raises(ConfigurationError):
            build_engine(2, max_active=0)
        engine = build_engine(2)
        with pytest.raises(ConfigurationError):  # duplicate name
            dataset = load_dataset("S12CP", scale=0.02, rng=100)
            engine.add_project("proj0", dataset,
                               CrowdRL(CrowdRLConfig(), rng=0), budget=10.0)
        engine.run()
        with pytest.raises(ConfigurationError):  # run() is once-only
            engine.run()
        with pytest.raises(ConfigurationError):  # no adding after run
            dataset = load_dataset("S12CP", scale=0.02, rng=100)
            engine.add_project("late", dataset,
                               CrowdRL(CrowdRLConfig(), rng=0), budget=10.0)
        with pytest.raises(ConfigurationError):  # nothing to run
            ServeEngine(build_pool()).run()
