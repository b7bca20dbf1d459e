"""Observability layer: registry, phase timers, event log, report CLI."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    ExperimentSetting,
    ExperimentSpec,
    clear_pretrained_policies,
    run_experiment,
)
from repro.obs import (
    NULL_REGISTRY,
    CountingClock,
    Histogram,
    JsonlEventLog,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    load_summary,
    phase_timer,
    read_events,
    render_report,
    set_registry,
    summarize_snapshot,
    use_registry,
)
from repro.obs.__main__ import main as obs_main


@pytest.fixture(autouse=True)
def _isolate_registry():
    """Every test starts and ends with the disabled registry active."""
    previous = set_registry(None)
    yield
    set_registry(previous)


class TestRegistryBasics:
    def test_counters_gauges(self):
        reg = MetricsRegistry()
        reg.inc("answers")
        reg.inc("answers", 2.5)
        reg.set_gauge("budget.spent", 7.0)
        reg.set_gauge("budget.spent", 9.0)
        assert reg.counter_value("answers") == 3.5
        assert reg.counter_value("never_touched") == 0.0
        assert reg.snapshot()["gauges"] == {"budget.spent": 9.0}

    def test_counters_reject_negative_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.inc("x", -1.0)

    def test_histogram_bucketing(self):
        h = Histogram(edges=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        d = h.to_dict()
        assert d["counts"] == [2, 1, 1]  # <=1, <=10, overflow
        assert d["total"] == 4
        assert d["min"] == 0.5 and d["max"] == 100.0

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram(edges=())
        with pytest.raises(ConfigurationError):
            Histogram(edges=(2.0, 1.0))

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.inc(name)
        assert list(reg.snapshot()["counters"]) == ["alpha", "mid", "zeta"]


class TestPhaseTimer:
    def test_counting_clock_makes_timings_deterministic(self):
        def record(reg):
            with use_registry(reg):
                for _ in range(3):
                    with phase_timer("work"):
                        pass
            return reg.snapshot()

        a = record(MetricsRegistry(clock=CountingClock(step=0.01)))
        b = record(MetricsRegistry(clock=CountingClock(step=0.01)))
        assert a == b
        assert a["phases"]["work"]["calls"] == 3
        assert a["phases"]["work"]["total_s"] == pytest.approx(0.03)

    def test_nested_phases_record_self_time(self):
        # CountingClock: each reading advances 1 s, so an empty phase
        # spans 1 s and a parent spans its children plus 1 s per reading.
        reg = MetricsRegistry(clock=CountingClock(step=1.0))
        with use_registry(reg):
            with phase_timer("infer"):          # reads at t=1 and t=8
                with phase_timer("infer.m_step"):   # t=2 .. t=3
                    pass
                with phase_timer("infer.e_step"):   # t=4 .. t=7
                    with phase_timer("inner"):      # t=5 .. t=6
                        pass
            with phase_timer("dqn_train"):      # t=9 .. t=10
                pass
        phases = reg.snapshot()["phases"]
        assert phases["infer"]["total_s"] == 7.0
        assert phases["infer"]["self_s"] == 3.0
        assert phases["infer.e_step"]["total_s"] == 3.0
        assert phases["infer.e_step"]["self_s"] == 2.0
        assert phases["infer.m_step"]["self_s"] == 1.0
        assert phases["inner"]["self_s"] == 1.0
        assert phases["dqn_train"]["self_s"] == 1.0
        # Self times add up to the top-level phases' inclusive time.
        assert sum(p["self_s"] for p in phases.values()) == 8.0

    def test_report_time_share_uses_self_time(self, tmp_path):
        path = tmp_path / "nested.jsonl"
        log = JsonlEventLog(path)
        reg = MetricsRegistry(clock=CountingClock(step=1.0), events=log)
        with use_registry(reg):
            with phase_timer("infer"):
                with phase_timer("infer.refit"):
                    pass
        log.flush()
        summary = load_summary(path)  # raw phase events, no snapshot
        assert summary["phases"]["infer"] == {
            "calls": 1, "total_s": 3.0, "self_s": 2.0,
        }
        from_snapshot = summarize_snapshot(reg.snapshot())
        assert from_snapshot["phases"] == summary["phases"]
        shares = {
            line.split()[0]: float(line.split()[5].rstrip("%"))
            for line in render_report(summary).splitlines()
            if line.startswith("infer")
        }
        assert shares == {"infer": pytest.approx(66.7),
                          "infer.refit": pytest.approx(33.3)}

    def test_decorator_form_resolves_registry_per_call(self):
        @phase_timer("fn")
        def fn():
            return 42

        assert fn() == 42  # under NULL_REGISTRY: no recording
        reg = MetricsRegistry(clock=CountingClock())
        with use_registry(reg):
            assert fn() == 42
        assert reg.snapshot()["phases"]["fn"]["calls"] == 1

    def test_exception_still_counts_the_call(self):
        reg = MetricsRegistry(clock=CountingClock())
        with use_registry(reg):
            with pytest.raises(ValueError):
                with phase_timer("boom"):
                    raise ValueError("x")
        assert reg.snapshot()["phases"]["boom"]["calls"] == 1

    def test_null_registry_never_reads_the_clock(self):
        class ExplodingClock:
            def __call__(self):
                raise AssertionError("clock read under NULL_REGISTRY")

        assert get_registry() is NULL_REGISTRY
        with phase_timer("free"):
            pass  # would explode if the timer touched any clock
        # NullRegistry discards everything.
        NULL_REGISTRY.inc("x", 5)
        NULL_REGISTRY.record_phase("x", 1.0)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "phases": {},
        }

    def test_use_registry_restores_previous(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
        assert isinstance(get_registry(), NullRegistry)


class TestEventLog:
    def test_emit_flush_read_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonlEventLog(path, flush_every=0)
        log.emit("phase", name="infer", elapsed_s=np.float64(0.5))
        log.emit("snapshot", metrics={"counters": {"n": np.int64(3)}})
        log.close()
        events = read_events(path)
        assert [e["kind"] for e in events] == ["phase", "snapshot"]
        assert [e["seq"] for e in events] == [0, 1]
        # numpy scalars were converted eagerly to JSON natives.
        assert events[0]["elapsed_s"] == 0.5
        assert events[1]["metrics"]["counters"]["n"] == 3
        assert read_events(path, kind="phase") == [events[0]]

    def test_auto_flush_threshold(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        log = JsonlEventLog(path, flush_every=2)
        log.emit("a")
        assert not path.exists()
        log.emit("b")
        assert len(read_events(path)) == 2

    def test_flush_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "atomic.jsonl"
        log = JsonlEventLog(path)
        log.emit("only")
        log.flush()
        assert list(tmp_path.iterdir()) == [path]

    def test_reader_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_events(tmp_path / "missing.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "ok"}\n{torn line\n')
        with pytest.raises(ConfigurationError):
            read_events(bad)


class TestRunIntegration:
    SETTING = ExperimentSetting("S12CP", scale=0.02, seed=0)

    def test_same_seed_runs_produce_identical_snapshots(self):
        def snap():
            reg = MetricsRegistry(clock=CountingClock(step=0.001))
            run_experiment("CrowdRL", self.SETTING,
                           ExperimentSpec(metrics=reg), pretrain=False)
            return reg.snapshot()

        assert snap() == snap()

    def test_metrics_on_matches_metrics_off_bitwise(self):
        plain = run_experiment("CrowdRL", self.SETTING, pretrain=False)
        metered = run_experiment("CrowdRL", self.SETTING,
                                 ExperimentSpec(metrics=True), pretrain=False)
        assert plain.metrics is None
        assert metered.metrics is not None
        assert metered.report == plain.report
        assert np.array_equal(metered.outcome.final_labels,
                              plain.outcome.final_labels)
        assert metered.outcome.spent == plain.outcome.spent

    def test_budget_attribution_covers_all_spend(self):
        result = run_experiment("CrowdRL", self.SETTING,
                                ExperimentSpec(metrics=True), pretrain=False)
        counters = result.metrics["counters"]
        attributed = sum(v for k, v in counters.items()
                         if k.startswith("budget."))
        assert attributed == pytest.approx(result.outcome.spent)
        assert result.metrics["gauges"]["budget.spent"] == result.outcome.spent

    def test_pretrain_spend_split_from_evaluation_books(self):
        # Offline cross-training (paper §VI-A4) collects on its own
        # training platforms but lands in the same budget.* counters;
        # the budget.pretrain gauge must reconcile the books exactly.
        clear_pretrained_policies()
        result = run_experiment("CrowdRL", self.SETTING,
                                ExperimentSpec(metrics=True))
        counters = result.metrics["counters"]
        gauges = result.metrics["gauges"]
        attributed = sum(v for k, v in counters.items()
                         if k.startswith("budget."))
        assert gauges["budget.pretrain"] > 0.0
        assert (attributed - gauges["budget.pretrain"]
                == pytest.approx(result.outcome.spent))
        text = render_report(summarize_snapshot(result.metrics))
        assert "offline pretraining" in text

    def test_instrumented_phases_present(self):
        result = run_experiment("CrowdRL", self.SETTING,
                                ExperimentSpec(metrics=True), pretrain=False)
        phases = set(result.metrics["phases"])
        assert {"featurize", "q_forward", "select", "collect", "infer",
                "enrich", "initial_sample", "dqn_train"} <= phases

    def test_metrics_out_report_cli(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        run_experiment("CrowdRL", self.SETTING,
                       ExperimentSpec(metrics_out=path), pretrain=False)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "infer" in out and "budget:" in out
        assert obs_main(["report", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {k: load_summary(path)[k] for k in summary}

    def test_report_cli_missing_file(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_render_report_from_snapshot(self):
        result = run_experiment("CrowdRL", self.SETTING,
                                ExperimentSpec(metrics=True), pretrain=False)
        text = render_report(summarize_snapshot(result.metrics))
        assert "collect" in text and "budget:" in text

    def test_repro_metrics_env_switches_collection_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        result = run_experiment("DLTA", self.SETTING, pretrain=False)
        assert result.metrics is not None
        monkeypatch.setenv("REPRO_METRICS", "0")
        result = run_experiment("DLTA", self.SETTING, pretrain=False)
        assert result.metrics is None
