"""Per-phase perf-ratchet machinery: minima, baseline I/O, comparison, CLI."""

import json

import pytest

from repro.exceptions import ReproError
from repro.obs.__main__ import main as obs_main
from repro.obs.baseline import (
    FLOOR_S,
    PHASE_BASELINE_MAP,
    compare_to_baseline,
    load_baseline,
    merge_minima,
    phase_minima,
    recorded_calibration,
    write_baseline,
)


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def phase_event(name, elapsed_s):
    return {"kind": "phase", "name": name, "elapsed_s": elapsed_s}


@pytest.fixture
def metrics_path(tmp_path):
    path = tmp_path / "metrics.jsonl"
    write_events(path, [
        phase_event("featurize", 2e-3),
        phase_event("featurize", 1e-3),
        phase_event("infer.e_step", 5e-3),
        phase_event("infer.refit", 9e-3),
        phase_event("retrain", 4e-3),           # not a ratcheted phase
        {"kind": "counter", "name": "budget.collect", "value": 1},
    ])
    return path


class TestPhaseMinima:
    def test_min_over_calls_and_jsonl_name_mapping(self, metrics_path):
        minima = phase_minima(metrics_path)
        assert minima["featurize"] == {"min_s": 1e-3, "calls": 2}
        # infer.e_step in the JSONL surfaces under the ratchet name e_step.
        assert minima["e_step"] == {"min_s": 5e-3, "calls": 1}
        assert minima["refit"] == {"min_s": 9e-3, "calls": 1}
        assert "retrain" not in minima and "infer.refit" not in minima

    def test_merge_takes_min_across_runs(self):
        merged = merge_minima([
            {"featurize": {"min_s": 2e-3, "calls": 3}},
            {"featurize": {"min_s": 1e-3, "calls": 4},
             "select": {"min_s": 7e-3, "calls": 1}},
        ])
        assert merged["featurize"] == {"min_s": 1e-3, "calls": 7}
        assert merged["select"]["calls"] == 1


class TestBaselineRoundtrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, {"featurize": {"min_s": 1e-3, "calls": 2}},
                       calibration_s=1e-4, note="test")
        doc = load_baseline(path)
        assert doc["calibration_s"] == 1e-4
        assert doc["phases"]["featurize"]["min_s"] == 1e-3

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"machine_info": {}}')
        with pytest.raises(ReproError):
            load_baseline(path)


def make_baseline(tmp_path, min_s=1e-3, calibration_s=1e-4):
    path = tmp_path / "baseline.json"
    write_baseline(path, {"featurize": {"min_s": min_s, "calls": 2}},
                   calibration_s=calibration_s)
    return load_baseline(path)


class TestComparison:
    def test_same_normalised_time_passes(self, tmp_path):
        baseline = make_baseline(tmp_path)
        # Twice as slow in wall time, but on a machine whose calibration
        # is twice as slow too: the normalised ratio is 1.0.
        (res,) = compare_to_baseline(
            {"featurize": {"min_s": 2e-3, "calls": 2}}, 2e-4, baseline
        )
        assert res.ratio == pytest.approx(1.0)
        assert not res.regressed

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        baseline = make_baseline(tmp_path)
        (res,) = compare_to_baseline(
            {"featurize": {"min_s": 1.5e-3, "calls": 2}}, 1e-4, baseline
        )
        assert res.regressed and res.ratio == pytest.approx(1.5)

    def test_floor_absorbs_noise_under_it(self, tmp_path):
        # Both sides below FLOOR_S: clamped equal, never a regression.
        baseline = make_baseline(tmp_path, min_s=FLOOR_S / 10)
        (res,) = compare_to_baseline(
            {"featurize": {"min_s": FLOOR_S / 2, "calls": 2}}, 1e-4, baseline
        )
        assert res.ratio == pytest.approx(1.0) and not res.regressed

    def test_floor_is_applied_after_normalising(self, tmp_path):
        # A sub-floor phase whose min_s did not move, measured on a host
        # that calibrates 30% faster: the floor is the baseline's
        # floor_s / calibration_s on both sides, so this stays ok.
        sub_floor = FLOOR_S / 8
        baseline = make_baseline(tmp_path, min_s=sub_floor)
        faster = 0.7 * baseline["calibration_s"]
        (res,) = compare_to_baseline(
            {"featurize": {"min_s": sub_floor, "calls": 2}}, faster, baseline
        )
        assert res.ratio == pytest.approx(1.0) and not res.regressed
        # Normalised, this minimum is twice the floor: a real regression.
        slow = 2 * FLOOR_S / baseline["calibration_s"] * faster
        (res,) = compare_to_baseline(
            {"featurize": {"min_s": slow, "calls": 2}}, faster, baseline
        )
        assert res.ratio == pytest.approx(2.0) and res.regressed

    def test_missing_phase_is_a_failure(self, tmp_path):
        baseline = make_baseline(tmp_path)
        (res,) = compare_to_baseline({}, 1e-4, baseline)
        assert res.missing and res.regressed

    def test_bad_tolerance_rejected(self, tmp_path):
        baseline = make_baseline(tmp_path)
        with pytest.raises(ReproError):
            compare_to_baseline({}, 1e-4, baseline, tolerance=1.0)

    def test_map_covers_the_ratcheted_phases(self):
        assert sorted(PHASE_BASELINE_MAP) == [
            "collect", "dqn_train", "e_step", "enrich", "featurize",
            "infer", "m_step", "q_forward", "refit", "select",
        ]


class TestCli:
    def test_write_then_compare_roundtrip(self, tmp_path, metrics_path,
                                          capsys, monkeypatch):
        # Pin the calibration so both calls see the same machine speed;
        # two live calibrate() runs can drift past the tolerance on a
        # loaded host.
        monkeypatch.setattr("repro.obs.__main__.calibrate", lambda: 1e-3)
        baseline = tmp_path / "baseline.json"
        assert obs_main([
            "report", str(metrics_path),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        # Same log ratchets clean against the baseline it just wrote
        # (identical minima, identical calibration).
        assert obs_main([
            "report", str(metrics_path), "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "perf ratchet ok" in out

    def test_regression_exits_nonzero(self, tmp_path, metrics_path):
        baseline = tmp_path / "baseline.json"
        assert obs_main([
            "report", str(metrics_path),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        slow = tmp_path / "slow.jsonl"
        write_events(slow, [
            phase_event("featurize", 10e-3),
            phase_event("infer.e_step", 50e-3),
        ])
        assert obs_main([
            "report", str(slow), "--baseline", str(baseline),
        ]) == 1

    def test_missing_baseline_file_is_an_error(self, metrics_path, tmp_path):
        assert obs_main([
            "report", str(metrics_path),
            "--baseline", str(tmp_path / "nope.json"),
        ]) == 2

    def test_normalises_by_the_calibration_recorded_in_the_run(
            self, tmp_path, metrics_path, monkeypatch):
        with open(metrics_path, "a", encoding="utf-8") as fh:
            for calibration_s in (3e-4, 1e-4, 2e-4):
                fh.write(json.dumps({"kind": "calibration",
                                     "calibration_s": calibration_s}) + "\n")

        def no_live_calibration():
            raise AssertionError("the run recorded its calibration")

        monkeypatch.setattr("repro.obs.__main__.calibrate",
                            no_live_calibration)
        baseline = tmp_path / "baseline.json"
        assert obs_main([
            "report", str(metrics_path),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert load_baseline(baseline)["calibration_s"] == 2e-4
        assert obs_main([
            "report", str(metrics_path), "--baseline", str(baseline),
        ]) == 0

    def test_times_the_kernel_when_the_run_recorded_none(
            self, tmp_path, metrics_path, monkeypatch):
        assert recorded_calibration(metrics_path) is None
        monkeypatch.setattr("repro.obs.__main__.calibrate", lambda: 5e-4)
        baseline = tmp_path / "baseline.json"
        assert obs_main([
            "report", str(metrics_path),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert load_baseline(baseline)["calibration_s"] == 5e-4

    def test_plain_report_still_works(self, metrics_path, capsys):
        assert obs_main(["report", str(metrics_path)]) == 0
        assert "featurize" in capsys.readouterr().out
