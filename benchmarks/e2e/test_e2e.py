"""Checks of the end-to-end benchmark itself: ``pytest benchmarks/e2e -q``.

One ``--quick --trace`` run of every workload (one unit each, well under
a minute) feeds the tests below.
"""

from __future__ import annotations

import json
import os
import runpy
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--trace", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        return {"path": str(out), "last": last, "data": json.load(fh)}


def test_every_declared_metric_is_reported_with_its_unit(quick):
    for name in WORKLOADS:
        record = quick["data"]["workloads"][name]
        for kind in ("end_to_end", "per_layer"):
            for metric in SPEC[kind]:
                entry = record[kind][metric["name"]]
                assert entry["unit"] == metric["unit"], (name, metric)
                assert isinstance(entry["value"], float), (name, metric)


def test_runs_are_correct(quick):
    assert quick["last"]["correct"], quick["data"]
    assert quick["last"]["failed"] == 0
    for name in WORKLOADS:
        record = quick["data"]["workloads"][name]
        assert record["correct"] and not record["failures"], name
        assert record["end_to_end"]["error_rate"]["value"] == 0.0


def test_trace_self_times_reconcile_with_the_root(quick):
    for name in WORKLOADS:
        layers = quick["data"]["workloads"][name]["per_layer"]
        assert layers["trace.reconcile_error"]["value"] < 0.01, name
        assert layers["trace.root_s"]["value"] > 0.0, name


def test_hooks_are_result_neutral(quick):
    # With one unit per run, the untraced and the traced run label the
    # same inputs, so their digests must agree.
    for name in WORKLOADS:
        info = quick["data"]["workloads"][name]["info"]
        assert info["measure"]["labels_digest"] == (
            info["trace"]["labels_digest"]), name


def test_sweep_workers_can_reimport_the_entry_point(capsys):
    # Spawn runs the parent's main module again under this name; without
    # the __main__ guard that would start a benchmark inside every worker.
    runpy.run_path(RUN, run_name="__mp_main__")
    assert capsys.readouterr().out == ""


def test_sweep_reports_its_pooled_run(quick):
    layers = quick["data"]["workloads"]["sweep"]["per_layer"]
    assert layers["harness.shard_attempts"]["value"] == 2.0  # no retries
    assert layers["harness.shard_s"]["value"] > 0.0
    assert 0.0 < layers["harness.parallel_efficiency"]["value"] <= 1.0


def test_compare_finds_no_change_between_identical_runs(quick):
    proc = subprocess.run(
        [sys.executable, COMPARE, quick["path"], quick["path"]],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout
    assert "improved" not in proc.stdout


def test_compare_flags_a_regression_beyond_the_bound():
    from compare import classify

    assert classify([1.0] * 10, [1.5] * 10, "lower", 0.2)["status"] == (
        "regressed")
    assert classify([1.0] * 10, [0.5] * 10, "lower", 0.2)["status"] == (
        "improved")
    assert classify([1.0, 2.0, 3.0], [2.0, 2.1, 1.9], "lower", 0.2)[
        "status"] == "unresolved"


def test_compare_flags_failures_in_a_minority_of_runs():
    from compare import classify_errors

    parent = [(0, 8)] * 10
    # Four of ten change runs fail one session: the median run is clean.
    change = [(1, 8)] * 4 + [(0, 8)] * 6
    assert classify_errors(parent, change)["status"] == "regressed"
    assert classify_errors(change, parent)["status"] == "improved"
    assert classify_errors(parent, parent)["status"] == "unchanged"


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ratchet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
