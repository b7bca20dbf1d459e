"""Tests for the fault-tolerant sharded experiment engine.

The fast tests pin the engine's determinism contract (per-shard spawn
streams, index-order merge, journal resume) without spawning processes.
The ``chaos``-marked tests inject real faults: a worker SIGKILLed
mid-shard, a worker frozen mid-shard (SIGSTOP, so heartbeats stop while
the process stays alive), a worker that dies on every attempt (the
degradation ladder's bottom rung), and a whole sweep SIGKILLed from the
outside and resumed from its journal.  In every case the merged output
must be bit-identical to an undisturbed serial run.

Task functions live at module level because the spawn start method
pickles them by reference (REPRO015).  Fault tasks must only misbehave
inside *worker* processes — never in the pytest process, and never in
the engine's in-process degradation rung — so they compare their pid to
``REPRO_TEST_SWEEP_MAIN_PID``, which each test sets to its own pid.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ShardError
from repro.harness.parallel import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    ShardedRunner,
    SweepOptions,
    _backoff_delay,
    run_sharded,
)
from repro.obs import make_registry, use_registry
from repro.utils.rng import spawn_rng_at

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

SRC = Path(__file__).parents[1] / "src"
TESTS = Path(__file__).parent


def _in_worker() -> bool:
    """True inside a spawn worker (not the pytest/driver main process)."""
    main_pid = os.environ.get("REPRO_TEST_SWEEP_MAIN_PID")
    return main_pid is not None and os.getpid() != int(main_pid)


# ----------------------------------------------------------------------
# Module-level task functions (spawn pickles them by reference)
# ----------------------------------------------------------------------
def draw_task(payload, ctx):
    """The canonical deterministic shard: draws from the engine stream."""
    return {
        "index": ctx.index,
        "scaled": payload["scale"] * float(ctx.rng.random()),
    }


def journalling_task(payload, ctx):
    """Leaves a per-attempt marker in the shard journal, then draws."""
    if ctx.journal_dir is not None:
        marker = ctx.journal_dir / f"attempt-{ctx.attempt}.marker"
        marker.write_text(str(ctx.resuming))
    return {"draw": float(ctx.rng.random())}


def metrics_task(payload, ctx):
    """Writes one obs-style event line into the shard's metrics dir."""
    if ctx.metrics_dir is not None:
        log = ctx.metrics_dir / "metrics-00.jsonl"
        log.write_text(json.dumps({"shard": ctx.index}) + "\n")
    return ctx.index


def raising_task(payload, ctx):
    """Deterministic failure: must surface, never retry."""
    if payload.get("boom"):
        raise ValueError(f"shard {ctx.index} is broken")
    return float(ctx.rng.random())


def slow_draw_task(payload, ctx):
    """Slow enough that an external SIGKILL lands mid-sweep."""
    time.sleep(payload["sleep"])
    return {"index": ctx.index, "draw": float(ctx.rng.random())}


def crash_once_task(payload, ctx):
    """SIGKILLs its worker on the first attempt at the chosen shard."""
    if ctx.index == payload["victim"] and ctx.attempt == 0 and _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return {"index": ctx.index, "draw": float(ctx.rng.random()),
            "attempt": ctx.attempt}


def freeze_once_task(payload, ctx):
    """SIGSTOPs its worker: alive but silent, so heartbeats stop."""
    if ctx.index == payload["victim"] and ctx.attempt == 0 and _in_worker():
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"index": ctx.index, "draw": float(ctx.rng.random())}


def crash_always_task(payload, ctx):
    """Dies in every worker attempt; only completes in-process."""
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return {"index": ctx.index, "draw": float(ctx.rng.random())}


def expected_draws(seed, n):
    """What the engine's per-shard streams yield, shard by shard."""
    return [float(spawn_rng_at(seed, i).random()) for i in range(n)]


# ----------------------------------------------------------------------
# Options and backoff (no processes involved)
# ----------------------------------------------------------------------
class TestSweepOptions:
    @pytest.mark.parametrize("overrides", [
        {"parallel": 0},
        {"shard_timeout": 0.0},
        {"shard_retries": -1},
        {"resume": True},                  # without journal_dir
        {"metrics": True},                 # without journal_dir
    ])
    def test_invalid_options_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            SweepOptions(**overrides)

    def test_coerce_accepts_counts_none_and_options(self):
        assert SweepOptions.coerce(None) == SweepOptions()
        assert SweepOptions.coerce(3).parallel == 3
        options = SweepOptions(parallel=2, seed=9)
        assert SweepOptions.coerce(options) is options

    def test_backoff_is_seeded_bounded_and_growing(self):
        options = SweepOptions(seed=5)
        first = _backoff_delay(options, index=3, attempt=1)
        assert first == _backoff_delay(options, index=3, attempt=1)
        assert first != _backoff_delay(options, index=4, attempt=1)
        for attempt in range(1, 12):
            delay = _backoff_delay(options, 3, attempt)
            base = min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** (attempt - 1))
            assert base * 0.5 <= delay <= base * 1.5


# ----------------------------------------------------------------------
# Serial path: determinism, ordering, journal, metrics
# ----------------------------------------------------------------------
class TestSerialEngine:
    def test_streams_are_spawn_children_in_index_order(self):
        payloads = [{"scale": 2.0}] * 4
        outcomes = run_sharded(draw_task, payloads,
                               tags=[f"t{i}" for i in range(4)],
                               options=SweepOptions(seed=CHAOS_SEED + 13))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.tag for o in outcomes] == ["t0", "t1", "t2", "t3"]
        draws = expected_draws(CHAOS_SEED + 13, 4)
        assert [o.value["scaled"] for o in outcomes] == [
            2.0 * d for d in draws
        ]
        assert all(o.worker == "serial" and o.attempts == 1
                   for o in outcomes)

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sharded(draw_task, [{"scale": 1.0}], tags=["a", "b"])

    def test_counters_track_shard_lifecycle(self):
        with use_registry(make_registry()) as registry:
            run_sharded(draw_task, [{"scale": 1.0}] * 3)
            assert registry.counter_value("shards.launched") == 3
            assert registry.counter_value("shards.completed") == 3
            assert registry.counter_value("shards.retried") == 0
            assert registry.snapshot()["gauges"]["shard.2.wall_s"] >= 0.0

    def test_journal_resume_loads_instead_of_recomputing(self, tmp_path):
        journal = tmp_path / "sweep"
        payloads = [{}] * 3
        options = SweepOptions(seed=3, journal_dir=journal)
        first = run_sharded(journalling_task, payloads, options=options)
        with use_registry(make_registry()) as registry:
            second = run_sharded(
                journalling_task, payloads,
                options=SweepOptions(seed=3, journal_dir=journal,
                                     resume=True),
            )
            assert registry.counter_value("shards.resumed") == 3
            assert registry.counter_value("shards.launched") == 0
        assert [o.value for o in second] == [o.value for o in first]
        assert all(o.resumed for o in second)
        # Only the original execution's attempt markers exist: nothing re-ran.
        for i in range(3):
            markers = sorted((journal / f"shard-{i:04d}").glob("*.marker"))
            assert [m.name for m in markers] == ["attempt-0.marker"]

    def test_rerun_without_resume_clears_journal_and_recomputes(
            self, tmp_path):
        journal = tmp_path / "sweep"
        options = SweepOptions(seed=3, journal_dir=journal)
        first = run_sharded(journalling_task, [{}] * 2, options=options)
        second = run_sharded(journalling_task, [{}] * 2, options=options)
        assert [o.value for o in second] == [o.value for o in first]
        assert not any(o.resumed for o in second)

    def test_journal_of_different_sweep_rejected(self, tmp_path):
        journal = tmp_path / "sweep"
        options = SweepOptions(seed=3, journal_dir=journal)
        run_sharded(journalling_task, [{}] * 2, options=options)
        with pytest.raises(ShardError, match="different sweep"):
            run_sharded(journalling_task, [{"other": 1}] * 2,
                        options=options)

    def test_resume_without_manifest_rejected(self, tmp_path):
        with pytest.raises(ShardError, match="nothing to resume"):
            run_sharded(
                journalling_task, [{}],
                options=SweepOptions(journal_dir=tmp_path / "missing",
                                     resume=True),
            )

    def test_metrics_merged_in_shard_index_order(self, tmp_path):
        journal = tmp_path / "sweep"
        run_sharded(
            metrics_task, [{}] * 4,
            options=SweepOptions(journal_dir=journal, metrics=True),
        )
        lines = (journal / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["shard"] for line in lines] == [0, 1, 2, 3]

    def test_task_exception_propagates_serially(self):
        with pytest.raises(ValueError, match="shard 1 is broken"):
            run_sharded(raising_task, [{}, {"boom": True}])


# ----------------------------------------------------------------------
# Worker pool: bit-identity and fault injection
# ----------------------------------------------------------------------
def pool_options(tmp_path=None, **overrides):
    kwargs = {
        "parallel": 2,
        "seed": CHAOS_SEED + 29,
        "shard_timeout": 60.0,
    }
    if tmp_path is not None:
        kwargs["journal_dir"] = tmp_path / "sweep"
    kwargs.update(overrides)
    return SweepOptions(**kwargs)


@pytest.fixture
def main_pid_env(monkeypatch):
    """Let fault tasks distinguish worker processes from this one."""
    monkeypatch.setenv("REPRO_TEST_SWEEP_MAIN_PID", str(os.getpid()))


class TestWorkerPool:
    def test_parallel_matches_serial_bit_identical(self):
        payloads = [{"scale": 3.0}] * 5
        serial = run_sharded(draw_task, payloads,
                             options=SweepOptions(seed=CHAOS_SEED + 29))
        parallel = run_sharded(draw_task, payloads,
                               options=pool_options(parallel=3))
        assert [o.value for o in parallel] == [o.value for o in serial]
        assert [o.index for o in parallel] == [0, 1, 2, 3, 4]
        assert all(o.worker.startswith("worker-") for o in parallel)

    def test_task_exception_is_shard_error_not_retried(self):
        with use_registry(make_registry()) as registry:
            with pytest.raises(ShardError) as err:
                run_sharded(raising_task, [{}, {"boom": True}, {}],
                            options=pool_options())
            assert registry.counter_value("shards.retried") == 0
        assert "ValueError" in str(err.value)
        assert "worker traceback" in str(err.value)
        assert "shard 1 is broken" in str(err.value)


@pytest.mark.chaos
class TestChaos:
    def test_sigkilled_worker_is_retried_bit_identical(self, main_pid_env):
        payloads = [{"victim": 1}] * 3
        with use_registry(make_registry()) as registry:
            outcomes = run_sharded(crash_once_task, payloads,
                                   options=pool_options())
            assert registry.counter_value("shards.retried") == 1
            assert registry.counter_value("shards.degraded") == 0
        draws = expected_draws(CHAOS_SEED + 29, 3)
        assert [o.value["draw"] for o in outcomes] == draws
        victim = outcomes[1]
        assert victim.attempts == 2
        assert victim.value["attempt"] == 1

    def test_frozen_worker_is_reaped_and_retried(self, main_pid_env):
        # The timeout must comfortably exceed spawn start-up on a loaded
        # machine, or healthy-but-slow workers get reaped too; the frozen
        # one is guaranteed to trip it because SIGSTOP silences its beats
        # forever.  Under heavy contention spurious reaps may add extra
        # attempts or degrade to serial — either way the draws must hold.
        payloads = [{"victim": 0}] * 3
        outcomes = run_sharded(
            freeze_once_task, payloads,
            options=pool_options(shard_timeout=4.0),
        )
        draws = expected_draws(CHAOS_SEED + 29, 3)
        assert [o.value["draw"] for o in outcomes] == draws
        assert outcomes[0].attempts >= 2

    def test_always_crashing_workers_degrade_to_serial(self, main_pid_env):
        payloads = [{}] * 3
        with use_registry(make_registry()) as registry:
            outcomes = run_sharded(
                crash_always_task, payloads,
                options=pool_options(shard_retries=1),
            )
            assert registry.counter_value("shards.degraded") >= 1
        draws = expected_draws(CHAOS_SEED + 29, 3)
        assert [o.value["draw"] for o in outcomes] == draws
        assert any(o.worker == "degraded" for o in outcomes)

    def test_sigkilled_sweep_resumes_bit_identical(self, tmp_path):
        """Kill the whole sweep process mid-flight; resume must converge."""
        n = 8
        journal = tmp_path / "sweep"
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            f"sys.path.insert(0, {str(TESTS)!r})\n"
            "from test_harness_parallel import slow_draw_task\n"
            "from repro.harness.parallel import SweepOptions, run_sharded\n"
            f"payloads = [{{'sleep': 0.5}}] * {n}\n"
            "options = SweepOptions(parallel=2, seed=17, shard_timeout=60.0,\n"
            f"                       journal_dir={str(journal)!r},\n"
            "                       resume=sys.argv[1] == 'resume')\n"
            "outcomes = run_sharded(slow_draw_task, payloads, options=options)\n"
            "print(json.dumps({'draws': [o.value['draw'] for o in outcomes],\n"
            "                  'resumed': [o.resumed for o in outcomes]}))\n"
        )

        def n_results():
            return len(list(journal.glob("shard-*/result.json")))

        sweep = subprocess.Popen(
            [sys.executable, str(driver), "fresh"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if sweep.poll() is not None or n_results() >= 1:
                    break
                time.sleep(0.05)
            assert sweep.poll() is None, (
                f"sweep exited before the kill: {sweep.stderr.read()!r}"
            )
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait(timeout=30.0)
        finally:
            if sweep.poll() is None:
                os.killpg(sweep.pid, signal.SIGKILL)
        killed_with = n_results()
        assert 1 <= killed_with < n, f"kill not mid-flight: {killed_with}/{n}"

        resumed = subprocess.run(
            [sys.executable, str(driver), "resume"],
            capture_output=True, text=True, timeout=300.0,
        )
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout.splitlines()[-1])
        assert payload["draws"] == expected_draws(17, n)
        assert sum(payload["resumed"]) >= killed_with
