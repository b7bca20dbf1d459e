"""Fault-tolerant sharded experiment engine.

:class:`ShardedRunner` fans a sweep's shards — one JSON-safe payload per
(seed, setting) point — out over ``multiprocessing`` *spawn* workers and
merges the per-shard results back **in shard-index order**, so the merged
output never depends on scheduling.  The engine's contract:

* **Per-shard determinism.**  A shard's result is a function of its
  payload and its shard index only.  Each shard's RNG stream is the
  ``Generator.spawn`` child at its index (:func:`repro.utils.rng.spawn_rng_at`),
  rebuilt inside whichever worker — or retry attempt — executes it, so
  serial (``parallel=1``), parallel, retried and resumed executions of the
  same shard are bit-identical.
* **Crash and hang survival.**  Each worker talks to the parent over one
  duplex pipe and heartbeats over it from a side thread while the shard
  computes.  The parent blocks on the busy workers' pipes and process
  sentinels; a worker that dies (crash, OOM-kill, ``SIGKILL``, a dead
  pipe) or stops beating for ``shard_timeout`` seconds is killed and its
  shard is requeued onto a fresh worker after a *seeded* exponential
  backoff, up to ``shard_retries`` relaunches per shard.
* **Graceful degradation.**  When workers keep dying — a shard exhausts
  its retry budget, the sweep-wide death budget is spent, or the platform
  cannot spawn at all — the engine falls back to in-process serial
  execution of the remaining shards: slower, but the sweep completes (or
  surfaces the real, deterministic error).
* **Kill-resume.**  With a ``journal_dir``, every completed shard is
  persisted atomically (``shard-NNNN/result.json``) and every running
  shard gets a private working directory for its own run-level
  checkpoints (:mod:`repro.harness.checkpoint`).  A sweep SIGKILLed
  mid-flight and re-run with ``resume=True`` loads the finished shards
  from disk, resumes half-finished shards from their journals, and merges
  to the same bytes as a sweep that was never interrupted.

Task functions must be module-level callables (spawn pickles them by
reference) with the signature
``task(payload, ctx) -> value`` where ``payload`` is JSON-safe, ``ctx``
is a :class:`ShardContext` and ``value`` is JSON-safe when journalling.
A task exception is *not* retried — identical inputs would fail
identically — but crashes and hangs are.

The engine keeps its own workers rather than using
``concurrent.futures.ProcessPoolExecutor``: when one pool worker is
killed, the executor fails every pending future at once, so a rebuilt
pool cannot tell the victim shard from innocent in-flight ones (and
charge only the victim a retry), and killing one hung pool worker needs
the executor's private process map.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, ShardError
from repro.harness.serialization import PathLike
from repro.obs import get_registry, monotonic
from repro.utils.rng import spawn_rng_at

logger = logging.getLogger(__name__)

SWEEP_MANIFEST_VERSION = 1

#: Seconds between a busy worker's heartbeats.
HEARTBEAT_EVERY = 0.2
#: First relaunch delay (seconds) of the seeded backoff; doubles per
#: attempt up to :data:`BACKOFF_CAP`, then gets a 0.5-1.5x seeded jitter.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 5.0


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep executes: worker count, liveness knobs, journalling.

    ``parallel`` is the worker-process count; ``1`` (the default) runs
    every shard in-process, which is the pre-engine serial behaviour.
    ``shard_timeout`` is the longest a running shard may go without a
    heartbeat before it is presumed hung; ``shard_retries`` bounds how
    often one shard may be relaunched after crashes/hangs.  ``journal_dir``
    turns on the per-shard journal (and is where a killed sweep resumes
    from with ``resume=True``); ``metrics`` additionally collects each
    shard's obs event log and merges them in shard-index order.  ``seed``
    feeds the per-shard RNG streams and the retry-backoff jitter.
    """

    parallel: int = 1
    shard_timeout: float = 120.0
    shard_retries: int = 2
    journal_dir: Optional[PathLike] = None
    resume: bool = False
    metrics: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigurationError(
                f"parallel must be >= 1, got {self.parallel}"
            )
        if self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )
        if self.shard_retries < 0:
            raise ConfigurationError(
                f"shard_retries must be >= 0, got {self.shard_retries}"
            )
        if self.resume and self.journal_dir is None:
            raise ConfigurationError("resume=True requires journal_dir")
        if self.metrics and self.journal_dir is None:
            raise ConfigurationError(
                "metrics=True requires journal_dir (shard event logs live "
                "in the per-shard journal directories)"
            )

    @classmethod
    def coerce(cls, value: Union[int, "SweepOptions", None]) -> "SweepOptions":
        """Accept a plain worker count where full options are overkill."""
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        return cls(parallel=int(value))


@dataclass(frozen=True)
class ShardContext:
    """What a task function knows about the shard it is executing.

    ``rng`` is the shard's own spawn-derived child stream — the *only*
    engine-provided randomness a task may use, because it is rebuilt
    identically for every attempt and execution mode.  ``attempt`` counts
    relaunches (0 on first execution); ``journal_dir`` is the shard's
    private working directory when the sweep journals (tasks put their
    run-level checkpoints there); ``metrics_dir`` is where the task should
    write obs event logs (``metrics-*.jsonl``) when metrics are collected;
    ``resuming`` says the journal may hold state from a previous attempt
    or a previous (killed) sweep process.
    """

    index: int
    attempt: int
    rng: np.random.Generator
    journal_dir: Optional[Path] = None
    metrics_dir: Optional[Path] = None
    resuming: bool = False


@dataclass
class ShardOutcome:
    """One shard's merged-order result plus its execution provenance."""

    index: int
    tag: str
    value: object
    attempts: int = 1
    worker: str = "serial"
    wall_s: float = 0.0
    resumed: bool = False


@dataclass
class _Attempt:
    """One shard — index, payload, tag — and its relaunch state."""

    index: int
    payload: object
    tag: str
    attempt: int = 0
    not_before: float = 0.0  # engine-clock gate for backoff


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: object  # parent end of the worker's duplex pipe
    name: str
    busy: Optional[_Attempt] = None
    last_beat: float = field(default_factory=monotonic)


def _write_json_atomic(path: Path, payload: dict) -> None:
    """The checkpoint convention: write-temp-then-rename is the commit."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _backoff_delay(options: SweepOptions, index: int, attempt: int) -> float:
    """Seeded exponential backoff before relaunching shard ``index``.

    Deterministic in (sweep seed, shard index, attempt) — independent of
    worker identity and of wall-clock timing — so two operators replaying
    the same failing sweep see the same pacing.
    """
    base = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** max(0, attempt - 1)))
    jitter_rng = np.random.default_rng(
        np.random.SeedSequence((options.seed, index, attempt))
    )
    return base * (0.5 + jitter_rng.random())


def _run_job(task: Callable, job: tuple) -> tuple:
    """Execute one shard job in this process; returns ``(value, wall_s)``.

    ``job`` carries the sweep's integer seed, never a ``Generator``: the
    shard's stream is rebuilt here, in whichever process runs the job.
    """
    index, attempt, payload, seed, shard_dir, metrics, resuming = job
    context = ShardContext(
        index=index,
        attempt=attempt,
        rng=spawn_rng_at(seed, index),
        journal_dir=shard_dir,
        metrics_dir=shard_dir if metrics else None,
        resuming=resuming,
    )
    start = monotonic()
    value = task(payload, context)
    return value, monotonic() - start


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _shard_worker(conn, task: Callable) -> None:
    """Worker main loop: run jobs from the pipe, heartbeating from the side.

    The heartbeat thread keeps beating while the task computes, so the
    parent can tell "long shard" from "dead worker": a crash or SIGKILL
    stops the beats (and the process); a C-level hang that holds the GIL
    stops the beats while the process stays alive.  The beater is joined
    before the reply is sent, so the reply is the last message of a job.
    """
    for job in iter(conn.recv, None):
        stop = threading.Event()

        def _beat(stop: threading.Event = stop) -> None:
            while not stop.wait(HEARTBEAT_EVERY):
                conn.send(("hb",))

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            reply = ("ok", *_run_job(task, job))
        except BaseException as exc:  # noqa: B036 - report, parent decides
            reply = ("err", type(exc).__name__, str(exc),
                     traceback.format_exc())
        finally:
            stop.set()
            beater.join()
        conn.send(reply)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardedRunner:
    """Run a sweep's shards through ``task``, surviving worker failure.

    >>> runner = ShardedRunner(my_module.my_task, options=SweepOptions(parallel=4))
    >>> outcomes = runner.run(payloads, tags=labels)

    ``run`` returns one :class:`ShardOutcome` per payload, **always in
    shard-index order**, each carrying the task's return value.  The
    degradation ladder, top rung first: spawn workers with heartbeat
    supervision; requeue-with-backoff onto a fresh worker after a crash or
    hang; in-process serial execution when workers keep dying or the
    platform cannot spawn.  Shard-lifecycle counters
    (``shards.launched/completed/retried/degraded/resumed``), per-shard
    wall-time gauges (``shard.N.wall_s``) and a ``shard`` phase land in
    the ambient obs registry.
    """

    def __init__(self, task: Callable, *,
                 options: Union[int, SweepOptions, None] = None) -> None:
        self.task = task
        self.options = SweepOptions.coerce(options)

    # ------------------------------------------------------------------
    def run(self, payloads: Sequence[object],
            tags: Optional[Sequence[str]] = None) -> List[ShardOutcome]:
        """Execute one shard per payload and merge in shard-index order."""
        if tags is not None and len(tags) != len(payloads):
            raise ConfigurationError(
                f"{len(tags)} tags for {len(payloads)} payloads"
            )
        shards = [
            _Attempt(index=i, payload=payload,
                     tag=tags[i] if tags is not None else f"shard{i}")
            for i, payload in enumerate(payloads)
        ]
        journal = self._prepare_journal(shards)
        done: Dict[int, ShardOutcome] = {}
        if journal is not None and self.options.resume:
            done = self._load_resumed(journal, shards)
        pending = [shard for shard in shards if shard.index not in done]

        registry = get_registry()
        if self._use_pool(pending):
            survivors = self._run_pool(pending, done, journal)
            # Bottom rung: whatever the pool could not finish runs here,
            # serially, in index order — slower but unkillable-by-worker.
            for attempt in survivors:
                registry.inc("shards.degraded")
                done[attempt.index] = self._run_inline(
                    attempt, journal, worker="degraded"
                )
        else:
            for attempt in pending:
                done[attempt.index] = self._run_inline(
                    attempt, journal, worker="serial"
                )
        if journal is not None and self.options.metrics:
            self._merge_metrics(journal, shards)
        return [done[shard.index] for shard in shards]

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _prepare_journal(self, shards: Sequence[_Attempt]) -> Optional[Path]:
        options = self.options
        if options.journal_dir is None:
            return None
        journal = Path(options.journal_dir)
        journal.mkdir(parents=True, exist_ok=True)
        manifest_path = journal / "sweep.json"
        # The fingerprint identifies the sweep: its payloads, in shard order.
        blob = json.dumps([s.payload for s in shards], sort_keys=True)
        manifest = {
            "version": SWEEP_MANIFEST_VERSION,
            "task": f"{getattr(self.task, '__module__', '?')}."
                    f"{getattr(self.task, '__qualname__', '?')}",
            "n_shards": len(shards),
            "fingerprint": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        }
        if manifest_path.exists():
            try:
                existing = json.loads(manifest_path.read_text())
            except (ValueError, OSError) as exc:
                raise ShardError(
                    f"unreadable sweep manifest at {manifest_path}: {exc}"
                ) from exc
            if existing != manifest:
                raise ShardError(
                    f"journal at {journal} belongs to a different sweep "
                    f"(manifest {existing} != {manifest}); point the sweep "
                    f"at a fresh journal_dir"
                )
            if not options.resume:
                # Same sweep, fresh start: drop completed-shard results and
                # half-finished run checkpoints so nothing stale replays.
                for shard_dir in sorted(journal.glob("shard-*")):
                    for stale in sorted(shard_dir.iterdir()):
                        stale.unlink()
        else:
            if options.resume:
                raise ShardError(
                    f"resume=True but {manifest_path} does not exist; "
                    f"nothing to resume from"
                )
            _write_json_atomic(manifest_path, manifest)
        for shard in shards:
            self._shard_dir(journal, shard.index).mkdir(exist_ok=True)
        return journal

    @staticmethod
    def _shard_dir(journal: Path, index: int) -> Path:
        return journal / f"shard-{index:04d}"

    def _load_resumed(self, journal: Path,
                      shards: Sequence[_Attempt]) -> Dict[int, ShardOutcome]:
        """Completed shards from a previous (killed) execution of this sweep."""
        registry = get_registry()
        done: Dict[int, ShardOutcome] = {}
        for shard in shards:
            path = self._shard_dir(journal, shard.index) / "result.json"
            if not path.exists():
                continue
            try:
                payload = json.loads(path.read_text())
            except (ValueError, OSError) as exc:
                # Atomic writes mean half-written results never exist under
                # the final name; anything unreadable is treated as not-done
                # and recomputed — the deterministic task makes that safe.
                logger.warning("unreadable shard result %s (%s); shard %d "
                               "will be recomputed", path, exc, shard.index)
                continue
            if payload.get("index") != shard.index:
                raise ShardError(
                    f"{path} records shard {payload.get('index')}, "
                    f"expected {shard.index}"
                )
            done[shard.index] = ShardOutcome(
                index=shard.index,
                tag=str(payload.get("tag", shard.tag)),
                value=payload["value"],
                attempts=int(payload.get("attempts", 1)),
                worker=str(payload.get("worker", "?")),
                wall_s=float(payload.get("wall_s", 0.0)),
                resumed=True,
            )
            registry.inc("shards.resumed")
        return done

    def _record_done(self, outcome: ShardOutcome,
                     journal: Optional[Path]) -> None:
        registry = get_registry()
        registry.inc("shards.completed")
        registry.set_gauge(f"shard.{outcome.index}.wall_s", outcome.wall_s)
        registry.record_phase("shard", outcome.wall_s)
        if journal is not None:
            _write_json_atomic(
                self._shard_dir(journal, outcome.index) / "result.json",
                {
                    "index": outcome.index,
                    "tag": outcome.tag,
                    "value": outcome.value,
                    "attempts": outcome.attempts,
                    "worker": outcome.worker,
                    "wall_s": outcome.wall_s,
                },
            )

    def _merge_metrics(self, journal: Path,
                       shards: Sequence[_Attempt]) -> None:
        """Concatenate per-shard event logs in shard-index order."""
        merged = journal / "metrics.jsonl"
        tmp = merged.with_name(merged.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as sink:
            for shard in shards:
                shard_dir = self._shard_dir(journal, shard.index)
                for log in sorted(shard_dir.glob("metrics-*.jsonl")):
                    sink.write(log.read_text())
        os.replace(tmp, merged)

    # ------------------------------------------------------------------
    # Execution rungs
    # ------------------------------------------------------------------
    def _use_pool(self, pending: Sequence[_Attempt]) -> bool:
        options = self.options
        if options.parallel <= 1 or len(pending) <= 1:
            return False
        if "spawn" not in multiprocessing.get_all_start_methods():
            get_registry().inc("shards.degraded", len(pending))
            return False
        return True

    def _job(self, attempt: _Attempt, journal: Optional[Path]) -> tuple:
        """The picklable job :func:`_run_job` executes for ``attempt``."""
        options = self.options
        return (
            attempt.index, attempt.attempt, attempt.payload, options.seed,
            self._shard_dir(journal, attempt.index) if journal is not None
            else None,
            options.metrics, options.resume or attempt.attempt > 0,
        )

    def _run_inline(self, attempt: _Attempt, journal: Optional[Path],
                    worker: str) -> ShardOutcome:
        """In-process execution: the serial rung of the ladder."""
        get_registry().inc("shards.launched")
        value, wall = _run_job(self.task, self._job(attempt, journal))
        outcome = ShardOutcome(
            index=attempt.index, tag=attempt.tag, value=value,
            attempts=attempt.attempt + 1, worker=worker, wall_s=wall,
        )
        self._record_done(outcome, journal)
        return outcome

    # ------------------------------------------------------------------
    # Worker-pool execution with heartbeat supervision
    # ------------------------------------------------------------------
    def _run_pool(self, pending: List[_Attempt], done: Dict[int, ShardOutcome],
                  journal: Optional[Path]) -> List[_Attempt]:
        """Fan shards over spawn workers; return what must run serially.

        The return value is the degradation hand-off: empty when the pool
        finished everything, otherwise the (index-sorted) attempts the
        caller runs in-process because workers kept dying.
        """
        options = self.options
        registry = get_registry()
        mp = multiprocessing.get_context("spawn")
        queue: deque = deque(sorted(pending, key=lambda a: a.index))
        workers: Dict[str, _Worker] = {}
        death_budget = 2 * options.parallel + 2
        deaths = 0
        next_id = 0
        n_target = len(pending)
        n_done = 0
        degraded = False

        def spawn_worker() -> None:
            nonlocal next_id
            name = f"worker-{next_id}"
            next_id += 1
            conn, child_conn = mp.Pipe()
            process = mp.Process(
                target=_shard_worker,
                args=(child_conn, self.task),
                daemon=True,
                name=f"repro-shard-{name}",
            )
            process.start()
            # Only the worker may hold the child end, so its death shows
            # up here as end-of-file on the pipe.
            child_conn.close()
            workers[name] = _Worker(process=process, conn=conn, name=name)

        def dispatch() -> None:
            now = monotonic()
            for worker in list(workers.values()):
                if worker.busy is not None:
                    continue
                ready = next((a for a in queue if a.not_before <= now), None)
                if ready is None:
                    return  # empty, or every entry still in backoff
                queue.remove(ready)
                worker.busy = ready
                worker.last_beat = now
                registry.inc("shards.launched")
                try:
                    worker.conn.send(self._job(ready, journal))
                except OSError:
                    reap(worker, "crashed")

        def reap(worker: _Worker, reason: str) -> None:
            """Bury a dead/hung worker; requeue its shard; refill the pool."""
            nonlocal deaths, degraded
            attempt = worker.busy
            worker.busy = None
            self._kill(worker)
            workers.pop(worker.name, None)
            deaths += 1
            if attempt is not None:
                queue.append(attempt)
            if deaths > death_budget:
                degraded = True
                logger.warning(
                    "sharded sweep: %d worker deaths exceed the budget of "
                    "%d; degrading to in-process serial execution",
                    deaths, death_budget,
                )
                return
            if attempt is not None:
                if attempt.attempt >= options.shard_retries:
                    degraded = True
                    logger.warning(
                        "shard %d (%s) exhausted its retry budget of %d; "
                        "degrading to in-process serial execution",
                        attempt.index, attempt.tag, options.shard_retries,
                    )
                    return
                registry.inc("shards.retried")
                attempt.attempt += 1
                attempt.not_before = monotonic() + _backoff_delay(
                    options, attempt.index, attempt.attempt
                )
                logger.warning(
                    "worker %s %s on shard %d (%s); requeued as attempt %d",
                    worker.name, reason, attempt.index, attempt.tag,
                    attempt.attempt,
                )
            spawn_worker()

        def receive(worker: _Worker) -> None:
            """Handle everything ``worker`` has sent; a dead pipe is a crash."""
            nonlocal n_done
            try:
                while worker.conn.poll():
                    message = worker.conn.recv()
                    worker.last_beat = monotonic()
                    if message[0] == "ok":
                        _, value, wall = message
                        attempt = worker.busy
                        worker.busy = None
                        outcome = ShardOutcome(
                            index=attempt.index, tag=attempt.tag,
                            value=value, attempts=attempt.attempt + 1,
                            worker=worker.name, wall_s=wall,
                        )
                        self._record_done(outcome, journal)
                        done[attempt.index] = outcome
                        n_done += 1
                    elif message[0] == "err":
                        _, exc_name, exc_msg, tb = message
                        raise ShardError(
                            f"shard {worker.busy.index} raised {exc_name}: "
                            f"{exc_msg}\n--- worker traceback ---\n{tb}"
                        )
            except (EOFError, OSError):
                reap(worker, "crashed")

        try:
            for _ in range(min(options.parallel, n_target)):
                spawn_worker()
            while n_done < n_target and not degraded:
                dispatch()
                busy = [w for w in workers.values() if w.busy is not None]
                # Wake for a message, a death, the earliest heartbeat
                # deadline, or the earliest backoff gate an idle worker
                # could take.
                deadlines = [w.last_beat + options.shard_timeout
                             for w in busy]
                if queue and len(busy) < len(workers):
                    deadlines.append(min(a.not_before for a in queue))
                ready = wait(
                    [w.conn for w in busy]
                    + [w.process.sentinel for w in busy],
                    timeout=max(0.0, min(deadlines) - monotonic()),
                )
                for worker in busy:
                    if degraded:
                        break
                    if worker.conn in ready:
                        receive(worker)
                    if worker.busy is None:
                        continue
                    if worker.process.sentinel in ready:
                        reap(worker, "crashed")
                    elif (monotonic() - worker.last_beat
                          > options.shard_timeout):
                        reap(worker, "stopped heartbeating")
        finally:
            for worker in list(workers.values()):
                self._kill(worker)
        survivors = list(queue) + [
            w.busy for w in workers.values() if w.busy is not None
        ]
        return sorted(survivors, key=lambda a: a.index)

    @staticmethod
    def _kill(worker: _Worker) -> None:
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        worker.conn.close()


def run_sharded(task: Callable, payloads: Sequence[object], *,
                tags: Optional[Sequence[str]] = None,
                options: Union[int, SweepOptions, None] = None
                ) -> List[ShardOutcome]:
    """One-call façade over :class:`ShardedRunner`."""
    return ShardedRunner(task, options=options).run(payloads, tags=tags)


__all__ = [
    "ShardContext",
    "ShardOutcome",
    "ShardedRunner",
    "SweepOptions",
    "run_sharded",
]
