"""The four workloads of the end-to-end benchmark.

Three workloads turn the benchmark seed into a *panel* of inputs derived
from ``(seed, index)``: episodes, multi-tenant engine runs, or the shards
of one sweep.  One input's wall time varies with the input far more than
between repeats of it, so a run reports medians and interquartile means
over many seeded inputs.  ``ratchet`` is the exception: it is one fixed input by
definition, repeated.  README.md records why each workload exists.

The host's speed also drifts: on a shared machine the same work can take
up to twice as long for seconds to minutes at a time.  :func:`measure`
times a fixed calibration kernel between units, and rescales each unit's
host times by the kernel's speed around that unit, to the kernel's speed
on the reference machine.

:func:`measure` runs one untimed warm-up unit (the first of the panel's
inputs, or a smaller episode for ``ratchet``; it fills the
offline-policy cache) and then times the panel;
:func:`trace` re-runs the head of the panel with :class:`spans.Tracer`
installed and reports self time per layer.  Both check every output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.core.result import LabellingOutcome
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.datasets import registry as dataset_registry
from repro.harness.experiment import (
    FRAMEWORK_NAMES,
    ExperimentSetting,
    ExperimentSpec,
    comparison_shard,
    make_framework,
    merge_comparison,
    run_experiment,
)
from repro.harness.parallel import SweepOptions, run_sharded
from repro.serve import LatencyModel, ServeEngine
from quartiles import interquartile_mean, quartiles
from spans import ROOT, Tracer

DATASET = "S12CP"

#: Seconds one calibration pass takes on the reference machine (2-vCPU
#: x86-64 VM, Python 3.11, numpy 2.4) when nothing else slows it down.
CAL_REF_S = 0.0112
#: Host-speed samples are taken between units at most this often.
CAL_EVERY_S = 1.0


def _calibration_kernel() -> int:
    """Fixed work in the program's mix: tiny numpy calls and Python loops."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    w = np.zeros((16, 4))
    target = np.full((64, 4), 0.25)
    for _ in range(400):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w -= 0.1 * (x.T @ (p - target)) / 64
    total = 0
    for i in range(60_000):
        total += (i * i) % 7
    return total


def calibrate(reps: int = 3) -> float:
    """Fastest of ``reps`` timed calibration passes, in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - start)
    return best


def derive(seed: int, *path: int) -> int:
    """A 31-bit seed for the input at ``path`` under the benchmark seed."""
    sequence = np.random.SeedSequence([seed, *path])
    return int(sequence.generate_state(1)[0]) >> 1


def labels_digest(*label_arrays) -> str:
    """Short hash of final label vectors, to compare two runs' results."""
    sha = hashlib.sha256()
    for labels in label_arrays:
        sha.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    return sha.hexdigest()[:16]


def _json_digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()[:16]


def check_outcome(outcome: LabellingOutcome, report, dataset) -> list:
    """What every labelling run must satisfy, as failure messages."""
    failures = []
    if outcome.spent > outcome.budget + 1e-9:
        failures.append(f"spent {outcome.spent} > budget {outcome.budget}")
    labels = outcome.final_labels
    if labels.shape != (dataset.n_objects,):
        failures.append(
            f"{labels.size} final labels for {dataset.n_objects} objects"
        )
    elif labels.min() < 0 or labels.max() >= dataset.n_classes:
        failures.append(
            f"class ids outside [0, {dataset.n_classes}): "
            f"{labels.min()}..{labels.max()}"
        )
    if report.n_evaluated != dataset.n_objects:
        failures.append(
            f"evaluated {report.n_evaluated} of {dataset.n_objects} objects"
        )
    return failures


class DecisionProbe:
    """Samples the host time a sync framework spends deciding.

    A sample runs from the moment a batch of answers returns to the
    framework (``CrowdPlatform.ask_batch`` returns) until the framework
    asks for its next batch on that platform or its outcome is scored
    (``LabellingOutcome.evaluate``, which the harness calls as soon as
    the episode returns).  Installed at class level for the ``with``
    block, so it also works inside sharded sweep workers, where the
    benchmark cannot hand the harness a platform hook.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.answers = 0
        self._returned: dict = {}
        self._recent = None
        self._originals: tuple = ()

    def __enter__(self) -> "DecisionProbe":
        ask_batch = CrowdPlatform.__dict__["ask_batch"]
        evaluate = LabellingOutcome.__dict__["evaluate"]
        probe = self

        def timed_ask_batch(platform, assignments):
            returned = probe._returned.pop(platform, None)
            if returned is not None:
                probe.samples.append(perf_counter() - returned)
            records = ask_batch(platform, assignments)
            probe.answers += len(records)
            probe._recent = platform
            probe._returned[platform] = perf_counter()
            return records

        def scored_evaluate(outcome, *args, **kwargs):
            returned = probe._returned.pop(probe._recent, None)
            if returned is not None:
                probe.samples.append(perf_counter() - returned)
            return evaluate(outcome, *args, **kwargs)

        self._originals = (ask_batch, evaluate)
        CrowdPlatform.ask_batch = timed_ask_batch
        LabellingOutcome.evaluate = scored_evaluate
        return self

    def __exit__(self, *exc) -> None:
        CrowdPlatform.ask_batch, LabellingOutcome.evaluate = self._originals
        self._returned.clear()


def sweep_shard(job: dict, ctx) -> dict:
    """``comparison_shard`` with a :class:`DecisionProbe` around it.

    In a spawn worker the shard first takes a host-speed sample, so the
    sweep's rescaling sees the speed of both cores while they work; the
    sweep takes that time back out of its wall times.  Module-level so
    spawn workers import it by reference.
    """
    cal_s = calibrate() if job["calibrate"] else 0.0
    with DecisionProbe() as probe:
        value = comparison_shard(job["payload"], ctx)
    return {"value": value, "answers": probe.answers,
            "decide_s": probe.samples, "cal_s": cal_s}


def episode_input(scale: float, seed: int) -> tuple:
    """The setting and dataset of one S12CP episode."""
    setting = ExperimentSetting(DATASET, scale=scale, seed=seed)
    return setting, dataset_registry.load_dataset(DATASET, scale=scale,
                                                  rng=seed)


def _root(tracer: Optional[Tracer]):
    return tracer.root(ROOT) if tracer is not None else contextlib.nullcontext()


@dataclass
class UnitResult:
    """One unit's measurements and the checks it failed."""

    wall_s: float = float("nan")
    answers: int = 0
    #: Decision times in seconds, one list per episode, engine run or shard.
    decide_s: list = field(default_factory=list)
    #: ``(accuracy, f1)`` per scored run or session.
    scores: list = field(default_factory=list)
    digest: str = ""
    #: Operations in the unit (runs, sessions or shards) and how many
    #: of them raised or broke a check.
    attempted: int = 1
    failed: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: Multiplies the unit's host times into reference-machine seconds.
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return self.failed == 0


class CheckFailed(Exception):
    """A benchmark-level check failed (results differ where they must not)."""


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A seeded panel of units; subclasses say what one unit is."""

    name = ""
    #: Nominal wall seconds of one unit on the reference machine; sizes
    #: the panel from ``--seconds``, so the panel — and with it every
    #: metric's inputs — never depends on how fast the host happens to be.
    unit_cost_s = 1.0
    #: The trace re-runs this share of the panel, untraced and traced.
    trace_share = 1 / 3

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        self.seed = seed
        self.n_units = 1 if quick else max(3, round(seconds / self.unit_cost_s))
        self.units = [self.make_unit(k) for k in range(self.n_units)]

    def make_unit(self, k: int):
        raise NotImplementedError

    def attempts(self, unit) -> int:
        """Operations (runs, sessions or shards) in ``unit``."""
        return 1

    def run_unit(self, unit, *, tracer: Optional[Tracer] = None):
        raise NotImplementedError

    def warmup_unit(self):
        return self.units[0]

    def repeats(self, warm: UnitResult, results: list) -> bool:
        """Whether the warm-up reproduced the first timed unit's labels."""
        first = results[0]
        return not (warm.ok and first.ok) or warm.digest == first.digest

    def trace_units(self) -> list:
        """Inputs of the traced re-run (generated under the tracer)."""
        n = max(1, round(self.n_units * self.trace_share))
        return [self.make_unit(k) for k in range(n)]

    def run_plain(self, unit) -> UnitResult:
        """Untraced run of ``unit`` as the trace compares it."""
        return self.run_unit(unit)

    def run_traced(self, unit, tracer: Tracer) -> UnitResult:
        return self.run_unit(unit, tracer=tracer)

    def trace_extras(self, plain: list, traced: list,
                     contracts_off: Callable) -> dict:
        """Workload-specific per-layer metrics: name -> (value, unit)."""
        return {}


class EpisodeWorkload(Workload):
    """One sync ``run_experiment`` episode per unit, metrics off."""

    framework = ""
    scale = 0.05
    #: Whether the episode starts from the offline cross-trained policy.
    pretrain = True
    #: Units the metrics-on and contracts-off ratios are taken over.
    ratio_units = 3

    def make_unit(self, k: int):
        return episode_input(self.scale, derive(self.seed, k))

    def run_unit(self, unit, *, tracer=None, metrics: bool = False):
        setting, dataset = unit
        spec = ExperimentSpec(metrics=metrics)
        with DecisionProbe() as probe, _root(tracer):
            start = perf_counter()
            result = run_experiment(self.framework, setting, spec,
                                    dataset=dataset, pretrain=self.pretrain)
            wall = perf_counter() - start
        outcome, report = result.outcome, result.report
        failures = check_outcome(outcome, report, dataset)
        return UnitResult(
            wall_s=wall,
            answers=probe.answers,
            decide_s=[probe.samples],
            scores=[(report.accuracy, report.f1)],
            digest=labels_digest(outcome.final_labels),
            failed=int(bool(failures)),
            failures=failures,
        )

    def trace_extras(self, plain, traced, contracts_off):
        head = self.units[: min(self.ratio_units, len(plain))]
        base = plain[: len(head)]
        metrics_on = [self.run_unit(unit, metrics=True) for unit in head]
        cal = calibrate()
        off = contracts_off(len(head))
        for name, digests in (
                ("metrics on", [r.digest for r in metrics_on]),
                ("contracts off", off["digests"])):
            if digests != [r.digest for r in base]:
                raise CheckFailed(f"labels changed with {name}")
        base_s = sum(r.wall_s for r in base)
        return {
            "obs.overhead_ratio": (
                sum(r.wall_s for r in metrics_on) / base_s, "ratio"),
            # Two processes: compare each at its own measured host speed.
            "analysis.contracts_ratio": (
                (base_s / cal) / (sum(off["walls"]) / off["cal_s"]),
                "ratio"),
        }


class Ratchet(EpisodeWorkload):
    """The ROADMAP's ratchet run, repeated: one fixed input, every seed.

    CrowdRL on S12CP at scale 0.05, setting seed 0, no pretraining, as
    ``benchmarks/bench_phase_ratchet.py`` runs it.  A ratchet is one fixed
    input by definition; across inputs this episode's cost varies too
    much for a panel to be steady (README.md, "Workloads").
    """

    name = "ratchet"
    framework = "CrowdRL"
    pretrain = False
    unit_cost_s = 3.9
    #: Two of the three repeats, so the overhead ratios rest on two pairs.
    trace_share = 0.5
    #: A smaller episode of the same run: the warm-up, and every unit of
    #: a ``--quick`` smoke run.
    small_scale = 0.02

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        if quick:
            self.scale = self.small_scale
        super().__init__(seed, seconds, quick)

    def make_unit(self, k: int):
        return episode_input(self.scale, 0)

    def warmup_unit(self):
        # Warming up needs the code paths, not this input; a small episode
        # saves one full ratchet episode per run.
        return episode_input(self.small_scale, 0)

    def repeats(self, warm, results):
        """Whether every repeat of the input gave the same labels."""
        return len({r.digest for r in results if r.ok}) <= 1


class AblationPM(EpisodeWorkload):
    """Fig. 8's M3 episodes, from the cross-trained policy as Fig. 8 runs."""

    name = "ablation_pm"
    framework = "M3"
    unit_cost_s = 0.18
    #: About 4 s of episodes; three would last about half a second,
    #: shorter than the host's slow spells.
    ratio_units = 20


class Serve8(Workload):
    """Eight projects on one shared pool through ``ServeEngine``.

    One unit is what ``repro serve --projects 8 --max-active 3 --budget 80
    --seed S`` builds and runs, with ``S`` derived from the benchmark
    seed: the same datasets, pool, latency model, frameworks and session
    seeds, and no offline pretraining.
    """

    name = "serve8"
    unit_cost_s = 1.35
    n_projects = 8
    scale = 0.05
    workers = 3
    experts = 2
    #: 2-6 labelling iterations per session.
    budget = 80.0
    max_active = 3
    #: ``repro serve``'s default mean worker service time (virtual s).
    worker_latency = 1.0

    def make_unit(self, k: int):
        seed = derive(self.seed, k)
        return {
            "seed": seed,
            "datasets": [
                dataset_registry.load_dataset(DATASET, scale=self.scale,
                                              rng=seed + 100 + i)
                for i in range(self.n_projects)
            ],
        }

    def attempts(self, unit) -> int:
        return len(unit["datasets"])

    def run_unit(self, unit, *, tracer=None):
        seed, datasets = unit["seed"], unit["datasets"]
        setting = ExperimentSetting(DATASET, scale=self.scale,
                                    n_workers=self.workers,
                                    n_experts=self.experts, seed=seed)
        decide: list = []
        with _root(tracer):
            start = perf_counter()
            pool = AnnotatorPool.build(datasets[0].n_classes, self.workers,
                                       self.experts, rng=seed)
            latency = LatencyModel.for_pool(
                pool, worker_latency=self.worker_latency, rng=seed + 5000)
            engine = ServeEngine(pool, latency=latency,
                                 max_active=self.max_active)
            sessions = []
            for i, dataset in enumerate(datasets):
                framework = make_framework("CrowdRL", setting,
                                           rng=seed + 200 + i)
                session = engine.add_project(f"project-{i}", dataset,
                                             framework, budget=self.budget,
                                             seed=seed + i)
                _time_decisions(session, decide)
                sessions.append(session)
            report = engine.run()
            wall = perf_counter() - start
        failures, failed = [], 0
        for session, dataset in zip(sessions, datasets):
            result = session.result
            if not session.done or result is None:
                problems = ["session not done"]
            else:
                problems = check_outcome(result.outcome, result.report,
                                         dataset)
            if problems:
                failures.extend(f"{session.name}: {p}" for p in problems)
                failed += 1
        if report.peak_active > self.max_active:
            failures.append(f"peak_active {report.peak_active} > "
                            f"{self.max_active}")
            failed = len(sessions)
        done = [s.result for s in sessions if s.result is not None]
        return UnitResult(
            wall_s=wall,
            answers=sum(s.platform.completed for s in sessions),
            decide_s=[decide],
            scores=[(r.report.accuracy, r.report.f1) for r in done],
            digest=labels_digest(*(r.outcome.final_labels for r in done)),
            attempted=len(sessions),
            failed=failed,
            failures=failures,
            info={"makespan_s": report.makespan,
                  "lease_wait_s": report.lease_wait_s,
                  "peak_active": report.peak_active},
        )

    def trace_extras(self, plain, traced, contracts_off):
        n = len(traced)
        return {
            "serve.makespan_s": (
                sum(r.info["makespan_s"] for r in traced) / n, "virtual_s"),
            "serve.lease_wait_s": (
                sum(r.info["lease_wait_s"] for r in traced) / n, "virtual_s"),
            "serve.peak_active": (
                max(r.info["peak_active"] for r in traced), "count"),
        }


def _time_decisions(session, samples: list) -> None:
    """Time the session's ``deliver`` calls that advanced its episode.

    A delivery advances the episode when it submits the next batch or
    finishes the session; the others only count an arrival.
    """
    deliver = session.deliver
    submit_batch = session.platform.submit_batch
    submitted = [False]

    def counted_submit_batch(assignments):
        submitted[0] = True
        return submit_batch(assignments)

    def timed_deliver(pending):
        submitted[0] = False
        start = perf_counter()
        deliver(pending)
        elapsed = perf_counter() - start
        if submitted[0] or session.done:
            samples.append(elapsed)

    session.platform.submit_batch = counted_submit_batch
    session.deliver = timed_deliver


class Sweep(Workload):
    """One sharded sweep of the six frameworks over seeded settings.

    The whole panel is a single ``run_sharded`` call over 2 spawn
    workers — one shard per setting — so process start-up and the cold
    cross-training in each worker are paid once per run, as a figure
    sweep pays them.  The warm-up runs the sweep's first shard, and the
    trace its first two, in-process.
    """

    name = "sweep"
    #: Shards per second of ``--seconds``: a shard adds ~0.75 s of wall
    #: time with two warm workers.
    shards_per_s = 1.25
    scale = 0.02
    workers = 2
    head_shards = 2

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        self.seed = seed
        n_shards = self.head_shards if quick else max(
            2 * self.head_shards, round(seconds * self.shards_per_s))
        self.units = [self.make_sweep(n_shards)]

    def make_sweep(self, n_shards: int) -> dict:
        settings = [
            ExperimentSetting(DATASET, scale=self.scale,
                              seed=derive(self.seed, j))
            for j in range(n_shards)
        ]
        return {
            "payloads": [
                {"framework_names": list(FRAMEWORK_NAMES),
                 "setting": asdict(s)} for s in settings
            ],
            "n_objects": [
                dataset_registry.load_dataset(
                    DATASET, scale=self.scale, rng=s.seed).n_objects
                for s in settings
            ],
            "tags": [f"{DATASET}:seed{s.seed}" for s in settings],
        }

    def attempts(self, unit) -> int:
        return len(unit["payloads"])

    def warmup_unit(self):
        return self.make_sweep(1)

    def repeats(self, warm, results):
        first = results[0]
        if not (warm.ok and first.ok):
            return True
        shards = warm.info["shard_digests"]
        return shards == first.info["shard_digests"][: len(shards)]

    def trace_units(self):
        return [self.make_sweep(self.head_shards)]

    def run_unit(self, unit, *, tracer=None, parallel: Optional[int] = None):
        parallel = self.workers if parallel is None else parallel
        options = SweepOptions(parallel=parallel, seed=self.seed)
        jobs = [{"payload": p, "calibrate": parallel > 1}
                for p in unit["payloads"]]
        with _root(tracer):
            start = perf_counter()
            outcomes = run_sharded(sweep_shard, jobs, tags=unit["tags"],
                                   options=options)
            reports = merge_comparison(
                [o.value["value"] for o in outcomes], FRAMEWORK_NAMES,
                len(outcomes),
            )
            wall = perf_counter() - start
        cal_s = [o.value["cal_s"] for o in outcomes]
        # The workers' host-speed samples are not program work.  Each
        # worker ran its share of them in turn, so the sweep ended later
        # by their total over the workers, to within one sample.
        wall -= sum(cal_s) / parallel
        failures = []
        for outcome, expected in zip(outcomes, unit["n_objects"]):
            got = outcome.value["value"]["n_objects"]
            if got != expected:
                failures.append(f"shard {outcome.index}: {got} objects, "
                                f"expected {expected}")
        for name, report in reports.items():
            if report.n_evaluated != unit["n_objects"][-1]:
                failures.append(f"{name}: evaluated {report.n_evaluated}")
        shard_s = sum(o.wall_s for o in outcomes) - sum(cal_s)
        shard_digests = [_json_digest(o.value["value"]) for o in outcomes]
        return UnitResult(
            wall_s=wall,
            answers=sum(o.value["answers"] for o in outcomes),
            decide_s=[o.value["decide_s"] for o in outcomes],
            # The figure's quality: every framework's merged report.
            scores=[(r.accuracy, r.f1) for r in reports.values()],
            digest=_json_digest(shard_digests),
            attempted=len(outcomes),
            failed=len(outcomes) if failures else 0,
            failures=failures,
            info={"shard_digests": shard_digests,
                  "cal_s": [c for c in cal_s if c > 0.0],
                  "shard_s": shard_s,
                  "shard_attempts": sum(o.attempts for o in outcomes),
                  "parallel_efficiency": shard_s / (parallel * wall)},
        )

    # The trace runs the same shards in-process, where spans can see them.
    def run_plain(self, unit):
        return self.run_unit(unit, parallel=1)

    def run_traced(self, unit, tracer):
        return self.run_unit(unit, tracer=tracer, parallel=1)

    def trace_extras(self, plain, traced, contracts_off):
        pooled = self.run_unit(self.trace_units()[0])
        if pooled.digest != plain[0].digest:
            raise CheckFailed("2 spawn workers and 1 in-process worker "
                              "gave different results")
        return {
            "harness.shard_s": (pooled.info["shard_s"], "s"),
            "harness.parallel_efficiency": (
                pooled.info["parallel_efficiency"], "ratio"),
            "harness.shard_attempts": (pooled.info["shard_attempts"],
                                       "count"),
        }


WORKLOADS = {w.name: w for w in (Ratchet, AblationPM, Serve8, Sweep)}


# ----------------------------------------------------------------------
# Running a panel
# ----------------------------------------------------------------------
def _attempt(workload: Workload, run: Callable, unit) -> UnitResult:
    """Run one unit; an exception fails every operation in it."""
    try:
        return run(unit)
    except Exception as exc:  # noqa: BLE001 - the panel must keep going
        traceback.print_exc(file=sys.stderr)
        n = workload.attempts(unit)
        return UnitResult(attempted=n, failed=n,
                          failures=[f"{type(exc).__name__}: {exc}"])


def _stat(value: float, unit: str, values: Optional[list] = None) -> dict:
    entry = {"value": float(value), "unit": unit}
    if values:
        q1, q3 = quartiles(values)
        entry.update(q1=float(q1), q3=float(q3), n=len(values))
    return entry


def end_to_end(results: list) -> dict:
    """The user-facing metrics of a timed panel (setup and memory aside).

    Host times are multiplied by their unit's :attr:`UnitResult.scale`.
    """
    ok = [r for r in results if r.ok]
    metrics = {}
    if ok:
        walls = [r.wall_s * r.scale for r in ok]
        rates = [r.answers / wall for r, wall in zip(ok, walls)]
        groups = [[s * r.scale * 1e3 for s in group]
                  for r in ok for group in r.decide_s if len(group) >= 2]
        decide_ms = [s for group in groups for s in group]
        # The tail is taken per episode, engine run or shard, then
        # averaged over them: how slow one job's slowest tenth of
        # decisions is, which depends far less on which inputs a seed
        # drew than a percentile of the pooled samples does.
        p90s = [statistics.quantiles(g, n=10, method="inclusive")[-1]
                for g in groups]
        accuracy = [a for r in ok for a, _ in r.scores]
        f1 = [f for r in ok for _, f in r.scores]
        metrics["run_s"] = _stat(interquartile_mean(walls), "s", walls)
        # Throughput over the whole panel; quartiles are of the units'.
        metrics["answers_per_s"] = _stat(
            sum(r.answers for r in ok) / sum(walls), "answers/s", rates)
        if groups:
            metrics["decide_ms_p50"] = _stat(statistics.median(decide_ms),
                                             "ms", decide_ms)
            metrics["decide_ms_p90"] = _stat(interquartile_mean(p90s), "ms",
                                             p90s)
        metrics["accuracy"] = _stat(statistics.fmean(accuracy), "fraction",
                                    accuracy)
        metrics["f1"] = _stat(statistics.fmean(f1), "fraction", f1)
        makespans = [r.info["makespan_s"] for r in ok if "makespan_s" in r.info]
        if makespans:
            metrics["makespan_s"] = _stat(statistics.fmean(makespans),
                                          "virtual_s", makespans)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics["error_rate"] = {"value": failed / attempted, "unit": "fraction"}
    return metrics


def _summary(workload: Workload, results: list, failures: list) -> dict:
    for r in results:
        failures.extend(r.failures)
    return {
        "workload": workload.name,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "failures": failures,
        "labels_digest": _json_digest([r.digest for r in results]),
        "n_units": len(results),
        "numpy": np.__version__,
    }


def measure(workload: Workload) -> dict:
    """Warm up on the panel's first inputs, then time the whole panel.

    A host-speed sample is taken before the first unit and then after a
    unit whenever ``CAL_EVERY_S`` has passed.  Each unit is rescaled by
    the mean of the samples around it, and of any its workers took.
    """
    start = perf_counter()
    warm = _attempt(workload, workload.run_plain, workload.warmup_unit())
    warmup_s = perf_counter() - start
    samples = [calibrate()]
    sampled_at = perf_counter()
    results, unscaled = [], []
    for k, unit in enumerate(workload.units):
        results.append(_attempt(workload, workload.run_unit, unit))
        unscaled.append(results[-1])
        if (perf_counter() - sampled_at >= CAL_EVERY_S
                or k == len(workload.units) - 1):
            samples.append(calibrate())
            sampled_at = perf_counter()
            for r in unscaled:
                local = samples[-2:] + r.info.get("cal_s", [])
                r.scale = CAL_REF_S / statistics.fmean(local)
            unscaled = []
    first = results[0]
    if not workload.repeats(warm, results):
        first.failures.append("the same inputs gave different labels")
        first.failed = first.attempted
    summary = _summary(workload, results, list(warm.failures))
    summary["end_to_end"] = end_to_end(results)
    summary["warmup_s"] = warmup_s
    summary["host_speed"] = {
        "calibration_s": statistics.median(samples),
        "scale": statistics.median(r.scale for r in results),
        "samples": len(samples) + sum(len(r.info.get("cal_s", []))
                                      for r in results),
    }
    return summary


#: Spans whose self time and calls the trace reports for every workload.
SPAN_NAMES = (
    "core.infer_truths", "core.enrich", "core.classifier_proba", "core.act",
    "core.remember", "core.train", "core.featurize",
    "rl.train", "rl.q_values",
    "inference.joint", "inference.pm", "inference.other",
    "classifiers.fit_soft", "classifiers.predict_proba",
    "crowd.ask_batch", "crowd.ask", "crowd.estimates",
    "serve.deliver", "serve.start", "serve.submit_batch", "serve.clock_pop",
    "baselines.run", "datasets.load",
)
LAYERS = ("core", "rl", "inference", "classifiers", "crowd", "serve",
          "baselines", "datasets")


def trace(workload: Workload, contracts_off: Callable) -> dict:
    """Per-layer self times from a traced re-run of the panel's head.

    Each traced unit is also run untraced, alternating, so the overhead
    ratio compares the same inputs and the labels can be compared.
    Self times are host seconds per unit, not rescaled.
    """
    failures: list = []
    warm = _attempt(workload, workload.run_plain, workload.warmup_unit())
    failures.extend(warm.failures)
    tracer = Tracer()
    with tracer.installed(), tracer.root("setup"):
        units = workload.trace_units()
    n = len(units)
    plain, traced = [], []
    for unit in units:
        plain.append(_attempt(workload, workload.run_plain, unit))
        with tracer.installed():
            traced.append(_attempt(
                workload, lambda u: workload.run_traced(u, tracer), unit))
        if plain[-1].ok and traced[-1].ok and (
                plain[-1].digest != traced[-1].digest):
            failures.append("tracing changed the labels")
            traced[-1].failed = traced[-1].attempted
    try:
        extras = workload.trace_extras(plain, traced, contracts_off)
    except CheckFailed as exc:
        failures.append(str(exc))
        extras = {}
    root_s = tracer.root_s[ROOT]
    reconcile = tracer.reconcile_error()
    if reconcile > 0.01:
        failures.append(f"span self times miss the root wall by "
                        f"{reconcile:.2%}")

    layers: dict = {}

    def put(name, value, unit):
        layers[name] = {"value": float(value), "unit": unit}

    for name in SPAN_NAMES:
        put(f"{name}.self_s", tracer.self_s.get(name, 0.0) / n, "s")
        put(f"{name}.calls", tracer.calls.get(name, 0) / n, "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.layer_self_s(layer) / n, "s")
        put(f"{layer}.calls", tracer.layer_calls(layer) / n, "count")
    counts, calls = tracer.counts, tracer.calls
    for name in ("classifiers.fit_rows", "inference.em_sweeps",
                 "rl.train_steps", "core.enrich.labels", "crowd.answers"):
        put(name, counts.get(name, 0.0) / n, "count")
    put("inference.em_converged_ratio",
        counts.get("inference.em_converged", 0.0)
        / max(tracer.layer_calls("inference"), 1), "ratio")
    put("serve.advance_ratio",
        counts.get("serve.advances", 0.0)
        / max(calls.get("serve.deliver", 0), 1), "ratio")
    put("harness.self_s", tracer.self_s[ROOT] / n, "s")
    put("trace.root_s", root_s / n, "s")
    put("trace.overhead_ratio", root_s / sum(r.wall_s for r in plain),
        "ratio")
    put("trace.unattributed_share", tracer.self_s[ROOT] / root_s, "ratio")
    put("trace.reconcile_error", reconcile, "ratio")
    for name, (value, unit) in extras.items():
        put(name, value, unit)
    summary = _summary(workload, traced, failures)
    summary["per_layer"] = layers
    return summary


def run_units(workload: Workload, n: int) -> dict:
    """Warm up, then time the panel's first ``n`` units (ratio probes)."""
    workload.run_unit(workload.warmup_unit())
    results = [workload.run_unit(unit) for unit in workload.units[:n]]
    return {"walls": [r.wall_s for r in results],
            "digests": [r.digest for r in results],
            "cal_s": calibrate()}
