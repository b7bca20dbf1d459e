"""Budget-fair experiment runs.

Every framework in a comparison gets: the *same* dataset draw, the *same*
annotator pool (identical latent confusion matrices and costs — the pool is
rebuilt from the same seed), and a fresh budget of the same size.  Only the
framework differs, so metric gaps are attributable to the framework.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro import make_platform
from repro.baselines import DALC, DLTA, IDLE, OBA, Hybrid, make_m1, make_m2, make_m3
from repro.core.config import CrowdRLConfig
from repro.core.framework import CrowdRL, LabellingFramework
from repro.core.result import LabellingOutcome
from repro.crowd.compose import wrap
from repro.crowd.cost import CostModel
from repro.crowd.faults import FaultModel
from repro.crowd.resilient import ResiliencePolicy, ResilientCollector
from repro.datasets.base import LabelledDataset
from repro.datasets.registry import load_dataset
from repro.exceptions import CheckpointError, ConfigurationError
from repro.harness.checkpoint import (
    CheckpointRecorder,
    RestoreTargets,
    load_checkpoint,
)
from repro.harness.parallel import ShardContext, SweepOptions, run_sharded
from repro.metrics.classification import ClassificationReport
from repro.obs import (
    JsonlEventLog,
    MetricsRegistry,
    get_registry,
    make_registry,
    metrics_enabled_by_default,
    use_registry,
)
from repro.utils.rng import as_rng

if TYPE_CHECKING:  # annotation-only; the serve layer is imported lazily
    from repro.serve.latency import LatencyModel

#: Every runnable framework, in the paper's reporting order.
FRAMEWORK_NAMES = ("DLTA", "OBA", "IDLE", "DALC", "Hybrid", "CrowdRL")
#: Fig. 8's ablation variants.
ABLATION_NAMES = ("M1", "M2", "M3", "CrowdRL")

#: Paper budgets (Section VI-B1): 10 000 units for the speech datasets,
#: 160 000 for Fashion; scaled linearly with the dataset scale knob.
_PAPER_BUDGETS = {"speech": 10_000.0, "fashion": 160_000.0}


def paper_budget(dataset_name: str, scale: float) -> float:
    """The paper's labelling budget for ``dataset_name``, scaled."""
    key = "fashion" if dataset_name.lower().startswith("fashion") else "speech"
    return _PAPER_BUDGETS[key] * scale


@dataclass(frozen=True)
class ExperimentSetting:
    """One experimental configuration (a point in Figs. 4-8)."""

    dataset_name: str
    scale: float = 0.05
    n_workers: int = 3
    n_experts: int = 2
    budget: Optional[float] = None    # defaults to paper_budget(...)
    alpha: float = 0.05
    k_per_object: int = 3
    subsample: float = 1.0            # Fig. 5's sampling ratio
    seed: int = 0

    def resolve_budget(self) -> float:
        """The run budget: explicit override or the paper's per-dataset value."""
        if self.budget is not None:
            return self.budget
        return paper_budget(self.dataset_name, self.scale) * self.subsample


@dataclass
class ExperimentSpec:
    """How a run executes: faults, resilience, checkpointing, metrics.

    :class:`ExperimentSetting` says *what* is labelled (dataset, pool,
    budget, seed); the spec says *how* the run is executed around the
    framework — fault injection, resilience, checkpointing, platform
    hooks, metrics and serving::

        spec = ExperimentSpec(faults=0.2, metrics=True)
        result = run_experiment("CrowdRL", setting, spec)

    Attributes
    ----------
    faults:
        Inject annotator failures — a ready :class:`FaultModel` or a
        float per-request rate (expanded via :meth:`FaultModel.from_rate`
        with a seed derived from the setting).
    resilient:
        Wrap collection in a :class:`ResilientCollector` (retry /
        reassign / quarantine).  Defaults to on whenever faults are
        injected; a :class:`ResiliencePolicy` tunes it, ``False``
        exposes the framework to the raw faults.
    checkpoint_path / checkpoint_every / resume:
        Journal the run every ``checkpoint_every`` answers; with
        ``resume=True`` restart from the journal, bit-for-bit identical
        to an uninterrupted run (:mod:`repro.harness.checkpoint`).
    platform_hook:
        Applied to the fully wrapped platform before the run (the chaos
        tests inject process kills through it).
    metrics:
        ``True`` collects metrics into a fresh
        :class:`~repro.obs.MetricsRegistry`; a registry instance collects
        into that; ``False`` disables collection; ``None`` (default)
        defers to ``metrics_out``, the ``REPRO_METRICS`` environment
        switch, or any ambient registry installed with
        :func:`repro.obs.use_registry`.
    metrics_out:
        Write the run's JSONL event log (phase events + final snapshot)
        here; implies metrics collection.  Render it with
        ``python -m repro.obs report``.
    serve / latency:
        ``serve=True`` executes the episode through the online serving
        layer (:mod:`repro.serve`): answers complete after seeded
        per-annotator latency on a virtual event clock, overlapped by the
        event-loop collector.  Under the virtual clock the outcome is
        bit-identical to the sync path — the sync run is the oracle.
        ``latency`` is a mean service time in virtual seconds or a full
        :class:`~repro.serve.latency.LatencyModel`; setting it implies
        ``serve=True``.  Serving is incompatible with checkpointing
        (per-answer submission changes the journal granularity).
    """

    faults: Union[None, float, FaultModel] = None
    resilient: Union[None, bool, ResiliencePolicy] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 50
    resume: bool = False
    platform_hook: Optional[Callable] = None
    metrics: Union[None, bool, MetricsRegistry] = None
    metrics_out: Optional[str] = None
    serve: bool = False
    latency: Union[None, float, "LatencyModel"] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise ConfigurationError(
                f"checkpoint_every must be > 0, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint_path is None:
            raise ConfigurationError("resume=True requires checkpoint_path")
        if self.latency is not None:
            self.serve = True
        if self.serve and self.checkpoint_path is not None:
            raise ConfigurationError(
                "serve=True is incompatible with checkpointing: the async "
                "platform submits answers one pair at a time, which changes "
                "the journal's batch granularity"
            )


@dataclass
class RunResult:
    """One framework's outcome on one setting."""

    framework: str
    setting: ExperimentSetting
    outcome: LabellingOutcome
    report: ClassificationReport
    #: Metrics snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`) when
    #: the run collected metrics; ``None`` otherwise.
    metrics: Optional[dict] = None


def make_framework(name: str, setting: ExperimentSetting,
                   rng) -> LabellingFramework:
    """Instantiate a framework by name with the setting's shared knobs."""
    alpha, k = setting.alpha, setting.k_per_object
    config = CrowdRLConfig(alpha=alpha, k_per_object=k)
    factories = {
        "CrowdRL": lambda: CrowdRL(config, rng=rng),
        "DLTA": lambda: DLTA(alpha=alpha, k_per_object=k, rng=rng),
        "OBA": lambda: OBA(alpha=alpha, rng=rng),
        "IDLE": lambda: IDLE(k_workers=k, rng=rng),
        "DALC": lambda: DALC(alpha=alpha, k_per_object=k, rng=rng),
        "Hybrid": lambda: Hybrid(alpha=alpha, k_per_object=k, rng=rng),
        "M1": lambda: make_m1(config, rng=rng),
        "M2": lambda: make_m2(config, rng=rng),
        "M3": lambda: make_m3(config, rng=rng),
    }
    if name not in factories:
        raise ConfigurationError(
            f"unknown framework {name!r}; choose from {sorted(factories)}"
        )
    return factories[name]()


_RL_FRAMEWORKS = ("CrowdRL", "M1", "M2", "M3")

#: Offline-trained policy weights, keyed by pool shape and framework
#: config.  The paper trains its policy offline once and reuses it online
#: (Section VI-A4); caching mirrors that and keeps figure sweeps fast.
_PRETRAINED_POLICIES: dict = {}  # repro: process-local — per-process cache keyed by everything pretraining reads (pool shape and config) and trained on a dedicated offline RNG stream, so a cold cache retrains to the weights a warm one holds and cache warmth changes wall-time only


def clear_pretrained_policies() -> None:
    """Empty the module-global offline-policy cache.

    Pretraining draws from a *dedicated* offline RNG stream (never the
    framework's online stream) and the cache key covers everything it
    reads — the pool shape and the framework's full config — so a cache
    miss retrains to exactly the weights a hit would have returned:
    clearing the cache costs wall-time but never changes results.  Tests
    clear it anyway to keep runs independent of execution order.
    """
    _PRETRAINED_POLICIES.clear()


#: Seed of the offline cross-training RNG stream.  Pretraining episodes
#: draw from this stream — never from the framework's online stream — so
#: the online run makes identical draws whether the policy cache was warm
#: (weights reused) or cold (weights retrained): the cache is
#: result-neutral, which is what lets sharded workers with per-process
#: caches produce bit-identical results to a single serial process.
_OFFLINE_TRAIN_SEED = 424_242


def _cross_train(config: CrowdRLConfig, setting: ExperimentSetting):
    """The paper's offline cross-training (Section VI-A4).

    Before the online evaluation the RL policy is trained on *different*
    data — here generic synthetic labelling tasks of comparable shape — so
    the Q-network starts from an informed policy instead of from scratch.
    Returns the trained policy weights (the caller installs them on its
    framework), cached per (pool shape, config) and reused, as the
    paper's one-off offline training is.  The episodes run on a scratch
    framework whose stream is seeded by :data:`_OFFLINE_TRAIN_SEED`, so
    the cached weights depend only on the key and the evaluation
    framework's online stream is untouched either way.  The config is
    part of the key because the ablations and the alpha sweep train
    different policies on the same pool.
    """
    from repro.datasets.synthetic import make_blobs  # local: avoids cycle

    key = (setting.n_workers, setting.n_experts, repr(config))
    if key in _PRETRAINED_POLICIES:
        return _PRETRAINED_POLICIES[key]

    rng = as_rng(9999)
    scratch = CrowdRL(config, rng=as_rng(_OFFLINE_TRAIN_SEED))
    # One hard and one easy task, so the policy sees both regimes
    # (experts pay off on hard objects, workers suffice on easy ones).
    for episode, separation in enumerate((1.5, 2.5)):
        train_set = make_blobs(
            80, 16, separation=separation,
            name=f"pretrain{episode}", rng=rng,
        )
        platform = make_platform(
            train_set,
            n_workers=setting.n_workers,
            n_experts=setting.n_experts,
            budget=350.0,
            cost_model=CostModel(worker_cost=1.0, expert_cost=10.0),
            rng=10_000 + episode,
        )
        scratch.pretrain(train_set, platform)
    _PRETRAINED_POLICIES[key] = scratch._pretrained_weights
    return scratch._pretrained_weights


def _resolve_metrics(spec: ExperimentSpec):
    """The (registry, event_log) pair a spec asks for; (None, None) = off.

    ``metrics=None`` with no ``metrics_out`` defers to the
    ``REPRO_METRICS`` environment switch; when that is off too, the run
    simply records into whatever ambient registry is active (usually the
    no-op :data:`repro.obs.NULL_REGISTRY`).
    """
    metrics = spec.metrics
    if metrics is None:
        metrics = spec.metrics_out is not None or metrics_enabled_by_default()
    if metrics is False:
        return None, None
    events = (
        JsonlEventLog(spec.metrics_out) if spec.metrics_out is not None
        else None
    )
    if isinstance(metrics, MetricsRegistry):
        if events is not None and metrics.events is None:
            metrics.events = events
        return metrics, events if events is not None else metrics.events
    return make_registry(events=events), events


def run_experiment(
    framework_name: str,
    setting: ExperimentSetting,
    spec: Optional[ExperimentSpec] = None,
    *,
    dataset: Optional[LabelledDataset] = None,
    pretrain: bool = True,
) -> RunResult:
    """Run one framework on one setting and score it.

    ``dataset`` may be supplied to share one draw across frameworks; the
    annotator pool and framework randomness derive deterministically from
    ``setting.seed``, so two frameworks on the same setting face identical
    pools.  RL-based frameworks get one offline cross-training episode
    first (Section VI-A4) unless ``pretrain=False``.

    Execution options — fault injection, resilient collection,
    checkpoint/resume, platform hooks and metrics — are carried by
    ``spec`` (see :class:`ExperimentSpec`), the single entry point for
    run options (the deprecated per-option kwargs were removed after one
    release of ``DeprecationWarning``).

    When the spec enables metrics, the run's registry snapshot lands on
    :attr:`RunResult.metrics` and — with ``metrics_out`` — a JSONL event
    log (phase events, run lifecycle, final snapshot) is flushed
    atomically to disk for ``python -m repro.obs report``.
    """
    spec = spec if spec is not None else ExperimentSpec()
    registry, events = _resolve_metrics(spec)
    if registry is None:
        return _run_experiment(framework_name, setting, spec,
                               dataset=dataset, pretrain=pretrain)
    with use_registry(registry):
        if events is not None:
            events.emit("run_start", framework=framework_name,
                        setting=asdict(setting))
        result = _run_experiment(framework_name, setting, spec,
                                 dataset=dataset, pretrain=pretrain)
        registry.set_gauge("budget.total", result.outcome.budget)
        registry.set_gauge("budget.spent", result.outcome.spent)
        registry.set_gauge("iterations", result.outcome.iterations)
        snapshot = registry.snapshot()
        result.metrics = snapshot
        if events is not None:
            events.emit("run_end", framework=framework_name,
                        spent=result.outcome.spent,
                        iterations=result.outcome.iterations,
                        accuracy=result.report.accuracy)
            events.emit("snapshot", metrics=snapshot)
            events.close()
    return result


def _run_experiment(
    framework_name: str,
    setting: ExperimentSetting,
    spec: ExperimentSpec,
    *,
    dataset: Optional[LabelledDataset],
    pretrain: bool,
) -> RunResult:
    """The metrics-agnostic run body behind :func:`run_experiment`."""
    checkpoint = None
    if spec.resume:
        checkpoint = load_checkpoint(spec.checkpoint_path)
        if checkpoint.framework != framework_name:
            raise CheckpointError(
                f"checkpoint holds a {checkpoint.framework!r} run, cannot "
                f"resume {framework_name!r}"
            )
    if dataset is None:
        dataset = load_dataset(
            setting.dataset_name, scale=setting.scale, rng=setting.seed
        )
    if setting.subsample < 1.0:
        dataset = dataset.subsample(
            setting.subsample, rng=as_rng(setting.seed + 1)
        )
    base_platform = make_platform(
        dataset,
        n_workers=setting.n_workers,
        n_experts=setting.n_experts,
        budget=setting.resolve_budget(),
        cost_model=CostModel(worker_cost=1.0, expert_cost=10.0),
        rng=setting.seed + 1000,
    )
    platform = wrap(
        base_platform,
        faults=spec.faults,
        resilient=spec.resilient,
        fault_seed=setting.seed + 3000,
        resilience_seed=setting.seed + 4000,
    )
    collector: Optional[ResilientCollector] = (
        platform if isinstance(platform, ResilientCollector) else None
    )
    fault_model: Optional[FaultModel] = getattr(platform, "fault_model", None)
    framework_rng = as_rng(setting.seed + 2000)
    framework = make_framework(framework_name, setting, framework_rng)
    if spec.checkpoint_path is not None:
        platform = CheckpointRecorder(
            platform,
            spec.checkpoint_path,
            framework=framework_name,
            setting=asdict(setting),
            restore=RestoreTargets(
                framework_rng=framework_rng,
                annotators=base_platform.pool.annotators,
                fault_model=fault_model,
                collector=collector,
            ),
            every=spec.checkpoint_every,
            resume_from=checkpoint,
        )
    if spec.platform_hook is not None:
        platform = spec.platform_hook(platform)
    if pretrain and framework_name in _RL_FRAMEWORKS:
        framework._pretrained_weights = _cross_train(framework.config, setting)
    # Offline cross-training episodes run on their *own* platforms but
    # attribute their spend to the same budget.* counters; record that
    # share so reports can separate it from the evaluation run's books.
    registry = get_registry()
    registry.set_gauge(
        "budget.pretrain",
        registry.counter_value("budget.collect")
        + registry.counter_value("budget.initial_sample"),
    )
    if spec.serve:
        outcome = _run_served(framework, dataset, platform, setting, spec)
    else:
        outcome = framework.run(dataset, platform)
    if collector is not None:
        outcome.extras["collector"] = collector.stats.as_dict()
        outcome.extras["quarantined"] = sorted(
            collector.quarantined_annotators()
        )
    report = outcome.evaluate(
        platform.evaluation_labels(), n_classes=dataset.n_classes
    )
    return RunResult(framework_name, setting, outcome, report)


def _run_served(
    framework: LabellingFramework,
    dataset: LabelledDataset,
    platform,
    setting: ExperimentSetting,
    spec: ExperimentSpec,
) -> LabellingOutcome:
    """Execute one run through the online serving layer.

    Wraps the (already composed) platform chain in an
    :class:`~repro.serve.platform.AsyncPlatform` on a fresh virtual clock
    and drives the framework's episode with the event-loop collector.
    Under the virtual clock this is bit-identical to ``framework.run``;
    the virtual makespan and overlap counters land in
    ``outcome.extras["serve"]``.
    """
    from repro.serve import (
        AnnotatorLeases,
        AsyncPlatform,
        LatencyModel,
        VirtualClock,
        run_episode_async,
    )

    latency = spec.latency
    if not isinstance(latency, LatencyModel):
        latency = LatencyModel.for_pool(
            platform.pool,
            worker_latency=float(latency) if latency is not None else 1.0,
            rng=setting.seed + 5000,
        )
    clock = VirtualClock()
    leases = AnnotatorLeases(len(platform.pool))
    async_platform = AsyncPlatform(
        platform, latency=latency, clock=clock, leases=leases
    )
    outcome = run_episode_async(framework, dataset, async_platform)
    outcome.extras["serve"] = {
        "makespan": clock.now,
        "completed": async_platform.completed,
        "lease_wait_s": leases.total_wait,
    }
    return outcome


def comparison_shard(payload: dict, ctx: "ShardContext") -> dict:
    """One (setting, seed) shard of a framework comparison.

    The shard task behind :func:`run_comparison` and the figure sweeps:
    module-level so spawn workers pickle it by reference (REPRO015), with
    a JSON-safe payload (``{"framework_names": [...], "setting": {...}}``)
    and a JSON-safe return value, so journalled results survive a
    round-trip through ``result.json`` bit-identically (JSON serialises
    float64 via ``repr``, which round-trips exactly).

    Every framework labels the same shared dataset draw, so the evaluated
    object count comes from the dataset — not from whichever framework
    happened to run last.  A subsampled setting shrinks the draw
    identically for every framework (the subsample RNG derives from the
    seed), so the expected count is the subsampled size.

    All randomness derives from ``setting.seed``; the shard's own
    ``ctx.rng`` is deliberately unused, keeping the shard's result a pure
    function of its payload.  With a journalling sweep, each framework's
    run checkpoints into the shard's private directory
    (``ctx.journal_dir``) so a killed sweep resumes mid-run; with
    metrics collection, each run's event log lands in ``ctx.metrics_dir``
    for the engine's shard-index-order merge.
    """
    framework_names = tuple(payload["framework_names"])
    setting = ExperimentSetting(**payload["setting"])
    dataset = load_dataset(
        setting.dataset_name, scale=setting.scale, rng=setting.seed
    )
    if setting.subsample < 1.0:
        n_objects = dataset.subsample(
            setting.subsample, rng=as_rng(setting.seed + 1)
        ).n_objects
    else:
        n_objects = dataset.n_objects
    reports: dict[str, list] = {}
    for position, name in enumerate(framework_names):
        spec = None
        if ctx.journal_dir is not None:
            checkpoint = ctx.journal_dir / f"run-{position:02d}-{name}.ckpt"
            metrics_out = (
                str(ctx.metrics_dir / f"metrics-{position:02d}-{name}.jsonl")
                if ctx.metrics_dir is not None else None
            )
            spec = ExperimentSpec(
                checkpoint_path=str(checkpoint),
                resume=bool(ctx.resuming and checkpoint.exists()),
                metrics_out=metrics_out,
            )
        result = run_experiment(name, setting, spec, dataset=dataset)
        report = result.report
        if report.n_evaluated != n_objects:
            raise ConfigurationError(
                f"framework {name!r} evaluated {report.n_evaluated} "
                f"objects, shared dataset has {n_objects}; comparison "
                f"metrics would not be comparable"
            )
        reports[name] = [report.precision, report.recall, report.f1,
                         report.accuracy]
    return {"n_objects": n_objects, "reports": reports}


def merge_comparison(
    shard_values: Sequence[dict],
    framework_names: tuple[str, ...],
    n_seeds: int,
) -> dict[str, ClassificationReport]:
    """Deterministically merge :func:`comparison_shard` values, in order.

    Replicates the pre-engine serial arithmetic exactly — accumulate each
    seed's ``[precision, recall, f1, accuracy]`` into a float64 vector in
    seed order, then divide by ``n_seeds`` — so a sharded sweep's merged
    reports are bit-identical to the historical in-process loop.
    """
    sums: dict[str, np.ndarray] = {
        name: np.zeros(4) for name in framework_names
    }
    n_objects = 0
    for value in shard_values:
        n_objects = int(value["n_objects"])
        for name in framework_names:
            sums[name] += value["reports"][name]
    return {
        name: ClassificationReport(
            precision=float(vals[0] / n_seeds),
            recall=float(vals[1] / n_seeds),
            f1=float(vals[2] / n_seeds),
            accuracy=float(vals[3] / n_seeds),
            n_evaluated=n_objects,
        )
        for name, vals in sums.items()
    }


#: A sweep job: (tag, framework names, setting) — one x-axis cell of a
#: figure, expanded into ``n_seeds`` shards by :func:`_sweep`.
_Job = Tuple[str, Tuple[str, ...], ExperimentSetting]


def _sweep(jobs: Sequence[_Job], *, n_seeds: int, base_seed: int,
           parallel: Union[int, SweepOptions, None]
           ) -> list[dict[str, ClassificationReport]]:
    """Run a (job x seed) grid as one sharded sweep.

    The figures pass their whole grid; :func:`run_comparison` passes one
    job.

    Shard order is (job, seed offset) row-major, so the merged per-job
    reports replicate the historical nested loops exactly; the engine
    guarantees the same merge regardless of worker count, retries, or a
    kill/resume cycle.  Returns one report dict per job, in job order.

    ``base_seed`` is the sweep engine's *root* seed, not a stream: the
    engine only ever derives children from it (per-shard spawn streams,
    per-(shard, attempt) backoff jitter via ``SeedSequence``), so sharing
    the figure's base seed with the settings never correlates draws.
    """
    if n_seeds <= 0:
        raise ConfigurationError(f"n_seeds must be > 0, got {n_seeds}")
    options = SweepOptions.coerce(parallel)
    if not isinstance(parallel, SweepOptions):
        options = replace(options, seed=base_seed)
    payloads = []
    tags = []
    for tag, names, setting in jobs:
        for offset in range(n_seeds):
            seeded = replace(setting, seed=setting.seed + offset)
            payloads.append({
                "framework_names": list(names),
                "setting": asdict(seeded),
            })
            tags.append(f"{tag}:seed{seeded.seed}")
    outcomes = run_sharded(comparison_shard, payloads, tags=tags,
                           options=options)
    return [
        merge_comparison(
            [outcomes[j * n_seeds + offset].value
             for offset in range(n_seeds)],
            tuple(names), n_seeds,
        )
        for j, (tag, names, setting) in enumerate(jobs)
    ]


def run_comparison(
    framework_names: tuple[str, ...],
    setting: ExperimentSetting,
    *,
    n_seeds: int = 1,
    parallel: Union[int, "SweepOptions", None] = None,
) -> dict[str, ClassificationReport]:
    """Run several frameworks on a setting, averaging over ``n_seeds`` seeds.

    One shard per seed, executed through the fault-tolerant engine
    (:mod:`repro.harness.parallel`) as a one-job :func:`_sweep`.
    ``parallel`` is a worker count or a full
    :class:`~repro.harness.parallel.SweepOptions`; the default (one
    in-process worker) reproduces the historical serial loop bit-for-bit,
    and any worker count produces the same merged reports because each
    shard's result depends only on its seeded setting.
    """
    return _sweep([(setting.dataset_name, tuple(framework_names), setting)],
                  n_seeds=n_seeds, base_seed=setting.seed,
                  parallel=parallel)[0]
