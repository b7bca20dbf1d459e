"""Per-figure experiment definitions (Figs. 4-8 of the paper).

Each ``figN`` function runs the corresponding experiment at a configurable
``scale`` (1.0 = paper-size datasets; benches default far smaller — the
shapes, not the wall-clock, are what reproduce) and returns a
:class:`FigureResult` that :func:`repro.harness.report.render_figure`
prints as the rows/series the paper plots.

Every figure executes through the fault-tolerant sharded engine
(:mod:`repro.harness.parallel`): the figure's (configuration x seed) grid
becomes one shard per cell, fanned over ``parallel`` workers and merged in
shard-index order.  The default ``parallel=None`` runs the shards
in-process in grid order — the historical serial loops, bit for bit —
and any worker count yields the same numbers because each shard's result
is a pure function of its seeded setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    ABLATION_NAMES,
    FRAMEWORK_NAMES,
    ExperimentSetting,
    _Job,
    _sweep,
    run_comparison,
)
from repro.harness.parallel import SweepOptions

__all__ = [
    "ALL_DATASETS",
    "PANEL_DATASETS",
    "SPEECH_DATASETS",
    "FigureResult",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "run_comparison",
]

#: Fig. 4/5/6/7 dataset panels.
SPEECH_DATASETS = ("S12C", "S12P", "S12CP", "S3C", "S3P", "S3CP")
ALL_DATASETS = SPEECH_DATASETS + ("Fashion",)
PANEL_DATASETS = ("S12CP", "S3CP", "Fashion")

#: Fashion is ~14x larger than the speech datasets; scaling it by the same
#: knob would dominate every figure's runtime, so its scale is normalised
#: to yield roughly the speech datasets' object count.
_FASHION_SCALE_RATIO = 2344 / 32_398

def _dataset_scale(dataset_name: str, scale: float) -> float:
    if dataset_name.lower().startswith("fashion"):
        return scale * _FASHION_SCALE_RATIO
    return scale


def _annotators_for(dataset_name: str) -> tuple[int, int]:
    """Default pool split: |W|=5 for speech, |W|=3 for Fashion (Sec. VI-B1)."""
    if dataset_name.lower().startswith("fashion"):
        return 2, 1   # 3 annotators
    return 3, 2       # 5 annotators


def _split_pool(total: int) -> tuple[int, int]:
    """Split |W| into workers/experts for the Fig. 6 sweep.

    Growing pools add mostly *workers* (experts stay scarce: 1 until
    |W| >= 6, then 2).  This matches the economics of the paper's Fig. 6 —
    more annotators buy more redundancy, so every method improves — rather
    than flooding the pool with 10x-cost experts, which would make larger
    pools strictly more expensive per answer.
    """
    if total <= 0:
        raise ConfigurationError(f"need a positive pool size, got {total}")
    n_experts = (2 if total >= 6 else 1) if total >= 2 else 0
    return total - n_experts, n_experts


@dataclass
class FigureResult:
    """A figure's data: one metric value per (x-label, series) cell."""

    figure: str
    x_label: str
    x_values: list
    series: dict[str, list[float]] = field(default_factory=dict)
    metric: str = "precision"

    def add(self, series_name: str, value: float) -> None:
        self.series.setdefault(series_name, []).append(value)


def fig4(*, scale: float = 0.02, n_seeds: int = 1, seed: int = 0,
         frameworks: Sequence[str] = FRAMEWORK_NAMES,
         datasets: Sequence[str] = ALL_DATASETS,
         parallel: Union[int, SweepOptions, None] = None
         ) -> list[FigureResult]:
    """Fig. 4: Precision / Recall / F1 per framework per dataset, equal budget."""
    panels = [
        FigureResult("fig4", "dataset", list(datasets), metric=m)
        for m in ("precision", "recall", "f1")
    ]
    jobs: list[_Job] = []
    for dataset_name in datasets:
        n_workers, n_experts = _annotators_for(dataset_name)
        jobs.append((f"fig4:{dataset_name}", tuple(frameworks),
                     ExperimentSetting(
                         dataset_name=dataset_name,
                         scale=_dataset_scale(dataset_name, scale),
                         n_workers=n_workers, n_experts=n_experts, seed=seed,
                     )))
    for reports in _sweep(jobs, n_seeds=n_seeds, base_seed=seed,
                          parallel=parallel):
        for name in frameworks:
            report = reports[name]
            panels[0].add(name, report.precision)
            panels[1].add(name, report.recall)
            panels[2].add(name, report.f1)
    return panels


def _panel_sweep(figure: str, x_label: str, tag: str, x_values: Sequence,
                 vary: Callable[[object], dict], *, scale: float,
                 n_seeds: int, seed: int, frameworks: Sequence[str],
                 datasets: Sequence[str],
                 parallel: Union[int, SweepOptions, None]
                 ) -> list[FigureResult]:
    """Figs. 5-7: one precision panel per dataset, one point per x value.

    Every cell starts from the dataset's default setting;
    ``vary(x)`` gives the setting fields the figure varies, and
    ``tag`` prefixes ``x`` in the cell's job label.
    """
    jobs: list[_Job] = []
    for dataset_name in datasets:
        n_workers, n_experts = _annotators_for(dataset_name)
        for x in x_values:
            fields = {"n_workers": n_workers, "n_experts": n_experts,
                      **vary(x)}
            jobs.append((f"{figure}:{dataset_name}:{tag}{x}",
                         tuple(frameworks),
                         ExperimentSetting(
                             dataset_name=dataset_name,
                             scale=_dataset_scale(dataset_name, scale),
                             seed=seed, **fields,
                         )))
    merged = _sweep(jobs, n_seeds=n_seeds, base_seed=seed, parallel=parallel)
    results = []
    for d, dataset_name in enumerate(datasets):
        panel = FigureResult(f"{figure}:{dataset_name}", x_label,
                             list(x_values))
        for i in range(len(x_values)):
            reports = merged[d * len(x_values) + i]
            for name in frameworks:
                panel.add(name, reports[name].precision)
        results.append(panel)
    return results


def fig5(*, scale: float = 0.02, n_seeds: int = 1, seed: int = 0,
         frameworks: Sequence[str] = FRAMEWORK_NAMES,
         ratios: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
         datasets: Sequence[str] = PANEL_DATASETS,
         parallel: Union[int, SweepOptions, None] = None
         ) -> list[FigureResult]:
    """Fig. 5: precision vs dataset sampling ratio (scalability)."""
    return _panel_sweep(
        "fig5", "sampling ratio", "r", ratios,
        lambda ratio: {"subsample": ratio},
        scale=scale, n_seeds=n_seeds, seed=seed, frameworks=frameworks,
        datasets=datasets, parallel=parallel,
    )


def fig6(*, scale: float = 0.02, n_seeds: int = 1, seed: int = 0,
         frameworks: Sequence[str] = FRAMEWORK_NAMES,
         pool_sizes: Sequence[int] = (3, 5, 7),
         datasets: Sequence[str] = PANEL_DATASETS,
         parallel: Union[int, SweepOptions, None] = None
         ) -> list[FigureResult]:
    """Fig. 6: precision vs number of annotators |W|."""
    return _panel_sweep(
        "fig6", "|W|", "w", pool_sizes,
        lambda total: dict(zip(("n_workers", "n_experts"),
                               _split_pool(total))),
        scale=scale, n_seeds=n_seeds, seed=seed, frameworks=frameworks,
        datasets=datasets, parallel=parallel,
    )


def fig7(*, scale: float = 0.02, n_seeds: int = 1, seed: int = 0,
         frameworks: Sequence[str] = FRAMEWORK_NAMES,
         alphas: Sequence[float] = (0.01, 0.05, 0.1),
         datasets: Sequence[str] = PANEL_DATASETS,
         parallel: Union[int, SweepOptions, None] = None
         ) -> list[FigureResult]:
    """Fig. 7: precision vs initial sampling rate alpha."""
    return _panel_sweep(
        "fig7", "alpha", "a", alphas, lambda alpha: {"alpha": alpha},
        scale=scale, n_seeds=n_seeds, seed=seed, frameworks=frameworks,
        datasets=datasets, parallel=parallel,
    )


def fig8(*, scale: float = 0.02, n_seeds: int = 1, seed: int = 0,
         datasets: Sequence[str] = PANEL_DATASETS,
         parallel: Union[int, SweepOptions, None] = None) -> FigureResult:
    """Fig. 8: ablations M1/M2/M3 vs full CrowdRL (accuracy)."""
    panel = FigureResult("fig8", "dataset", list(datasets), metric="accuracy")
    jobs: list[_Job] = []
    for dataset_name in datasets:
        n_workers, n_experts = _annotators_for(dataset_name)
        jobs.append((f"fig8:{dataset_name}", ABLATION_NAMES,
                     ExperimentSetting(
                         dataset_name=dataset_name,
                         scale=_dataset_scale(dataset_name, scale),
                         n_workers=n_workers, n_experts=n_experts, seed=seed,
                     )))
    for reports in _sweep(jobs, n_seeds=n_seeds, base_seed=seed,
                          parallel=parallel):
        for name in ABLATION_NAMES:
            panel.add(name, reports[name].accuracy)
    return panel
