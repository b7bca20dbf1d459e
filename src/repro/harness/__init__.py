"""Experiment harness: runs frameworks on paper settings, prints figures.

:mod:`repro.harness.experiment` provides budget-fair single runs,
:mod:`repro.harness.figures` defines one function per evaluation figure
(Figs. 4-8), and :mod:`repro.harness.report` renders the numbers the paper
plots as plain-text tables/series.
"""

from repro.harness.checkpoint import (
    CheckpointRecorder,
    RunCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.harness.experiment import (
    FRAMEWORK_NAMES,
    ExperimentSetting,
    ExperimentSpec,
    RunResult,
    clear_pretrained_policies,
    make_framework,
    paper_budget,
    run_comparison,
    run_experiment,
)
from repro.harness.figures import fig4, fig5, fig6, fig7, fig8
from repro.harness.parallel import (
    ShardContext,
    ShardedRunner,
    ShardOutcome,
    SweepOptions,
    run_sharded,
)
from repro.harness.report import render_figure
from repro.harness.serialization import (
    load_outcome,
    load_policy_weights,
    save_outcome,
    save_policy_weights,
)
from repro.harness.stats import (
    MetricSummary,
    bootstrap_mean_difference,
    paired_win_rate,
    summarize,
)

__all__ = [
    "ExperimentSetting",
    "ExperimentSpec",
    "RunResult",
    "FRAMEWORK_NAMES",
    "make_framework",
    "paper_budget",
    "run_experiment",
    "run_comparison",
    "clear_pretrained_policies",
    "ShardContext",
    "ShardOutcome",
    "ShardedRunner",
    "SweepOptions",
    "run_sharded",
    "RunCheckpoint",
    "CheckpointRecorder",
    "save_checkpoint",
    "load_checkpoint",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "render_figure",
    "save_outcome",
    "load_outcome",
    "save_policy_weights",
    "load_policy_weights",
    "MetricSummary",
    "summarize",
    "paired_win_rate",
    "bootstrap_mean_difference",
]
