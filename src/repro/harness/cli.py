"""Command-line entry point for regenerating the paper's figures.

Usage::

    python -m repro.harness.cli fig4 --scale 0.05 --seeds 2
    python -m repro.harness.cli fig5 --seeds 4 --parallel 4
    python -m repro.harness.cli fig5 --parallel 4 --journal sweep/ --resume
    python -m repro.harness.cli fig8 --scale 0.1
    python -m repro.harness.cli run --framework CrowdRL --dataset S12CP
    python -m repro.harness.cli run --framework CrowdRL --dataset S12CP --serve
    python -m repro.harness.cli serve --projects 8 --max-active 3

The figure subcommands print the same rows/series the paper plots (see
:mod:`repro.harness.figures`); ``run`` executes a single framework on a
single dataset and prints its metric report (``--serve`` routes it
through the online serving layer, bit-identical to the sync path);
``serve`` drives many concurrent projects on one shared annotator pool
through :class:`repro.serve.ServeEngine`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    FRAMEWORK_NAMES,
    ExperimentSetting,
    ExperimentSpec,
    run_experiment,
)
from repro.harness.figures import fig4, fig5, fig6, fig7, fig8
from repro.harness.parallel import SweepOptions
from repro.harness.report import render_figures

_FIGURES = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": lambda **kw: [fig8(**kw)],
}


def build_parser() -> argparse.ArgumentParser:
    """Build the harness parser (figure, ``run`` and ``serve`` subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate the CrowdRL paper's evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES:
        fig_parser = sub.add_parser(name, help=f"regenerate {name}")
        fig_parser.add_argument("--scale", type=float, default=0.05,
                                help="dataset scale (1.0 = paper size)")
        fig_parser.add_argument("--seeds", type=int, default=1,
                                help="seeds to average per configuration")
        fig_parser.add_argument("--seed", type=int, default=0,
                                help="base random seed")
        fig_parser.add_argument(
            "--parallel", type=int, default=1, metavar="N",
            help="worker processes for the sharded sweep (default 1 = "
                 "in-process serial; any N produces identical numbers)")
        fig_parser.add_argument(
            "--shard-timeout", type=float, default=120.0, metavar="SECONDS",
            help="seconds without a heartbeat before a worker is presumed "
                 "hung and its shard is relaunched (default 120)")
        fig_parser.add_argument(
            "--shard-retries", type=int, default=2, metavar="N",
            help="relaunches per shard after worker crashes/hangs before "
                 "degrading to in-process execution (default 2)")
        fig_parser.add_argument(
            "--journal", default=None, metavar="DIR",
            help="journal completed shards under DIR so a killed sweep can "
                 "be resumed with --resume")
        fig_parser.add_argument(
            "--resume", action="store_true",
            help="resume the sweep journalled at --journal: finished shards "
                 "load from disk, interrupted shards restart from their "
                 "run checkpoints")
        fig_parser.add_argument(
            "--metrics", action="store_true",
            help="collect per-shard obs event logs and merge them (in "
                 "shard-index order) into DIR/metrics.jsonl; needs --journal")

    run_parser = sub.add_parser("run", help="run one framework once")
    run_parser.add_argument("--framework", required=True,
                            choices=sorted(FRAMEWORK_NAMES + ("M1", "M2", "M3")))
    run_parser.add_argument("--dataset", required=True,
                            help="paper dataset name, e.g. S12CP or Fashion")
    run_parser.add_argument("--scale", type=float, default=0.05)
    run_parser.add_argument("--budget", type=float, default=None)
    run_parser.add_argument("--workers", type=int, default=3)
    run_parser.add_argument("--experts", type=int, default=2)
    run_parser.add_argument("--alpha", type=float, default=0.05)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--faults", type=float, default=None, metavar="RATE",
        help="inject annotator faults at this per-request rate (0..1); "
             "implies the resilient collector")
    run_parser.add_argument(
        "--no-resilient", action="store_true",
        help="face injected faults without the resilient collector "
             "(the run will likely crash — demonstration/debugging only)")
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal the run to PATH for kill/resume recovery")
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=50, metavar="N",
        help="checkpoint every N collected answers (default 50)")
    run_parser.add_argument(
        "--resume", action="store_true",
        help="resume the run journalled at --checkpoint")
    run_parser.add_argument(
        "--metrics", action="store_true",
        help="collect phase timings / counters and print a summary")
    run_parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics JSONL event log to PATH (implies "
             "--metrics); render with `python -m repro.obs report PATH`")
    run_parser.add_argument(
        "--serve", action="store_true",
        help="execute through the online serving layer (async answers on "
             "a virtual event clock; bit-identical to the sync path)")
    run_parser.add_argument(
        "--latency", type=float, default=None, metavar="SECONDS",
        help="mean worker service time in virtual seconds (experts take "
             "3x); implies --serve")

    serve_parser = sub.add_parser(
        "serve", help="drive many concurrent labelling projects on one "
                      "shared annotator pool (the multi-tenant service)")
    serve_parser.add_argument("--projects", type=int, default=8,
                              help="number of concurrent labelling projects "
                                   "(default 8)")
    serve_parser.add_argument("--dataset", default="S12CP",
                              help="paper dataset name each project draws "
                                   "(per-project seeds differ)")
    serve_parser.add_argument("--scale", type=float, default=0.05)
    serve_parser.add_argument("--budget", type=float, default=None,
                              help="per-project budget (default: the "
                                   "paper budget for the dataset/scale)")
    serve_parser.add_argument("--workers", type=int, default=3)
    serve_parser.add_argument("--experts", type=int, default=2)
    serve_parser.add_argument("--max-active", type=int, default=None,
                              metavar="N",
                              help="admission cap: at most N sessions "
                                   "active at once (default: no cap)")
    serve_parser.add_argument("--latency", type=float, default=1.0,
                              metavar="SECONDS",
                              help="mean worker service time in virtual "
                                   "seconds (experts take 3x; default 1.0)")
    serve_parser.add_argument("--faults", type=float, default=None,
                              metavar="RATE",
                              help="inject annotator faults at this rate "
                                   "in every project (implies resilient "
                                   "collection)")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--metrics-dir", default=None, metavar="DIR",
                              help="stream per-session metrics JSONL files "
                                   "to DIR (one file per project; render "
                                   "with `python -m repro.obs report`)")
    return parser


def _run_serve(args: argparse.Namespace) -> int:
    """Execute the ``serve`` subcommand: N concurrent projects, one pool."""
    from repro.crowd.pool import AnnotatorPool
    from repro.datasets import load_dataset
    from repro.harness.experiment import make_framework, paper_budget
    from repro.serve import LatencyModel, ServeEngine

    if args.projects <= 0:
        print("--projects must be > 0", file=sys.stderr)
        return 2
    datasets = [
        load_dataset(args.dataset, scale=args.scale, rng=args.seed + 100 + i)
        for i in range(args.projects)
    ]
    pool = AnnotatorPool.build(
        datasets[0].n_classes, args.workers, args.experts, rng=args.seed
    )
    latency = LatencyModel.for_pool(
        pool, worker_latency=args.latency, rng=args.seed + 5000
    )
    engine = ServeEngine(
        pool,
        latency=latency,
        max_active=args.max_active,
        metrics_dir=args.metrics_dir,
    )
    budget = (args.budget if args.budget is not None
              else paper_budget(args.dataset, args.scale))
    setting = ExperimentSetting(
        dataset_name=args.dataset,
        scale=args.scale,
        n_workers=args.workers,
        n_experts=args.experts,
        seed=args.seed,
    )
    for i, dataset in enumerate(datasets):
        framework = make_framework(
            "CrowdRL", setting, rng=args.seed + 200 + i
        )
        engine.add_project(
            f"project-{i}", dataset, framework,
            budget=budget, faults=args.faults, seed=args.seed + i,
        )
    report = engine.run()
    print(report.render())
    if args.metrics_dir is not None:
        print(f"metrics   : per-session event logs under {args.metrics_dir}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch the parsed subcommand and return a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        return _run_serve(args)

    if args.command in _FIGURES:
        try:
            options = SweepOptions(
                parallel=args.parallel,
                shard_timeout=args.shard_timeout,
                shard_retries=args.shard_retries,
                journal_dir=args.journal,
                resume=args.resume,
                metrics=args.metrics,
                seed=args.seed,
            )
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        panels = _FIGURES[args.command](
            scale=args.scale, n_seeds=args.seeds, seed=args.seed,
            parallel=options,
        )
        print(render_figures(panels))
        return 0

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    setting = ExperimentSetting(
        dataset_name=args.dataset,
        scale=args.scale,
        n_workers=args.workers,
        n_experts=args.experts,
        budget=args.budget,
        alpha=args.alpha,
        seed=args.seed,
    )
    spec = ExperimentSpec(
        faults=args.faults,
        resilient=False if args.no_resilient else None,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        metrics=True if (args.metrics or args.metrics_out) else None,
        metrics_out=args.metrics_out,
        serve=args.serve,
        latency=args.latency,
    )
    result = run_experiment(args.framework, setting, spec)
    report = result.report
    print(f"framework : {args.framework}")
    print(f"dataset   : {args.dataset} (n={report.n_evaluated})")
    print(f"budget    : {result.outcome.spent:.0f} / "
          f"{setting.resolve_budget():.0f} spent")
    print(f"iterations: {result.outcome.iterations}")
    print(f"sources   : {result.outcome.source_counts()}")
    collector = result.outcome.extras.get("collector")
    if collector is not None:
        quarantined = result.outcome.extras.get("quarantined", [])
        print(f"resilience: {collector['answers']} answers, "
              f"{collector['retries']} retries, "
              f"{collector['reassignments']} reassignments, "
              f"{collector['gave_up']} given up, "
              f"quarantined={quarantined}")
    served = result.outcome.extras.get("serve")
    if served is not None:
        print(f"serving   : virtual makespan {served['makespan']:.2f}s, "
              f"{served['completed']} answers, "
              f"lease wait {served['lease_wait_s']:.2f}s")
    print(f"precision={report.precision:.3f} recall={report.recall:.3f} "
          f"f1={report.f1:.3f} accuracy={report.accuracy:.3f}")
    if result.metrics is not None:
        from repro.obs import render_report, summarize_snapshot

        print()
        print(render_report(summarize_snapshot(result.metrics)))
    if args.metrics_out is not None:
        print(f"metrics   : event log written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
