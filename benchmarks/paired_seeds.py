"""The paired-seed protocol for result-changing changes.

A change that moves a framework's numbers is judged on paired seeds, not
on one run: the same 24 seeds on each Fig. 8 panel (S12CP, S3CP,
Fashion), with settings built as ``fig8`` builds them
(``_annotators_for``, ``_dataset_scale`` at scale 0.05) and cross-trained
as ``run_experiment`` does by default.  ``run`` records each run's
accuracy and F1 from one checkout, for CrowdRL unless ``--frameworks``
names others (one record per framework); ``compare`` pairs two such
files seed by seed and prints, per framework, the difference
``CHANGE - BASE`` with its 95% bootstrap CI
(``harness.stats.bootstrap_mean_difference(..., rng=0)``), per panel and
pooled over all runs.  EXPERIMENTS.md "Design ablations" describes the
protocol and records its tables.

Usage::

    PYTHONPATH=src python benchmarks/paired_seeds.py run --out base.json
    # ... on the changed checkout:
    PYTHONPATH=src python benchmarks/paired_seeds.py run --out change.json
    PYTHONPATH=src python benchmarks/paired_seeds.py compare base.json change.json

``run`` takes about 30 s on two spawn workers for CrowdRL.
``--frameworks DLTA,IDLE,DALC`` judges the Dawid–Skene baselines, and
``--seeds 48`` widens the block to seeds 0-47.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from repro.harness.experiment import ExperimentSetting, comparison_shard
from repro.harness.figures import (
    PANEL_DATASETS,
    _annotators_for,
    _dataset_scale,
)
from repro.harness.parallel import run_sharded
from repro.harness.stats import bootstrap_mean_difference

SCALE = 0.05
SEEDS = range(24)
FRAMEWORK = "CrowdRL"
WORKERS = 2
METRICS = ("accuracy", "f1")
#: Index of each metric in ``comparison_shard``'s report list
#: ``[precision, recall, f1, accuracy]``.
_REPORT_FIELD = {"f1": 2, "accuracy": 3}


def _setting(dataset_name: str, seed: int) -> ExperimentSetting:
    n_workers, n_experts = _annotators_for(dataset_name)
    return ExperimentSetting(
        dataset_name=dataset_name,
        scale=_dataset_scale(dataset_name, SCALE),
        n_workers=n_workers, n_experts=n_experts, seed=seed,
    )


def run(out: str, frameworks: Sequence[str] = (FRAMEWORK,),
        seeds: Sequence[int] = SEEDS) -> list[dict]:
    """Run ``frameworks`` over ``seeds`` x ``PANEL_DATASETS``; write ``out``.

    Returns one record per framework.  One framework writes its record;
    several write the list.
    """
    cells = [(name, seed) for name in PANEL_DATASETS for seed in seeds]
    payloads = [
        {"framework_names": list(frameworks),
         "setting": asdict(_setting(name, seed))}
        for name, seed in cells
    ]
    outcomes = run_sharded(
        comparison_shard, payloads,
        tags=[f"{name}:seed{seed}" for name, seed in cells],
        options=WORKERS,
    )
    records = []
    for framework in frameworks:
        runs = []
        for (name, seed), outcome in zip(cells, outcomes):
            report = outcome.value["reports"][framework]
            runs.append({"dataset": name, "seed": seed, **{
                metric: report[_REPORT_FIELD[metric]] for metric in METRICS
            }})
        records.append({"framework": framework, "scale": SCALE, "runs": runs})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records[0] if len(records) == 1 else records, fh, indent=1)
        fh.write("\n")
    return records


def _paired(base: dict, change: dict, metric: str,
            dataset: str | None) -> tuple[np.ndarray, np.ndarray]:
    def values(record):
        return {(r["dataset"], r["seed"]): r[metric] for r in record["runs"]
                if dataset is None or r["dataset"] == dataset}

    a, b = values(base), values(change)
    if sorted(a) != sorted(b):
        raise SystemExit(f"{dataset or 'all'}: the two files cover different "
                         f"(dataset, seed) runs")
    keys = sorted(a)
    return (np.array([a[k] for k in keys]), np.array([b[k] for k in keys]))


def _cell(diff: float, low: float, high: float) -> str:
    bold = "**" if low > 0 or high < 0 else ""
    return f"{bold}{diff:+.3f} [{low:+.3f}, {high:+.3f}]{bold}"


def _table(base: dict, change: dict) -> list[str]:
    """Markdown rows of one framework's ``change - base`` per panel and
    pooled."""
    present = {r["dataset"] for r in base["runs"]}
    panels = [name for name in PANEL_DATASETS if name in present]
    lines = ["| panel | runs | base acc | change acc | change − base acc "
             "| change − base F1 |",
             "|---|---|---|---|---|---|"]
    for dataset in [*panels, None]:
        cells = []
        for metric in METRICS:
            a, b = _paired(base, change, metric, dataset)
            cells.append(_cell(*bootstrap_mean_difference(b, a, rng=0)))
        a, b = _paired(base, change, "accuracy", dataset)
        label = dataset or f"all {a.size}"
        lines.append(f"| {label} | {a.size} | {a.mean():.3f} | {b.mean():.3f} "
                     f"| {cells[0]} | {cells[1]} |")
    return lines


def compare(base: dict | list[dict], change: dict | list[dict]) -> list[str]:
    """One ``change - base`` table per framework the two files share,
    headed by the framework's name when there are several."""
    bases, changes = ([r] if isinstance(r, dict) else r
                      for r in (base, change))
    by_name = {r["framework"]: r for r in changes}
    if sorted(by_name) != sorted(r["framework"] for r in bases):
        raise SystemExit("the two files cover different frameworks")
    if len(bases) == 1:
        return _table(bases[0], by_name[bases[0]["framework"]])
    lines: list[str] = []
    for record in bases:
        if lines:
            lines.append("")
        lines += [f"{record['framework']}:", "",
                  *_table(record, by_name[record["framework"]])]
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="record per-run accuracy/F1 as JSON")
    run_p.add_argument("--out", required=True, help="JSON file to write")
    run_p.add_argument("--frameworks", default=FRAMEWORK,
                       help="comma-separated frameworks to run "
                            f"(default {FRAMEWORK})")
    run_p.add_argument("--seeds", type=int, default=len(SEEDS),
                       help=f"run seeds 0..N-1 (default {len(SEEDS)})")
    cmp_p = sub.add_parser("compare", help="paired CHANGE - BASE table")
    cmp_p.add_argument("base", help="JSON from `run` on the base checkout")
    cmp_p.add_argument("change", help="JSON from `run` on the changed checkout")
    args = parser.parse_args(argv)

    if args.command == "run":
        for record in run(args.out, args.frameworks.split(","),
                          range(args.seeds)):
            print(f"wrote {args.out}: {len(record['runs'])} runs of "
                  f"{record['framework']}")
        return 0
    loaded = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    print("\n".join(compare(*loaded)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
