"""Command-line front end: ``python -m repro.obs``.

Subcommands::

    python -m repro.obs report metrics.jsonl            # per-phase table
    python -m repro.obs report metrics.jsonl --format json
    python -m repro.obs report metrics.jsonl \
        --baseline benchmarks/results/BENCH_phase_baselines.json
    python -m repro.obs report metrics.jsonl \
        --baseline ... --write-baseline   # re-baseline intentionally

``report`` renders the per-phase wall-time / call-count / budget table
from a metrics JSONL file written by ``run_experiment(...,
metrics_out=...)`` (see :mod:`repro.obs.report`).  With ``--baseline``
it instead ratchets the run's per-phase minima against a committed
baseline (see :mod:`repro.obs.baseline`), exiting 1 on any regression
beyond ``--tolerance`` or on any pinned work counter above its pin;
``--write-baseline`` rewrites the baseline from this run instead of
comparing.  Both normalise by the median of the
``calibration`` events the run recorded, and time the kernel themselves
only for a log that has none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.exceptions import ReproError
from repro.obs.baseline import (
    DEFAULT_TOLERANCE,
    calibrate,
    compare_to_baseline,
    compare_work,
    load_baseline,
    phase_minima,
    recorded_calibration,
    render_comparison,
    render_work,
    run_work,
    write_baseline,
)
from repro.obs.report import load_summary, render_report


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Observability tooling for CrowdRL runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="summarise a metrics JSONL file per phase"
    )
    report.add_argument("path", help="metrics .jsonl file to summarise")
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.add_argument(
        "--baseline",
        metavar="JSON",
        help="ratchet per-phase minima and pinned work counters against "
        "this committed baseline instead of rendering the summary table "
        "(exit 1 on regression)",
    )
    report.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="normalised regression ratio that fails the ratchet "
        f"(default {DEFAULT_TOLERANCE}, i.e. >25%% slower)",
    )
    report.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite --baseline from this run's minima and work counts "
        "instead of comparing",
    )
    return parser


def _run_baseline_mode(args: argparse.Namespace) -> int:
    minima = phase_minima(args.path)
    # The calibration timed during the run, not now: host load between
    # the run and this report would otherwise move every ratio.
    calibration_s = recorded_calibration(args.path)
    if calibration_s is None:
        calibration_s = calibrate()
    work = run_work(args.path)
    if args.write_baseline:
        doc = write_baseline(
            args.baseline, minima, calibration_s,
            note=f"phase minima and work counts from {args.path}", work=work,
        )
        print(f"wrote baseline for {len(doc['phases'])} phases "
              f"to {args.baseline} (calibration {calibration_s * 1e6:.1f}us)")
        return 0
    baseline = load_baseline(args.baseline)
    results = compare_to_baseline(
        minima, calibration_s, baseline, tolerance=args.tolerance
    )
    work_results = compare_work(work, baseline)
    if args.format == "json":
        print(json.dumps(
            {
                "calibration_s": calibration_s,
                "tolerance": args.tolerance,
                "phases": {
                    r.phase: {
                        "baseline_norm": r.baseline_norm,
                        "current_norm": r.current_norm,
                        "ratio": r.ratio,
                        "regressed": r.regressed,
                        "missing": r.missing,
                    }
                    for r in results
                },
                "work": {
                    w.counter: {"pinned": w.pinned, "current": w.current,
                                "rose": w.rose}
                    for w in work_results
                },
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(render_comparison(results, args.tolerance))
        if work_results:
            print("\n" + render_work(work_results))
    regressed = any(r.regressed for r in results) or \
        any(w.rose for w in work_results)
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.baseline:
            return _run_baseline_mode(args)
        summary = load_summary(args.path)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
