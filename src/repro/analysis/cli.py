"""Command-line front end: ``python -m repro.analysis``.

Subcommands::

    python -m repro.analysis flow src/repro      # every REPRO rule
    python -m repro.analysis flow src/repro --fail-on-new --stats
    python -m repro.analysis flow src/repro --select REPRO001-REPRO006
    python -m repro.analysis flow src/repro --format json
    python -m repro.analysis flow src/repro --write-baseline
    python -m repro.analysis contracts-report --format json

``flow`` runs the one analyzer: REPRO001-024 over one parse of the
given paths, plus REPRO000 for any file that does not parse.  It prints
``path:line:col: RULE [severity] message`` lines (or a JSON document)
and exits 1 when new findings survive suppression, so it slots directly
into CI.  ``--select`` accepts single ids and inclusive ranges like
``REPRO019-REPRO024``, and ``--stats`` appends a per-rule hit count over
the selected rules, zeros included, for CI job logs.  Findings recorded
in a ``.repro-flow-baseline.json`` (auto-discovered by walking up from
the analyzed path, like ``.gitignore``) are reported but do not fail
the run; ``--fail-on-new`` additionally *requires* a baseline so CI
breaks loudly if the file goes missing.  ``contracts-report`` imports
the modules that carry runtime contracts and lists every decorator
application with its active/inactive status under the current
``REPRO_CONTRACTS`` setting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.contracts import contract_registry, contracts_active
from repro.analysis.flow import (
    BASELINE_FILENAME,
    FLOW_RULES,
    analyze_paths,
    discover_baseline,
    load_baseline,
    selected_rules,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.lint.engine import Finding
from repro.exceptions import ReproError

#: Modules importing these registers the library's contract decorations.
_CONTRACT_MODULES = (
    "repro.inference.joint",
    "repro.rl.qnetwork",
    "repro.rl.dqn",
    "repro.rl.selection",
    "repro.core.agent",
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static analysis rules and runtime-contract "
                    "reporting for the CrowdRL reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser("flow", help="run the REPRO rules (REPRO001-024)")
    flow.add_argument("paths", nargs="+", help="files or directories to analyze")
    flow.add_argument("--format", choices=("text", "json"), default="text")
    flow.add_argument("--select", default=None,
                      help="comma-separated rule ids or inclusive ranges "
                           "like REPRO013-REPRO018 (default: all rules)")
    flow.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file (default: the nearest {BASELINE_FILENAME} "
             f"above the analyzed path)")
    flow.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline; report every finding")
    flow.add_argument(
        "--write-baseline", nargs="?", const="", default=None, metavar="PATH",
        help="accept the current findings as the new baseline (default "
             f"target: the discovered baseline, else ./{BASELINE_FILENAME})")
    flow.add_argument(
        "--stats", action="store_true",
        help="append a per-rule hit count over the selected rules "
             "(new + baselined findings, zeros included)")
    flow.add_argument(
        "--fail-on-new", action="store_true",
        help="require a baseline and fail only on findings not in it "
             "(comparison against a present baseline always applies; this "
             "flag makes a *missing* baseline a hard error for CI)")

    report = sub.add_parser("contracts-report",
                            help="list runtime contract decorations")
    report.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _flow_stats(select: Optional[List[str]],
                *finding_lists: List[Finding]) -> dict:
    """Per-rule hit counts over the selected rules, zeros included.

    Zero rows matter: the CI job log uses this to show which rules
    actually ran, not just which ones fired.
    """
    counts = {rule_id: 0 for rule_id in selected_rules(select)}
    for findings in finding_lists:
        for finding in findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return counts


def _run_flow(args: argparse.Namespace) -> int:
    select = args.select.split(",") if args.select else None
    findings = analyze_paths(args.paths, select=select)

    if args.write_baseline is not None:
        if args.write_baseline:
            target = Path(args.write_baseline)
        elif args.baseline:
            target = Path(args.baseline)
        else:
            target = discover_baseline(args.paths) or Path(BASELINE_FILENAME)
        write_baseline(target, findings)
        print(f"baseline with {len(findings)} finding(s) written to {target}")
        return 0

    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        baseline_path = (Path(args.baseline) if args.baseline
                         else discover_baseline(args.paths))
    if args.fail_on_new and baseline_path is None:
        print(f"error: --fail-on-new requires a baseline "
              f"({BASELINE_FILENAME} not found above the analyzed paths)",
              file=sys.stderr)
        return 2

    baselined: List[Finding] = []
    if baseline_path is not None:
        accepted = load_baseline(baseline_path)
        findings, baselined = split_by_baseline(
            findings, accepted, baseline_path.resolve().parent
        )

    if args.format == "json":
        payload = {
            "rules": dict(FLOW_RULES),
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
            "baseline": str(baseline_path) if baseline_path else None,
            "baselined": [finding.to_dict() for finding in baselined],
            "baselined_count": len(baselined),
        }
        if args.stats:
            payload["stats"] = _flow_stats(select, findings, baselined)
        print(json.dumps(payload, indent=2))
    else:
        lines = [finding.format() for finding in findings]
        if args.stats:
            lines.append("rule hits (new + baselined):")
            for rule_id, count in _flow_stats(select, findings,
                                              baselined).items():
                lines.append(f"  {rule_id}: {count}")
        summary = (f"{len(findings)} finding(s)" if findings
                   else "no new findings")
        if baseline_path is not None:
            summary += (f" ({len(baselined)} baselined via {baseline_path})")
        lines.append(summary)
        print("\n".join(lines))
    return 1 if findings else 0


def _run_contracts_report(args: argparse.Namespace) -> int:
    for module in _CONTRACT_MODULES:
        importlib.import_module(module)
    records = contract_registry()
    if args.format == "json":
        payload = {
            "contracts_active": contracts_active(),
            "contracts": [record.to_dict() for record in records],
            "count": len(records),
        }
        print(json.dumps(payload, indent=2))
        return 0
    state = "active" if contracts_active() else "inactive (REPRO_CONTRACTS=0)"
    print(f"runtime contracts: {state}")
    width = max((len(f"{r.module}.{r.qualname}") for r in records), default=0)
    for record in records:
        name = f"{record.module}.{record.qualname}"
        flag = "on " if record.active else "off"
        print(f"  [{flag}] {name:<{width}}  {record.kind}({record.detail})")
    print(f"{len(records)} contract(s) registered")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "flow":
            return _run_flow(args)
        return _run_contracts_report(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
