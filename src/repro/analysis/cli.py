"""Command-line front end: ``python -m repro.analysis contracts-report``.

::

    python -m repro.analysis contracts-report
    python -m repro.analysis contracts-report --format json

``contracts-report`` imports the modules that carry runtime contracts
and lists every decorator application with its active/inactive status
under the current ``REPRO_CONTRACTS`` setting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Optional, Sequence

from repro.analysis.contracts import contract_registry, contracts_active
from repro.exceptions import ReproError

#: Modules importing these registers the library's contract decorations.
_CONTRACT_MODULES = (
    "repro.inference.joint",
    "repro.rl.qnetwork",
    "repro.rl.dqn",
    "repro.core.agent",
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Runtime-contract reporting for the CrowdRL reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("contracts-report",
                            help="list runtime contract decorations")
    report.add_argument("--format", choices=("text", "json"), default="text")
    return parser


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
        return _run_contracts_report(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
