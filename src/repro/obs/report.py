"""Render a per-phase time/call/budget table from a metrics JSONL file.

Backs ``python -m repro.obs report``: reads an event log written by
``run_experiment(..., metrics_out=...)`` (or any
:class:`~repro.obs.events.JsonlEventLog`), and summarises where the
episode's wall time and labelling budget went.

When the log carries CrowdRL's ``iteration`` events, the report also
totals the DQN's target-network forwards against its bootstrap lookups,
i.e. how much work the per-target-version bootstrap memo saved.  When φ
was fitted, a ``phi:`` line sets the Newton-CG solver's work
(``classifier.newton_steps``, ``classifier.hv_products``) beside joint
EM's refits and sweeps (``infer.em_refits``, ``infer.em_sweeps``).

The final ``snapshot`` event is the preferred source (it carries the full
registry state: phase stats, counters, gauges); when a log carries only
raw ``phase`` events — e.g. a run killed before its final flush — the
report aggregates those instead.

Phases nest (``infer`` contains ``infer.*``, ``enrich`` contains
``retrain``), so the ``time %`` column is each phase's *self* time over
the summed self times: it adds up to 100% and counts nothing twice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.events import PathLike, read_events
from repro.utils.tables import format_table

#: Counter namespace whose suffixes attribute budget units to a phase,
#: e.g. ``budget.collect`` -> the ``collect`` row.
BUDGET_PREFIX = "budget."


def summarize_snapshot(snapshot: dict) -> dict:
    """Reduce a registry snapshot to the report's ``{phases, counters, gauges}``.

    Accepts the dict :meth:`repro.obs.MetricsRegistry.snapshot` returns
    (e.g. :attr:`RunResult.metrics`) and keeps only what the report
    renders; ``phases`` maps phase name to ``{"calls": int, "total_s":
    float, "self_s": float}`` (``self_s`` falls back to ``total_s`` for
    snapshots recorded before phases tracked self time).
    """
    phases = {
        name: {"calls": stat["calls"], "total_s": stat["total_s"],
               "self_s": stat.get("self_s", stat["total_s"])}
        for name, stat in snapshot.get("phases", {}).items()
    }
    return {
        "phases": phases,
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
    }


def _dqn_totals(events: List[dict]) -> Optional[Dict[str, int]]:
    """Summed ``target_forwards`` / ``bootstrap_lookups`` of ``iteration`` events."""
    iterations = [e for e in events
                  if e.get("kind") == "iteration" and "target_forwards" in e]
    if not iterations:
        return None
    return {
        "target_forwards": sum(e["target_forwards"] for e in iterations),
        "bootstrap_lookups": sum(e["bootstrap_lookups"] for e in iterations),
    }


def load_summary(path: PathLike) -> dict:
    """Extract ``{phases, counters, gauges}`` from a metrics JSONL file.

    ``phases`` maps phase name to ``{"calls": int, "total_s": float,
    "self_s": float}``.  Logs with ``iteration`` events also get a
    ``dqn`` entry: ``{"target_forwards": int, "bootstrap_lookups": int}``.
    """
    events = read_events(path)
    summary = _summary_from_events(events)
    dqn = _dqn_totals(events)
    if dqn is not None:
        summary["dqn"] = dqn
    return summary


def _summary_from_events(events: List[dict]) -> dict:
    snapshot: Optional[dict] = None
    for event in reversed(events):
        if event.get("kind") == "snapshot":
            snapshot = event.get("metrics", {})
            break
    if snapshot is not None:
        return summarize_snapshot(snapshot)
    # Fallback: aggregate raw phase events (no final snapshot was written).
    phases: Dict[str, dict] = {}
    for event in events:
        if event.get("kind") != "phase":
            continue
        stat = phases.setdefault(
            event["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        elapsed = float(event.get("elapsed_s", 0.0))
        stat["calls"] += 1
        stat["total_s"] += elapsed
        stat["self_s"] += float(event.get("self_s", elapsed))
    return {"phases": phases, "counters": {}, "gauges": {}}


def budget_by_phase(counters: Dict[str, float]) -> Dict[str, float]:
    """Per-phase budget units from ``budget.<phase>`` counters."""
    return {
        name[len(BUDGET_PREFIX):]: value
        for name, value in counters.items()
        if name.startswith(BUDGET_PREFIX)
    }


def _phase_rows(summary: dict) -> List[List[object]]:
    phases = summary["phases"]
    budgets = budget_by_phase(summary["counters"])
    timed_work = sum(s["self_s"] for s in phases.values()) or 1.0
    names = sorted(set(phases) | set(budgets))
    rows: List[List[object]] = []
    for name in names:
        stat = phases.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = stat["calls"]
        total_s = stat["total_s"]
        mean_ms = (total_s / calls * 1000.0) if calls else 0.0
        rows.append([
            name,
            calls,
            f"{total_s:.4f}",
            f"{stat['self_s']:.4f}",
            f"{mean_ms:.3f}",
            f"{100.0 * stat['self_s'] / timed_work:.1f}%",
            f"{budgets.get(name, 0.0):.1f}",
        ])
    return rows


def render_report(summary: dict) -> str:
    """The plain-text per-phase time/call/budget report."""
    rows = _phase_rows(summary)
    lines = []
    if rows:
        lines.append(format_table(
            ["phase", "calls", "total s", "self s", "mean ms", "time %",
             "budget"],
            rows,
        ))
    else:
        lines.append("no phase records in this event log")

    gauges = summary["gauges"]
    spent = gauges.get("budget.spent")
    total = gauges.get("budget.total")
    if spent is not None:
        attributed = sum(budget_by_phase(summary["counters"]).values())
        # Offline cross-training episodes spend separate training budgets
        # but land in the same budget.* counters; split them back out.
        pretrain = gauges.get("budget.pretrain", 0.0)
        budget_line = f"budget: {spent:.1f} spent"
        if total is not None:
            budget_line += f" of {total:.1f}"
        budget_line += f" ({attributed - pretrain:.1f} attributed to phases"
        if pretrain:
            budget_line += f", +{pretrain:.1f} offline pretraining"
        budget_line += ")"
        lines.append("")
        lines.append(budget_line)

    dqn = summary.get("dqn")
    if dqn is not None:
        forwards, lookups = dqn["target_forwards"], dqn["bootstrap_lookups"]
        dqn_line = (f"dqn: {forwards} target-net forwards for {lookups} "
                    f"bootstrap lookups")
        if forwards:
            dqn_line += f" ({lookups / forwards:.1f} lookups per forward)"
        lines.append("")
        lines.append(dqn_line)

    counters = summary["counters"]
    steps = counters.get("classifier.newton_steps")
    if steps is not None:
        products = counters.get("classifier.hv_products", 0.0)
        phi_line = (f"phi: {steps:g} Newton steps, {products:g} "
                    f"Hessian-vector products")
        if steps:
            phi_line += f" ({products / steps:.1f} per step)"
        if "infer.em_refits" in counters:
            phi_line += (f"; joint EM: {counters['infer.em_refits']:g} refits "
                         f"over {counters.get('infer.em_sweeps', 0.0):g} sweeps")
        lines.append("")
        lines.append(phi_line)

    interesting: List[Tuple[str, float]] = sorted(
        (name, value) for name, value in summary["counters"].items()
        if not name.startswith(BUDGET_PREFIX)
    )
    if interesting:
        lines.append("")
        lines.append(format_table(
            ["counter", "value"],
            [[name, f"{value:g}"] for name, value in interesting],
        ))
    return "\n".join(lines)


__all__ = [
    "BUDGET_PREFIX",
    "budget_by_phase",
    "load_summary",
    "render_report",
    "summarize_snapshot",
]
