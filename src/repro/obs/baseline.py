"""Per-phase performance baselines with a machine-normalised CI ratchet.

The episode hot path is instrumented with :func:`repro.obs.phase_timer`
blocks, and every call's duration lands in the run's metrics JSONL as a
raw ``phase`` event.  This module turns those durations into a committed
baseline (``benchmarks/results/BENCH_phase_baselines.json``) and a
comparison that CI can ratchet:

* **minimum-over-calls** per phase is the statistic (an episode calls
  each phase tens of times; the minimum filters scheduler interference
  the way ``bench_obs.py``'s ``min(timeit.repeat(...))`` does);
* every duration is **normalised by a calibration kernel** timed on the
  same machine, so a committed baseline from the reference VM transfers
  to a faster/slower CI box — only the *ratio* of phase time to
  calibration time is ratcheted.  The kernel is timed inside the run,
  between its repeats, and written to the JSONL as ``calibration``
  events whose median is the run's calibration
  (:func:`recorded_calibration`), so host load during the run moves
  both sides of the ratio;
* normalised durations are floored at :data:`FLOOR_S` over the
  baseline's calibration time: below that, timer noise dominates and a
  "regression" is meaningless.  Flooring after normalising keeps a
  sub-floor phase at the same floor on both sides, whatever the current
  machine's calibration;
* a phase regresses when its normalised duration exceeds
  ``tolerance`` × the baseline's (default :data:`DEFAULT_TOLERANCE`,
  the ISSUE's >25% bar).

Beside the timed minima the baseline pins the run's deterministic work
(:data:`WORK_COUNTERS`): for a fixed seed the counts are the same on any
host, so any increase fails, whatever the load.  A lost memo or refit
schedule shows there even where the timed minima cannot see it.

Driven by ``python -m repro.obs report <run.jsonl> --baseline <json>``
(compare, exit 1 on regression) and ``--write-baseline`` (re-baseline
after an intentional change); ``benchmarks/bench_phase_ratchet.py``
produces the run deterministically.
"""

from __future__ import annotations

import json
import timeit
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ReproError
from repro.obs.events import PathLike, read_events
from repro.utils.tables import format_table

#: Ratcheted phase -> the ``phase_timer`` name carrying it in the JSONL.
#: (``e_step``/``m_step``/``refit`` run inside the ``infer`` phase, hence
#: the namespaced names.)  DESIGN.md documents the map next to the
#: featurizer.
PHASE_BASELINE_MAP: Dict[str, str] = {
    "featurize": "featurize",
    "q_forward": "q_forward",
    "select": "select",
    "collect": "collect",
    "infer": "infer",
    "e_step": "infer.e_step",
    "m_step": "infer.m_step",
    "refit": "infer.refit",
    "enrich": "enrich",
    "dqn_train": "dqn_train",
}

#: Fail on a > 25% normalised regression of any ratcheted phase.
DEFAULT_TOLERANCE = 1.25

#: Durations below this (on the baseline's machine) are timer noise.
FLOOR_S = 50e-6

#: Work a ratchet run does, pinned exactly: joint EM's sweeps and refits
#: and phi's Newton steps, Hessian-vector products (CG) and direct solves
#: (registry counters in the run's ``snapshot``), and the DQN's
#: target-network forwards and bootstrap lookups (summed over its
#: ``iteration`` events).
WORK_COUNTERS = (
    "infer.em_sweeps",
    "infer.em_refits",
    "classifier.newton_steps",
    "classifier.hv_products",
    "classifier.direct_solves",
    "target_forwards",
    "bootstrap_lookups",
)

_CAL_SIZE = 160


def _calibration_workload() -> np.ndarray:
    """Deterministic numpy workload of the hot path's flavour."""
    base = np.arange(_CAL_SIZE * _CAL_SIZE, dtype=float) % 97.0
    return base.reshape(_CAL_SIZE, _CAL_SIZE) / 96.0 + 0.5


def calibration_kernel(work: Optional[np.ndarray] = None) -> float:
    """One pass of the calibration workload (matmul + sort + reduce).

    Mirrors what the instrumented phases actually do — dense linear
    algebra, ordering, reductions on a few-hundred-row matrix — so its
    runtime tracks theirs across machines.
    """
    if work is None:
        work = _calibration_workload()
    out = work @ work
    out = np.sort(out, axis=1)
    return float(np.log(out).sum())


def calibrate(repeats: int = 7, number: int = 5) -> float:
    """Seconds per calibration-kernel pass on this machine (min of repeats)."""
    work = _calibration_workload()
    calibration_kernel(work)  # warm caches / allocator before timing
    return min(
        timeit.repeat(lambda: calibration_kernel(work),
                      number=number, repeat=repeats)
    ) / number


def recorded_calibration(path: PathLike) -> Optional[float]:
    """Median ``calibration_s`` of a JSONL's ``calibration`` events.

    ``None`` when the run recorded none; the caller then times
    :func:`calibrate` itself.
    """
    samples = [float(event["calibration_s"])
               for event in read_events(path, kind="calibration")]
    return float(np.median(samples)) if samples else None


def phase_minima(path: PathLike) -> Dict[str, dict]:
    """Per-ratcheted-phase ``{"min_s", "calls"}`` from a metrics JSONL.

    Reads the raw per-call ``phase`` events (not the aggregated
    snapshot), so the minimum over calls is available.
    """
    wanted = {jsonl: name for name, jsonl in PHASE_BASELINE_MAP.items()}
    stats: Dict[str, dict] = {}
    for event in read_events(path):
        if event.get("kind") != "phase":
            continue
        name = wanted.get(event.get("name"))
        if name is None:
            continue
        elapsed = float(event.get("elapsed_s", 0.0))
        stat = stats.setdefault(name, {"min_s": elapsed, "calls": 0})
        stat["calls"] += 1
        if elapsed < stat["min_s"]:
            stat["min_s"] = elapsed
    return stats


def merge_minima(runs: List[Dict[str, dict]]) -> Dict[str, dict]:
    """Minimum over repeated runs (the tight-loop-repeat of episodes)."""
    merged: Dict[str, dict] = {}
    for run in runs:
        for name, stat in run.items():
            seen = merged.get(name)
            if seen is None:
                merged[name] = dict(stat)
            else:
                seen["min_s"] = min(seen["min_s"], stat["min_s"])
                seen["calls"] += stat["calls"]
    return merged


def run_work(path: PathLike) -> Dict[str, float]:
    """Each :data:`WORK_COUNTERS` count, the highest over the log's runs.

    A run ends at its ``snapshot`` event; the ``iteration`` events before
    it carry its DQN counts.  Counters no run recorded are absent.
    """
    work: Dict[str, float] = {}
    dqn: Dict[str, float] = {}
    for event in read_events(path):
        if event.get("kind") == "iteration":
            for name in WORK_COUNTERS:
                if name in event:
                    dqn[name] = dqn.get(name, 0.0) + float(event[name])
        elif event.get("kind") == "snapshot":
            counters = event.get("metrics", {}).get("counters", {})
            run = {name: float(counters[name])
                   for name in WORK_COUNTERS if name in counters}
            run.update(dqn)
            for name, count in run.items():
                work[name] = max(count, work.get(name, count))
            dqn = {}
    return work


def write_baseline(path: PathLike, minima: Dict[str, dict],
                   calibration_s: float, *, note: str = "",
                   work: Optional[Dict[str, float]] = None) -> dict:
    """Write the committed baseline JSON; returns the written document."""
    doc = {
        "schema": "repro-phase-baseline-v1",
        "note": note,
        "calibration_s": calibration_s,
        "floor_s": FLOOR_S,
        "phases": {
            name: {"min_s": stat["min_s"], "calls": stat["calls"]}
            for name, stat in sorted(minima.items())
        },
        "work": dict(sorted((work or {}).items())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_baseline(path: PathLike) -> dict:
    """Load a baseline document written by :func:`write_baseline`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ReproError(f"cannot read phase baseline {path}: {err}") from err
    if doc.get("schema") != "repro-phase-baseline-v1":
        raise ReproError(
            f"{path} is not a phase baseline (schema "
            f"{doc.get('schema')!r})"
        )
    return doc


@dataclass(frozen=True)
class PhaseComparison:
    """One phase's ratchet verdict."""

    phase: str
    baseline_norm: float   # baseline min_s / baseline calibration_s (floored)
    current_norm: float    # current  min_s / current  calibration_s (floored)
    ratio: float           # current_norm / baseline_norm
    regressed: bool
    missing: bool = False  # phase in the baseline never ran in this log


def compare_to_baseline(
    minima: Dict[str, dict],
    calibration_s: float,
    baseline: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[PhaseComparison]:
    """Ratchet ``minima`` against a committed baseline.

    Each side's minimum is normalised by its own machine's calibration
    time, then both are floored at the baseline's ``floor_s /
    calibration_s``; a phase regresses when its normalised minimum
    exceeds ``tolerance`` times the baseline's.  A
    baseline phase absent from the current log counts as regressed (the
    deterministic ratchet workload must exercise every ratcheted phase).
    """
    if tolerance <= 1.0:
        raise ReproError(f"tolerance must be > 1.0, got {tolerance}")
    base_cal = float(baseline["calibration_s"])
    floor_norm = float(baseline.get("floor_s", FLOOR_S)) / base_cal
    results: List[PhaseComparison] = []
    for phase, base_stat in sorted(baseline["phases"].items()):
        base_norm = max(float(base_stat["min_s"]) / base_cal, floor_norm)
        current = minima.get(phase)
        if current is None or current["calls"] == 0:
            results.append(PhaseComparison(
                phase=phase, baseline_norm=base_norm, current_norm=float("inf"),
                ratio=float("inf"), regressed=True, missing=True,
            ))
            continue
        cur_norm = max(float(current["min_s"]) / calibration_s, floor_norm)
        ratio = cur_norm / base_norm
        results.append(PhaseComparison(
            phase=phase, baseline_norm=base_norm, current_norm=cur_norm,
            ratio=ratio, regressed=ratio > tolerance,
        ))
    return results


@dataclass(frozen=True)
class WorkComparison:
    """One pinned work counter's verdict."""

    counter: str
    pinned: float
    current: Optional[float]  # None: no run in the log recorded it

    @property
    def rose(self) -> bool:
        return self.current is None or self.current > self.pinned


def compare_work(work: Dict[str, float], baseline: dict) -> List[WorkComparison]:
    """Check ``work`` (:func:`run_work`) against the baseline's pins.

    A count above its pin, or missing from the log, fails; a lower count
    passes and should be re-pinned.
    """
    return [WorkComparison(name, float(pinned), work.get(name))
            for name, pinned in sorted(baseline.get("work", {}).items())]


def render_work(results: List[WorkComparison]) -> str:
    """Plain-text table and verdict of the pinned work counters."""
    rows = []
    for res in results:
        if res.current is None:
            status = "MISSING"
        elif res.rose:
            status = "ROSE"
        else:
            status = "ok" if res.current == res.pinned else "lower: re-pin"
        rows.append([res.counter, f"{res.pinned:g}",
                     "-" if res.current is None else f"{res.current:g}",
                     status])
    table = format_table(["counter", "pinned", "current", "status"], rows)
    rose = [r.counter for r in results if r.rose]
    verdict = (f"work counters FAILED (above their pins): {', '.join(rose)}"
               if rose else "work counters ok (none above its pin)")
    return table + "\n\n" + verdict


def render_comparison(results: List[PhaseComparison],
                      tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Plain-text ratchet table (normalised units: phase / calibration)."""
    rows = []
    for res in results:
        if res.missing:
            status = "MISSING"
        elif res.regressed:
            status = "REGRESSED"
        else:
            status = "ok"
        rows.append([
            res.phase,
            f"{res.baseline_norm:.3f}",
            "-" if res.missing else f"{res.current_norm:.3f}",
            "-" if res.missing else f"{res.ratio:.2f}x",
            status,
        ])
    table = format_table(
        ["phase", "baseline", "current", "ratio", "status"], rows
    )
    regressed = [r.phase for r in results if r.regressed]
    verdict = (
        f"perf ratchet FAILED (> {tolerance:.2f}x): {', '.join(regressed)}"
        if regressed
        else f"perf ratchet ok (all phases within {tolerance:.2f}x)"
    )
    return table + "\n\n" + verdict


__all__ = [
    "DEFAULT_TOLERANCE",
    "FLOOR_S",
    "PHASE_BASELINE_MAP",
    "PhaseComparison",
    "WORK_COUNTERS",
    "WorkComparison",
    "calibrate",
    "calibration_kernel",
    "compare_to_baseline",
    "compare_work",
    "load_baseline",
    "merge_minima",
    "phase_minima",
    "recorded_calibration",
    "render_comparison",
    "render_work",
    "run_work",
    "write_baseline",
]
