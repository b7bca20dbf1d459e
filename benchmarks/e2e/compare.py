"""Compare benchmark runs of two commits, one row per (metric, workload).

Each file is a ``run.py --out`` result or a results file holding several
such runs under ``"sets"``; ``FILE:N`` picks set N of such a file.  Give
the parent's runs and the change's runs in the order they were made, so
that the i-th parent and i-th change run form a pair (alternate which
side runs first)::

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json --change c1.json c2.json
    python3 benchmarks/e2e/compare.py results/seed0.json:0 results/seed0.json:1

Every end-to-end metric gets the bound ``BENCHMARK.json`` fixes for it
(``makespan_s`` is bounded here), and a status:

* ``unresolved`` — the parent's spread (IQR / median) is wider than the
  bound and not every change run is better than every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``improved`` — with at least 10 pairs, the change wins 9 in 10 of them
  and the medians differ by more than the parent's IQR; with fewer
  pairs, every change run beats every parent run by more than the bound;
* ``unchanged`` — anything else.

``error_rate`` is judged on totals, not medians: a change whose runs
failed a larger share of everything they attempted than the parent's
runs did has ``regressed``, however few of its runs failed.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from quartiles import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

#: Bound for the end-to-end metric BENCHMARK.json does not list: the
#: virtual makespan is deterministic.  ``error_rate`` has its own rule
#: (:func:`classify_errors`).
EXTRA_BOUNDS = {"makespan_s": ("lower", 0.05)}


def load_bounds(path: str = BENCHMARK_JSON) -> dict:
    """``{metric: (better, bound)}`` for every bounded end-to-end metric."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = dict(EXTRA_BOUNDS)
    for metric in spec["end_to_end"]:
        bounds[metric["name"]] = (metric["better"], float(metric["bound"]))
    return bounds


def load_runs(spec: str) -> list:
    """The runs (``{workload: record}`` dicts) in ``FILE`` or ``FILE:N``."""
    path, _, index = spec.partition(":")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    runs = [s["workloads"] for s in data["sets"]] if "sets" in data else [
        data["workloads"]]
    return [runs[int(index)]] if index else runs


def classify(parent: list, change: list, better: str, bound: float) -> dict:
    """Status of one (metric, workload) row; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0

    def is_better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    scale = abs(p_med) if p_med else 1.0
    worse_by = sign * (c_med - p_med) / scale
    spread = (q3 - q1) / scale
    all_better = all(is_better(c, p) for c in change for p in parent)
    pairs = list(zip(parent, change))
    if spread > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    elif len(pairs) >= 10:
        wins = sum(is_better(c, p) for p, c in pairs)
        status = ("improved" if wins >= 0.9 * len(pairs)
                  and abs(c_med - p_med) > q3 - q1 else "unchanged")
    else:
        status = ("improved" if all_better and -worse_by > bound
                  else "unchanged")
    return {"status": status, "parent": p_med, "change": c_med,
            "parent_q1": q1, "parent_q3": q3, "spread": spread,
            "worse_by": worse_by, "pairs": len(pairs)}


def classify_errors(parent: list, change: list) -> dict:
    """Status of an ``error_rate`` row from ``(failed, attempted)`` per run.

    Failures are summed over every run of a side, so one failing run in
    ten still shows.
    """
    def rate(counts):
        return sum(f for f, _ in counts) / max(sum(a for _, a in counts), 1)

    p_rate, c_rate = rate(parent), rate(change)
    status = ("regressed" if c_rate > p_rate else
              "improved" if c_rate < p_rate else "unchanged")
    return {"status": status, "parent": p_rate, "change": c_rate,
            "parent_q1": p_rate, "parent_q3": p_rate,
            "worse_by": c_rate - p_rate}


def compare(parent_runs: list, change_runs: list, bounds: dict) -> list:
    """One row per (metric, workload) present on both sides."""
    rows = []
    workloads = sorted(set().union(*parent_runs) & set().union(*change_runs))
    for workload in workloads:
        counts = [[(run[workload]["failed"], run[workload]["attempted"])
                   for run in runs if workload in run]
                  for runs in (parent_runs, change_runs)]
        row = classify_errors(*counts)
        row.update(workload=workload, metric="error_rate", unit="fraction",
                   bound=0.0, better="lower", n_parent=len(counts[0]),
                   n_change=len(counts[1]))
        rows.append(row)
        metrics = sorted({
            m for run in parent_runs + change_runs if workload in run
            for m in run[workload].get("end_to_end", {})
        })
        for metric in metrics:
            sides = []
            for runs in (parent_runs, change_runs):
                sides.append([
                    run[workload]["end_to_end"][metric]["value"]
                    for run in runs
                    if metric in run.get(workload, {}).get("end_to_end", {})
                ])
            if not all(sides) or metric not in bounds:
                continue
            better, bound = bounds[metric]
            unit = next(run[workload]["end_to_end"][metric]["unit"]
                        for run in parent_runs if workload in run)
            row = classify(sides[0], sides[1], better, bound)
            row.update(workload=workload, metric=metric, unit=unit,
                       bound=bound, better=better, n_parent=len(sides[0]),
                       n_change=len(sides[1]))
            rows.append(row)
    return rows


def render(rows: list) -> str:
    lines = []
    for r in rows:
        ratio = (f"{r['change'] / r['parent']:.4f}" if r["parent"]
                 else "n/a")
        lines.append(
            f"{r['workload']:<12} {r['metric']:<14} {r['status']:<10} "
            f"change/parent {ratio} = {r['change']:.6g} / {r['parent']:.6g} "
            f"{r['unit']} (parent IQR {r['parent_q1']:.6g}..{r['parent_q3']:.6g}, "
            f"n {r['n_parent']}/{r['n_change']}; {r['better']} is better, "
            f"bound {r['bound']:.0%})"
        )
    counts = {}
    for r in rows:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    lines.append(", ".join(f"{n} {s}" for s, n in sorted(counts.items())))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="*",
                        help="exactly two: PARENT CHANGE")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    args = parser.parse_args(argv)
    parent, change = args.parent, args.change
    if args.files:
        if len(args.files) != 2 or parent or change:
            parser.error("give PARENT CHANGE, or --parent ... --change ...")
        parent, change = [args.files[0]], [args.files[1]]
    if not parent or not change:
        parser.error("need parent and change runs")
    parent_runs = [r for spec in parent for r in load_runs(spec)]
    change_runs = [r for spec in change for r in load_runs(spec)]
    rows = compare(parent_runs, change_runs, load_bounds())
    print(render(rows))
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
