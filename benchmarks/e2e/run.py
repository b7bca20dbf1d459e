"""End-to-end benchmark of the labelling system: four workloads.

Run one workload (the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/e2e/run.py --workload ratchet --seed 0 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured untraced; ``--trace 1`` (or bare ``--trace``) reports its
per-layer metrics from a separate traced re-run.  Without ``--workload``
every workload runs, each in its own fresh subprocess, and ``--out``
keeps everything measured (quartiles, sample counts, all layers)::

    python3 benchmarks/e2e/run.py --seed 0 --out out.json --trace
    python3 benchmarks/e2e/run.py --quick --trace   # one unit each, < 60 s

The seed generates every input; the program receives only those inputs.
See README.md for the workloads, the metrics and how to compare commits.
This file imports only the standard library at module level: it runs
without the package (and fails cleanly), and spawn workers re-import it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from quartiles import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("ratchet", "ablation_pm", "serve8", "sweep")
#: Fresh interpreters whose median set-up time is ``setup_s``.
SETUP_PROBES = 3
#: A run (set-up, warm-up, panel) must end well inside three minutes.
RUN_TIMEOUT_S = 170.0


def _child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One BLAS thread per process: the load is this process plus at most
    # two sweep workers, never more threads than the machine's two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(extra or {})
    return env


def _run_self(args: list, timeout: float, extra_env=None) -> str:
    """Run this script in a fresh interpreter; return its last stdout line.

    The child gets its own process group; when it fails or times out,
    the whole group is killed, so no sweep worker outlives it.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *args],
        cwd=ROOT, env=_child_env(extra_env), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        _kill_group(proc)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(
                f"{' '.join(args)} timed out after {timeout:.0f}s") from exc
        raise
    if proc.returncode != 0:
        _kill_group(proc)
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(args)} printed nothing")
    return lines[-1]


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the child and everything it started have already exited


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Roles run in fresh interpreters
# ----------------------------------------------------------------------
def _role_setup(args) -> None:
    start = perf_counter()
    import workloads  # imports repro

    workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.quick)
    raw = perf_counter() - start
    scale = workloads.CAL_REF_S / workloads.calibrate()
    print(json.dumps({"raw_s": raw, "setup_s": raw * scale}))


def _role_units(args) -> None:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  args.quick)
    print(json.dumps(workloads.run_units(workload, args.units)))


def _role_child(args) -> None:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  args.quick)
    if args.trace:
        def contracts_off(n: int) -> dict:
            line = _run_self(
                _forward(args, "units", args.workload) + ["--units", str(n)],
                timeout=RUN_TIMEOUT_S / 2,
                extra_env={"REPRO_CONTRACTS": "0"},
            )
            return json.loads(line)

        summary = workloads.trace(workload, contracts_off)
    else:
        summary = workloads.measure(workload)
        summary["end_to_end"]["peak_rss_mb"] = {
            "value": _peak_rss_mb(), "unit": "MB"
        }
    print(json.dumps(summary))


def _forward(args, role: str, workload: str) -> list:
    """Arguments that run ``role`` for ``workload`` with this run's settings."""
    out = ["--role", role, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    return out + (["--quick"] if args.quick else [])


# ----------------------------------------------------------------------
# Orchestration: one workload at a time, each role in a fresh process
# ----------------------------------------------------------------------
def _declared_metrics() -> dict:
    """``{"end_to_end": [...], "per_layer": [...]}`` names from BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: [m["name"] for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


def run_workload(args, name: str, trace: bool, deadline: float) -> dict:
    """Measure one workload in fresh interpreters; returns its record."""
    forward = _forward(args, "child", name)
    if trace:
        return json.loads(_run_self(forward + ["--trace", "1"],
                                    timeout=deadline - perf_counter()))
    probes = [
        json.loads(_run_self(_forward(args, "setup", name),
                             timeout=deadline - perf_counter()))
        for _ in range(SETUP_PROBES)
    ]
    record = json.loads(_run_self(forward, timeout=deadline - perf_counter()))
    setup_s = [p["setup_s"] for p in probes]
    q1, q3 = quartiles(setup_s)
    record["end_to_end"]["setup_s"] = {
        "value": statistics.median(setup_s), "unit": "s",
        "q1": q1, "q3": q3, "n": len(setup_s),
    }
    record["setup_probes"] = probes
    return record


def _merge(records: list) -> dict:
    """One workload's untraced and traced runs as a single record."""
    merged = {"attempted": 0, "failed": 0, "end_to_end": {},
              "per_layer": {}, "failures": [], "info": {}}
    for record in records:
        merged["attempted"] += record["attempted"]
        merged["failed"] += record["failed"]
        merged["failures"].extend(record["failures"])
        for kind in ("end_to_end", "per_layer"):
            merged[kind].update(record.get(kind, {}))
        run = "trace" if "per_layer" in record else "measure"
        merged["info"][run] = {
            key: record[key] for key in
            ("labels_digest", "n_units", "warmup_s", "setup_probes",
             "host_speed")
            if key in record
        }
    merged["correct"] = merged["failed"] == 0 and not merged["failures"]
    return merged


def _print_record(name: str, record: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        for metric, entry in sorted(record.get(kind, {}).items()):
            extra = ""
            if "n" in entry:
                extra = f"  (n={entry['n']}"
                if "q1" in entry:
                    extra += f", q1={entry['q1']:.6g}, q3={entry['q3']:.6g}"
                extra += ")"
            print(f"{name:<12} {metric:<36} {entry['value']:.6g} "
                  f"{entry['unit']}{extra}")
    for failure in record["failures"]:
        print(f"{name:<12} FAILED: {failure}")
    for run, info in record["info"].items():
        print(f"{name:<12} labels_digest {info['labels_digest']} over "
              f"{info['n_units']} {run} units (information only)")


def _meta(args, numpy_version) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "machine": platform.platform(),
        "commit": commit,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, each in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates every input (default 0)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured seconds per workload; sizes the "
                             "panel of units (default 12)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced re-run")
    parser.add_argument("--out", help="write every measured value here")
    parser.add_argument("--quick", action="store_true",
                        help="one unit per workload (smoke test)")
    parser.add_argument("--role", default="main",
                        choices=("main", "child", "setup", "units"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--units", type=int, default=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.role != "main" and args.workload is None:
        parser.error(f"--role {args.role} needs --workload")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # Unwind on SIGTERM as on an error, so children's groups are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package source at {SRC}/repro; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if args.role != "main":
        sys.path.insert(0, SRC)
        {"child": _role_child, "setup": _role_setup,
         "units": _role_units}[args.role](args)
        return 0

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    # A single workload is one run; --trace on the full set adds a
    # traced run per workload next to the untraced one.
    passes = [bool(args.trace)] if args.workload else (
        [False, True] if args.trace else [False])
    results, numpy_version = {}, None
    try:
        for name in names:
            deadline = perf_counter() + RUN_TIMEOUT_S
            records = [run_workload(args, name, trace, deadline)
                       for trace in passes]
            numpy_version = records[0].get("numpy", numpy_version)
            results[name] = _merge(records)
            _print_record(name, results[name])
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"meta": _meta(args, numpy_version),
                       "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    declared = _declared_metrics()
    kind = "per_layer" if args.trace and args.workload else "end_to_end"
    metrics, missing = {}, []
    for name, record in results.items():
        for metric in declared[kind]:
            key = metric if args.workload else f"{name}.{metric}"
            entry = record[kind].get(metric)
            if entry is None:
                missing.append(key)
                continue
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    for key in missing:
        print(f"missing metric: {key}", file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and not missing,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
