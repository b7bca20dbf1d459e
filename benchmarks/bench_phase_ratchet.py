"""Produce the deterministic metrics run the per-phase perf ratchet reads.

Runs one small CrowdRL experiment (fixed dataset/scale/seed — it
exercises all ten ratcheted phases: featurize, q_forward, select,
collect, infer, e_step, m_step, refit, enrich, dqn_train) several times
with metrics enabled and concatenates the raw ``phase`` events of every repeat into
one JSONL.  The minimum over that file is a min-over-calls *and*
min-over-runs — the tight-loop-minima idiom ``bench_obs.py`` uses,
applied to whole episodes — which is what
``python -m repro.obs report <out> --baseline ...`` then ratchets.
After each repeat the calibration kernel
(:func:`repro.obs.baseline.calibrate`) is timed and appended as a
``{"kind": "calibration", "calibration_s": ...}`` event; the report
normalises by their median, the host speed seen during the run.

Usage (what the CI ``perf-ratchet`` job runs)::

    PYTHONPATH=src python benchmarks/bench_phase_ratchet.py --out ratchet.jsonl
    PYTHONPATH=src python -m repro.obs report ratchet.jsonl \
        --baseline benchmarks/results/BENCH_phase_baselines.json

Re-baselining after an intentional performance change::

    PYTHONPATH=src python benchmarks/bench_phase_ratchet.py --out ratchet.jsonl
    PYTHONPATH=src python -m repro.obs report ratchet.jsonl \
        --baseline benchmarks/results/BENCH_phase_baselines.json \
        --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

from repro.harness.experiment import (
    ExperimentSetting,
    ExperimentSpec,
    run_experiment,
)
from repro.obs.baseline import PHASE_BASELINE_MAP, calibrate, phase_minima

#: The ratchet workload: small but large enough that every ratcheted
#: phase clears the comparison floor, and fully deterministic so repeats
#: differ only in timing.
SETTING = ExperimentSetting("S12CP", scale=0.05, seed=0)
FRAMEWORK = "CrowdRL"
REPEATS = int(os.environ.get("REPRO_RATCHET_REPEATS", "3"))


def produce_events(out_path: str, repeats: int = REPEATS) -> None:
    """Run warm-up + ``repeats`` metric runs; concatenate events to ``out_path``."""
    def one_run(path: str) -> None:
        run_experiment(
            FRAMEWORK, SETTING,
            ExperimentSpec(metrics=True, metrics_out=path),
            pretrain=False,
        )

    with tempfile.TemporaryDirectory() as tmp:
        one_run(os.path.join(tmp, "warmup.jsonl"))  # caches, allocator
        with open(out_path, "w", encoding="utf-8") as out:
            for r in range(repeats):
                path = os.path.join(tmp, f"run{r}.jsonl")
                one_run(path)
                with open(path, "r", encoding="utf-8") as fh:
                    out.write(fh.read())
                out.write(json.dumps({"kind": "calibration",
                                      "calibration_s": calibrate()}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="ratchet-metrics.jsonl",
        help="combined metrics JSONL to write (default ratchet-metrics.jsonl)",
    )
    parser.add_argument(
        "--repeats", type=int, default=REPEATS,
        help=f"timed episode repeats after warm-up (default {REPEATS})",
    )
    args = parser.parse_args()
    produce_events(args.out, repeats=args.repeats)
    minima = phase_minima(args.out)
    missing = sorted(set(PHASE_BASELINE_MAP) - set(minima))
    print(f"wrote {args.out}: per-phase minima over "
          f"{args.repeats} runs")
    for name in sorted(minima):
        stat = minima[name]
        print(f"  {name:<12} {stat['min_s'] * 1e6:9.1f} us  "
              f"({stat['calls']} calls)")
    if missing:
        print(f"FAIL: ratchet workload never hit: {', '.join(missing)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
