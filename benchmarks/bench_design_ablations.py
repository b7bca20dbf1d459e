"""Design-choice ablations beyond the paper's Fig. 8.

DESIGN.md calls out several design decisions this reproduction makes on top
of the paper's M1/M2/M3 ablations; this bench sweeps each against the
default configuration on one speech workload so their effect is measured,
not asserted:

* enrichment margin epsilon (Algorithm 1's top-2 gap test),
* the expert-quality floor of joint inference on/off,
* the one-expert-per-object cap on/off,
* dense per-action reward shaping on/off.

EXPERIMENTS.md "Design ablations" holds the same rows over 24 paired
seeds per panel, with bootstrap confidence intervals.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import CrowdRL, CrowdRLConfig, load_dataset, make_platform
from repro.utils.tables import format_table

_N_SEEDS = 2


def _run_variant(config: CrowdRLConfig, scale: float, seed: int) -> float:
    dataset = load_dataset("S12CP", scale=scale, rng=seed)
    platform = make_platform(dataset, n_workers=3, n_experts=2,
                             budget=10_000.0 * scale, rng=seed + 100)
    outcome = CrowdRL(config, rng=seed + 200).run(dataset, platform)
    return outcome.evaluate(platform.evaluation_labels()).f1


def _sweep(variants: dict[str, CrowdRLConfig], scale: float) -> dict[str, float]:
    return {
        name: float(np.mean([
            _run_variant(config, scale, seed) for seed in range(_N_SEEDS)
        ]))
        for name, config in variants.items()
    }


def test_design_ablations(benchmark, bench_scale):
    base = CrowdRLConfig()
    variants = {
        "default": base,
        "margin=0.1": dataclasses.replace(base, enrichment_margin=0.1),
        "margin=0.5": dataclasses.replace(base, enrichment_margin=0.5),
        "no-expert-floor": dataclasses.replace(base, expert_floor=0.01),
        "no-expert-cap": dataclasses.replace(
            base, max_experts_per_object=None
        ),
        "no-shaping": dataclasses.replace(
            base, info_gain_weight=0.0, agreement_weight=0.0,
            pair_cost_weight=0.0,
        ),
    }
    results = benchmark.pedantic(
        lambda: _sweep(variants, bench_scale), rounds=1, iterations=1
    )

    rows = [[name, f1] for name, f1 in results.items()]
    print("\n" + format_table(["variant", "S12CP f1"], rows))
    from conftest import save_report

    save_report("design_ablations", format_table(["variant", "S12CP f1"], rows))
    for name, value in results.items():
        benchmark.extra_info[f"f1[{name}]"] = value

    # Every variant must still produce a working labelling pipeline.
    assert all(value > 0.5 for value in results.values())
    # The default should not be dominated by the degenerate variants.
    assert results["default"] >= results["no-shaping"] - 0.1
