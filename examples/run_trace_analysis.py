"""Scenario: inspecting how a CrowdRL episode unfolds, iteration by iteration.

Runs CrowdRL under a metrics registry whose JSONL event log receives one
``iteration`` event per labelling iteration, reads the events back and
prints the per-iteration story: budget consumption, how the
human-inferred truth set grows, when classifier enrichment takes over, and
the reward the agent received — the curves you would plot when debugging
a labelling campaign.

Run:  python examples/run_trace_analysis.py
"""

import tempfile
from pathlib import Path

from repro import CrowdRL, CrowdRLConfig, load_dataset, make_platform
from repro.obs import JsonlEventLog, make_registry, read_events, use_registry
from repro.utils.tables import format_table


def main() -> None:
    dataset = load_dataset("S3CP", scale=0.05, rng=0)
    platform = make_platform(dataset, n_workers=3, n_experts=2,
                             budget=500.0, rng=1)
    framework = CrowdRL(CrowdRLConfig(), rng=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        log = JsonlEventLog(path)
        with use_registry(make_registry(events=log)):
            outcome = framework.run(dataset, platform)
        log.close()
        iterations = read_events(path, kind="iteration")

    print(f"dataset: {dataset}  budget: {platform.budget.total:.0f}\n")
    print(format_table(
        ["iter", "spent", "human truths", "enriched", "reward",
         "answers bought"],
        [[e["iteration"], f"{e['spent']:.0f}", e["n_truths"],
          e["n_enriched"], e["reward"], e["n_assignments"]]
         for e in iterations],
    ))

    report = outcome.evaluate(platform.evaluation_labels())
    print(
        f"\nfinal: precision={report.precision:.3f} f1={report.f1:.3f} "
        f"accuracy={report.accuracy:.3f} after {len(iterations)} "
        f"traced iterations"
    )
    print(
        "\nReading: early iterations buy human answers and truths grow "
        "linearly; once enough truths exist, the classifier starts "
        "enriching (the 'enriched' column jumps) and each iteration's "
        "reward r(t) = λ·r_φ + η·r_cost reflects it.  Enrichment counts "
        "can dip as well as rise — labels are recomputed from the freshly "
        "retrained classifier every iteration."
    )


if __name__ == "__main__":
    main()
