"""Scenario: labelling with a partially hostile crowd.

Real platforms attract spammers (uniform random answers) and occasionally
adversaries (systematically wrong answers).  This example contaminates a
worker pool, then compares how (a) naive majority voting, (b) Dawid-Skene
EM, and (c) CrowdRL's full pipeline cope — illustrating why the State's
estimated-quality column and confusion-matrix-aware inference matter.

A second section injects *operational* faults (timeouts, abandonment,
offline bursts) at increasing rates and plots the degradation curve:
accuracy vs fault rate with the resilient collector absorbing the damage.

Run:  python examples/robust_labelling.py
"""

import numpy as np

from repro import BudgetManager, CrowdRL, CrowdRLConfig
from repro.crowd.behaviors import contaminate_pool
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.datasets.synthetic import make_blobs
from repro.inference import DawidSkene, MajorityVote
from repro.utils.tables import format_table


def build_pools(n_classes: int, rng: np.random.Generator):
    """A clean pool and a contaminated copy (1 spammer + 1 adversary)."""
    clean = AnnotatorPool.build(
        n_classes, n_workers=5, n_experts=1,
        worker_accuracy=(0.7, 0.85), rng=rng,
    )
    corrupted = AnnotatorPool(
        contaminate_pool(clean.annotators, n_spammers=1, n_adversaries=1,
                         rng=rng),
        n_classes,
    )
    return clean, corrupted


def inference_accuracy(pool: AnnotatorPool, dataset, algo) -> float:
    """All workers answer every object; aggregate with `algo`."""
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(10.0 ** 9))
    worker_ids = [a.annotator_id for a in pool if not a.is_expert]
    platform.ask_batch((i, worker_ids) for i in range(dataset.n_objects))
    answers = {i: platform.history.answers_for(i)
               for i in range(dataset.n_objects)}
    result = algo.infer(answers, dataset.n_classes, len(pool))
    truths = platform.evaluation_labels()
    return float(np.mean([result.labels[i] == truths[i]
                          for i in range(dataset.n_objects)]))


def crowdrl_accuracy(pool: AnnotatorPool, dataset) -> float:
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(600.0))
    outcome = CrowdRL(CrowdRLConfig(), rng=7).run(dataset, platform)
    return outcome.evaluate(platform.evaluation_labels()).accuracy


def degradation_curve(rates=(0.0, 0.05, 0.1, 0.2, 0.4),
                      frameworks=("DLTA", "CrowdRL")) -> None:
    """Accuracy vs fault rate, with the resilient collector switched on.

    At rate 0 the fault layer is inert and the numbers match an unguarded
    run exactly; as the rate climbs, retries and reassignments spend
    budget on recovery instead of labels, so accuracy degrades smoothly
    rather than the run crashing.
    """
    from repro.harness.experiment import (
        ExperimentSetting,
        ExperimentSpec,
        run_experiment,
    )

    setting = ExperimentSetting("S12CP", scale=0.02, seed=0)
    rows = []
    for rate in rates:
        row = [f"{rate:.2f}"]
        recoveries = 0
        for name in frameworks:
            result = run_experiment(name, setting,
                                    ExperimentSpec(faults=rate),
                                    pretrain=False)
            row.append(result.report.accuracy)
            stats = result.outcome.extras["collector"]
            recoveries += stats["retries"] + stats["reassignments"]
        row.append(recoveries)
        rows.append(row)
    print(format_table(
        ["fault rate", *[f"{n} acc" for n in frameworks], "recoveries"],
        rows,
    ))


def main() -> None:
    rng = np.random.default_rng(0)
    dataset = make_blobs(150, 10, separation=2.2, name="reviews", rng=rng)
    clean, corrupted = build_pools(dataset.n_classes, rng)

    print("latent worker qualities")
    print("  clean    :", clean.true_qualities()[:5].round(2).tolist())
    print("  corrupted:", corrupted.true_qualities()[:5].round(2).tolist())
    print()

    # MV / Dawid-Skene get *every* worker's answer on *every* object
    # (5 x 150 = 750 answer units); CrowdRL gets a budget of only 600 and
    # must decide where to spend it.
    rows = []
    for label, pool in (("clean", clean), ("1 spammer + 1 adversary",
                                           corrupted)):
        rows.append([
            label,
            inference_accuracy(pool, dataset, MajorityVote()),
            inference_accuracy(pool, dataset, DawidSkene()),
            crowdrl_accuracy(pool, dataset),
        ])
    print(format_table(
        ["pool", "MV (cost 750)", "Dawid-Skene (cost 750)",
         "CrowdRL (cost <= 600)"], rows
    ))
    print(
        "\nReading: majority voting treats every worker equally, so the "
        "contaminated pool drags it down hard (and no extra redundancy "
        "fixes an adversary).  Confusion-matrix inference learns to "
        "discount the spammer and *invert* the adversary.  CrowdRL runs at "
        "a 20% smaller budget and, on the hostile pool, still beats the "
        "full-redundancy majority vote because it steers assignments away "
        "from low-quality workers as its estimates sharpen."
    )

    print("\ndegradation under operational faults (resilient collector on)")
    degradation_curve()
    print(
        "\nReading: the collector retries timeouts, reassigns abandoned "
        "questions to the next-best affordable annotator and quarantines "
        "chronically failing workers, so accuracy falls gradually with the "
        "fault rate instead of the run dying on the first lost answer."
    )


if __name__ == "__main__":
    main()
