"""Scenario: which truth-inference model should you trust, and when?

A standalone tour of the inference substrate (no RL loop): simulates one
batch of crowd answers at varying redundancy (answers per object) and
compares Majority Voting, Dawid-Skene EM, PM and the CrowdRL joint model
(which additionally sees object features).  Reproduces the paper's
Section V argument: feature-aware joint inference pays off most when
annotator redundancy is low.

Run:  python examples/truth_inference_comparison.py
"""

import numpy as np

from repro import make_platform
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.datasets.synthetic import make_blobs
from repro.inference import (
    DawidSkene,
    JointInference,
    MajorityVote,
    PMInference,
)
from repro.utils.tables import format_table


def simulate(redundancy: int, seed: int = 0):
    """Every object answered by `redundancy` annotators (workers first)."""
    dataset = make_blobs(250, 8, separation=2.3, rng=seed)
    platform = make_platform(dataset, n_workers=4, n_experts=1,
                             budget=10.0 ** 9, rng=seed + 1)
    order = list(range(len(platform.pool)))
    platform.ask_batch((i, order[:redundancy])
                       for i in range(dataset.n_objects))
    answers = {i: platform.history.answers_for(i)
               for i in range(dataset.n_objects)}
    return dataset, platform, answers


def main() -> None:
    rows = []
    for redundancy in (2, 3, 5):
        dataset, platform, answers = simulate(redundancy)
        truths = platform.evaluation_labels()
        n_ann = len(platform.pool)

        def accuracy(result) -> float:
            return float(np.mean(
                [result.labels[i] == truths[i] for i in range(len(truths))]
            ))

        # The joint model additionally needs a classifier and the features.
        joint = JointInference(
            LogisticRegressionClassifier(dataset.n_features, 2),
            dataset.features,
            expert_mask=platform.pool.expert_mask,
        )
        models = (MajorityVote(), DawidSkene(), PMInference(), joint)
        rows.append([redundancy] + [
            accuracy(model.infer(answers, 2, n_ann)) for model in models
        ])

    print(format_table(
        ["answers/object", "MV", "Dawid-Skene", "PM", "CrowdRL joint"],
        rows,
    ))
    print(
        "\nReading: with few answers per object the annotator-only models "
        "have little to work with; the joint model leans on object features "
        "(Section V's argument) and holds up.  With generous redundancy "
        "everything converges and the choice matters less."
    )


if __name__ == "__main__":
    main()
