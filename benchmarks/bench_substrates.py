"""Substrate micro-benchmarks: the hot kernels under every experiment.

Not a paper figure — these measure the throughput of the building blocks
(truth inference sweeps, DQN steps, featurization, classifier fits,
enrichment) so regressions in the substrates are visible independently of
the end-to-end experiments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_platform
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.core.config import CrowdRLConfig
from repro.core.state import LabellingState
from repro.datasets.synthetic import make_blobs
from repro.inference.dawid_skene import DawidSkene
from repro.inference.joint import JointInference
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference
from repro.rl.dqn import DQNAgent, DQNConfig


@pytest.fixture(scope="module")
def answered_platform():
    dataset = make_blobs(200, 10, separation=2.5, rng=0)
    platform = make_platform(dataset, n_workers=3, n_experts=2,
                             budget=10.0 ** 9, rng=1)
    platform.ask_batch((i, [0, 1, 2]) for i in range(200))
    answers = {i: platform.history.answers_for(i) for i in range(200)}
    return dataset, platform, answers


@pytest.mark.parametrize("algo_factory,algo_name", [
    (lambda: MajorityVote(), "majority-vote"),
    (lambda: DawidSkene(), "dawid-skene"),
    (lambda: PMInference(), "pm"),
], ids=["mv", "ds", "pm"])
def test_inference_throughput(benchmark, answered_platform, algo_factory,
                              algo_name):
    _dataset, platform, answers = answered_platform
    algo = algo_factory()
    result = benchmark(lambda: algo.infer(answers, 2, len(platform.pool)))
    assert len(result.labels) == 200


def test_joint_inference_throughput(benchmark, answered_platform):
    dataset, platform, answers = answered_platform

    def run():
        clf = LogisticRegressionClassifier(dataset.n_features, 2)
        joint = JointInference(clf, dataset.features,
                               expert_mask=platform.pool.expert_mask,
                               max_iter=10)
        return joint.infer(answers, 2, len(platform.pool))

    result = benchmark(run)
    assert len(result.labels) == 200


def test_state_featurization_throughput(benchmark, answered_platform):
    _dataset, platform, _answers = answered_platform
    state = LabellingState(platform.history, platform.pool, platform.budget)
    tensor = benchmark(state.feature_tensor)
    assert tensor.shape[0] == 200


def test_dqn_train_step_throughput(benchmark):
    agent = DQNAgent(DQNConfig(n_features=13, hidden=(64, 32),
                               min_buffer_for_training=32), rng=0)
    rng = np.random.default_rng(0)
    # Replay traffic as Agent.remember_iteration makes it: ~12 transitions
    # per labelling iteration share one read-only successor array.
    for _ in range(42):
        successors = rng.normal(size=(16, 13))
        successors.setflags(write=False)
        for _ in range(12):
            agent.remember(rng.normal(size=13), float(rng.random()),
                           successors, False)
    loss = benchmark(agent.train_step)
    assert loss is not None


def test_classifier_fit_throughput(benchmark):
    dataset = make_blobs(300, 20, separation=2.5, rng=0)

    def fit():
        clf = LogisticRegressionClassifier(20, 2)
        return clf.fit(dataset.features, dataset.labels)

    clf = benchmark(fit)
    assert (clf.predict(dataset.features) == dataset.labels).mean() > 0.8


def test_crowdrl_iteration_throughput(benchmark):
    """One full CrowdRL labelling episode on a small workload."""
    from repro.core.framework import CrowdRL

    dataset = make_blobs(60, 8, separation=2.5, rng=2)
    config = CrowdRLConfig(alpha=0.1, batch_size=4,
                           min_truths_for_enrichment=12,
                           train_steps_per_iteration=2)

    def run():
        platform = make_platform(dataset, n_workers=3, n_experts=1,
                                 budget=180.0, rng=3)
        return CrowdRL(config, rng=4).run(dataset, platform)

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.final_labels.shape == (60,)
