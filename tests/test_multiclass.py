"""End-to-end multi-class (|C| > 2) coverage across the stack."""

import numpy as np
import pytest

from repro import CrowdRL, CrowdRLConfig, make_platform
from repro.baselines import DALC, DLTA
from repro.datasets.synthetic import make_blobs
from repro.inference import DawidSkene, JointInference, MajorityVote
from repro.classifiers.logistic import LogisticRegressionClassifier


@pytest.fixture(scope="module")
def dataset3():
    return make_blobs(90, 8, n_classes=3, separation=4.5, rng=0)


@pytest.fixture(scope="module")
def platform3(dataset3):
    return make_platform(dataset3, n_workers=3, n_experts=1,
                         budget=350.0, rng=1)


class TestMulticlassEndToEnd:
    def test_crowdrl_three_classes(self, dataset3):
        platform = make_platform(dataset3, n_workers=3, n_experts=1,
                                 budget=350.0, rng=1)
        config = CrowdRLConfig(alpha=0.1, batch_size=4,
                               min_truths_for_enrichment=12,
                               train_steps_per_iteration=2)
        outcome = CrowdRL(config, rng=2).run(dataset3, platform)
        assert set(np.unique(outcome.final_labels)) <= {0, 1, 2}
        report = outcome.evaluate(platform.evaluation_labels(), n_classes=3)
        assert report.accuracy > 0.5   # well above the 1/3 chance rate

    @pytest.mark.parametrize("factory", [
        lambda rng: DLTA(rng=rng),
        lambda rng: DALC(rng=rng),
    ], ids=["dlta", "dalc"])
    def test_baselines_three_classes(self, factory, dataset3):
        platform = make_platform(dataset3, n_workers=3, n_experts=1,
                                 budget=350.0, rng=1)
        outcome = factory(np.random.default_rng(3)).run(dataset3, platform)
        report = outcome.evaluate(platform.evaluation_labels(), n_classes=3)
        assert report.accuracy > 0.45

    def test_inference_three_classes(self, dataset3):
        platform = make_platform(dataset3, n_workers=3, n_experts=1,
                                 budget=10.0 ** 9, rng=4)
        platform.ask_batch((i, [0, 1, 2]) for i in range(dataset3.n_objects))
        answers = {i: platform.history.answers_for(i)
                   for i in range(dataset3.n_objects)}
        truths = platform.evaluation_labels()

        def acc(result):
            return np.mean([result.labels[i] == truths[i]
                            for i in range(len(truths))])

        mv = acc(MajorityVote().infer(answers, 3, 4))
        ds = acc(DawidSkene().infer(answers, 3, 4))
        joint = JointInference(
            LogisticRegressionClassifier(dataset3.n_features, 3),
            dataset3.features,
            expert_mask=platform.pool.expert_mask,
        )
        j = acc(joint.infer(answers, 3, 4))
        assert mv > 0.55 and ds > 0.55 and j > 0.55

    def test_confusion_matrices_are_3x3(self, dataset3):
        platform = make_platform(dataset3, n_workers=2, n_experts=1,
                                 budget=10.0 ** 9, rng=5)
        platform.ask_batch((i, [0, 1]) for i in range(40))
        answers = {i: platform.history.answers_for(i) for i in range(40)}
        result = DawidSkene().infer(answers, 3, 3)
        for cm in result.confusions.values():
            assert cm.matrix.shape == (3, 3)
