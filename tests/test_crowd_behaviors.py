"""Tests for adverse annotator behaviours and robustness under them."""

import numpy as np
import pytest

from repro.crowd.annotator import AnnotatorKind
from repro.crowd.behaviors import (
    DriftingAnnotator,
    adversary_matrix,
    biased_matrix,
    contaminate_pool,
    spammer_matrix,
)
from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.exceptions import ConfigurationError
from repro.inference.dawid_skene import DawidSkene
from repro.inference.majority import MajorityVote

from conftest import build_pool


class TestMatrices:
    def test_spammer_is_uniform(self):
        np.testing.assert_allclose(spammer_matrix(3).matrix, 1 / 3)

    def test_adversary_mostly_wrong(self):
        cm = adversary_matrix(2, strength=0.9)
        assert cm.matrix[0, 1] == pytest.approx(0.9)
        assert cm.quality() == pytest.approx(0.1)

    def test_adversary_strength_validated(self):
        with pytest.raises(ConfigurationError):
            adversary_matrix(2, strength=0.4)

    def test_biased_prefers_favoured_class(self):
        cm = biased_matrix(2, favoured_class=1, bias=0.9)
        assert cm.matrix[0, 1] > 0.8
        assert cm.matrix[1, 1] > 0.8
        np.testing.assert_allclose(cm.matrix.sum(axis=1), 1.0)

    def test_biased_validates_class(self):
        with pytest.raises(ConfigurationError):
            biased_matrix(2, favoured_class=2)


class TestDriftingAnnotator:
    def test_accuracy_decays_toward_floor(self):
        annotator = DriftingAnnotator(0, 2, start_accuracy=0.95,
                                      floor_accuracy=0.6, decay=0.8, rng=0)
        start = annotator.current_accuracy
        for _ in range(50):
            annotator.answer(0)
        assert annotator.current_accuracy < start
        assert annotator.current_accuracy >= 0.6 - 1e-9

    def test_empirical_quality_drops(self):
        annotator = DriftingAnnotator(0, 2, start_accuracy=1.0,
                                      floor_accuracy=0.5, decay=0.9, rng=1)
        early = np.mean([annotator.answer(0) == 0 for _ in range(30)])
        late = np.mean([annotator.answer(0) == 0 for _ in range(300)][-100:])
        assert early > late

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            DriftingAnnotator(0, 2, start_accuracy=0.5, floor_accuracy=0.8)
        with pytest.raises(ConfigurationError):
            DriftingAnnotator(0, 2, decay=0.0)


class TestContamination:
    def test_replaces_last_workers_only(self):
        pool = build_pool(worker_accs=(0.8, 0.75, 0.7), expert_accs=(0.95,))
        contaminated = contaminate_pool(pool.annotators, n_spammers=1, rng=0)
        # Last worker (id 2) became a spammer; expert untouched.
        assert contaminated[2].confusion.quality() == pytest.approx(0.5)
        assert contaminated[3].confusion.quality() == pytest.approx(0.95)
        assert contaminated[0].confusion.quality() == pytest.approx(0.8)

    def test_over_contamination_raises(self):
        pool = build_pool(worker_accs=(0.8,), expert_accs=(0.95,))
        with pytest.raises(ConfigurationError):
            contaminate_pool(pool.annotators, n_spammers=2)

    def test_ids_and_costs_preserved(self):
        pool = build_pool()
        contaminated = contaminate_pool(pool.annotators, n_adversaries=1,
                                        rng=0)
        for original, new in zip(pool.annotators, contaminated):
            assert new.annotator_id == original.annotator_id
            assert new.cost == original.cost
            assert new.kind == original.kind


class TestRobustnessUnderContamination:
    def _accuracy(self, algo, answers, truths, n_ann):
        result = algo.infer(answers, 2, n_ann)
        return np.mean([result.labels[i] == truths[i]
                        for i in range(len(truths))])

    def test_dawid_skene_downweights_a_spammer(self):
        """With a spammer in the pool, confusion-matrix EM should recover
        more accuracy than unweighted majority voting."""
        clean = build_pool(worker_accs=(0.85, 0.8, 0.75), expert_accs=(),
                           seed=3).annotators
        annotators = contaminate_pool(clean, n_spammers=1, rng=4)
        pool = AnnotatorPool(annotators, 2)
        rng = np.random.default_rng(5)
        truths = rng.integers(0, 2, size=300)
        platform = CrowdPlatform(truths, pool, BudgetManager(10.0 ** 9))
        platform.ask_batch((i, [0, 1, 2]) for i in range(300))
        answers = {i: platform.history.answers_for(i) for i in range(300)}
        ds_acc = self._accuracy(DawidSkene(), answers, truths, 3)
        mv_acc = self._accuracy(MajorityVote(), answers, truths, 3)
        assert ds_acc >= mv_acc

    def test_platform_accepts_drifting_annotators(self):
        annotators = [
            DriftingAnnotator(0, 2, rng=0),
            DriftingAnnotator(1, 2, rng=1),
        ]
        pool = AnnotatorPool(annotators, 2)
        truths = np.array([0, 1, 0, 1])
        platform = CrowdPlatform(truths, pool, BudgetManager(100.0))
        records = platform.ask_batch((i, [0, 1]) for i in range(4))
        assert len(records) == 8
