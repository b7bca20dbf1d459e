"""Tests for repro.active (bootstrap MinExpError)."""

import numpy as np
import pytest

from repro.active.bootstrap import min_exp_error_scores
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError


class TestMinExpError:
    def test_uncertain_boundary_scores_higher(self):
        ds = make_blobs(200, 4, separation=4.0, rng=0)
        # Candidates: one at a class mean (easy), one at the origin (hard).
        class0_mean = ds.features[ds.labels == 0].mean(axis=0)
        candidates = np.vstack([class0_mean, np.zeros(4)])
        scores = min_exp_error_scores(
            lambda: LogisticRegressionClassifier(4, 2),
            ds.features, ds.labels, candidates,
            n_bootstrap=5, rng=1,
        )
        assert scores[1] > scores[0]

    def test_no_labelled_data_gives_uniform_max(self):
        scores = min_exp_error_scores(
            lambda: LogisticRegressionClassifier(3, 2),
            np.empty((0, 3)), np.empty(0, dtype=int), np.ones((4, 3)),
            rng=0,
        )
        np.testing.assert_array_equal(scores, 1.0)

    def test_handles_single_class_resamples(self):
        # Tiny labelled set makes single-class bootstrap draws likely;
        # the top-up logic must keep the classifier fittable.
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 1])
        scores = min_exp_error_scores(
            lambda: LogisticRegressionClassifier(1, 2),
            x, y, np.array([[0.5], [1.5]]), n_bootstrap=8, rng=2,
        )
        assert scores.shape == (2,)
        assert np.isfinite(scores).all()

    def test_invalid_bootstrap_count_raises(self):
        with pytest.raises(ConfigurationError):
            min_exp_error_scores(
                lambda: LogisticRegressionClassifier(1, 2),
                np.ones((2, 1)), np.array([0, 1]), np.ones((1, 1)),
                n_bootstrap=0,
            )

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            min_exp_error_scores(
                lambda: LogisticRegressionClassifier(1, 2),
                np.ones((3, 1)), np.array([0, 1]), np.ones((1, 1)),
            )
