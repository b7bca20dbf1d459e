"""Tests for repro.classifiers."""

import numpy as np
import pytest

from repro.classifiers import KNNClassifier, LogisticRegressionClassifier, MLPClassifier
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(150, 6, separation=3.5, rng=0)


ALL_CLASSIFIERS = [
    lambda d: MLPClassifier(d, 2, hidden=(16,), epochs=40, rng=0),
    lambda d: LogisticRegressionClassifier(d, 2),
    lambda d: KNNClassifier(2, k=5),
]


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS,
                         ids=["mlp", "logistic", "knn"])
class TestClassifierContract:
    def test_learns_separable_data(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        acc = (clf.predict(blobs.features) == blobs.labels).mean()
        assert acc > 0.9

    def test_proba_shape_and_simplex(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        proba = clf.predict_proba(blobs.features[:10])
        assert proba.shape == (10, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        assert (proba >= 0).all()

    def test_predict_is_argmax(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        proba = clf.predict_proba(blobs.features[:20])
        np.testing.assert_array_equal(
            clf.predict(blobs.features[:20]), proba.argmax(axis=1)
        )

    def test_unfitted_raises(self, factory, blobs):
        clf = factory(blobs.n_features)
        with pytest.raises(NotFittedError):
            clf.predict_proba(blobs.features[:3])

    def test_fit_soft_accepts_distributions(self, factory, blobs):
        soft = np.zeros((blobs.n_objects, 2))
        soft[np.arange(blobs.n_objects), blobs.labels] = 0.9
        soft[np.arange(blobs.n_objects), 1 - blobs.labels] = 0.1
        clf = factory(blobs.n_features).fit_soft(blobs.features, soft)
        acc = (clf.predict(blobs.features) == blobs.labels).mean()
        assert acc > 0.85

    def test_wrong_soft_shape_raises(self, factory, blobs):
        clf = factory(blobs.n_features)
        with pytest.raises(ConfigurationError):
            clf.fit_soft(blobs.features, np.ones((blobs.n_objects, 5)))


class TestLogisticSpecifics:
    def test_sample_weights_tilt_decision(self):
        # Two identical points with opposite labels: weights decide.
        x = np.zeros((2, 1))
        y = np.array([0, 1])
        clf = LogisticRegressionClassifier(1, 2, l2=0.0)
        clf.fit(x, y, sample_weights=np.array([10.0, 1.0]))
        assert clf.predict_proba(np.zeros((1, 1)))[0, 0] > 0.5

    def test_bad_weight_shape_raises(self):
        clf = LogisticRegressionClassifier(2, 2)
        with pytest.raises(ConfigurationError):
            clf.fit(np.ones((3, 2)), np.array([0, 1, 0]),
                    sample_weights=np.ones(2))

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(0, 2)
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(2, 2, learning_rate=0)
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(2, 2, l2=-1)

    def test_refit_continues_from_previous_weights(self, blobs):
        soft = np.eye(2)[blobs.labels] * 0.8 + 0.1
        clf = LogisticRegressionClassifier(blobs.n_features, 2, l2=0.02)
        epochs = []
        softmax = clf._softmax

        def counting_softmax(logits):
            epochs[-1] += 1
            return softmax(logits)

        clf._softmax = counting_softmax

        def objective():
            proba = clf.predict_proba(blobs.features)
            cross_entropy = -np.mean((soft * np.log(proba)).sum(axis=1))
            return cross_entropy + 0.5 * clf.l2 * (clf.weight ** 2).sum()

        epochs.append(0)
        clf.fit_soft(blobs.features, soft)
        first_loss = objective()
        epochs.append(0)
        clf.fit_soft(blobs.features, soft)
        assert epochs[1] < epochs[0]
        assert objective() <= first_loss

    def test_multiclass(self):
        ds = make_blobs(200, 5, n_classes=3, separation=5.0, rng=2)
        clf = LogisticRegressionClassifier(5, 3).fit(ds.features, ds.labels)
        assert (clf.predict(ds.features) == ds.labels).mean() > 0.8


class TestKNNSpecifics:
    def test_memorises_training_points(self, blobs):
        clf = KNNClassifier(2, k=1).fit(blobs.features, blobs.labels)
        np.testing.assert_array_equal(
            clf.predict(blobs.features), blobs.labels
        )

    def test_k_capped_by_training_size(self):
        clf = KNNClassifier(2, k=50)
        clf.fit(np.array([[0.0], [1.0]]), np.array([0, 1]))
        proba = clf.predict_proba(np.array([[0.5]]))
        assert proba.shape == (1, 2)

    def test_wrong_query_width_raises(self, blobs):
        clf = KNNClassifier(2).fit(blobs.features, blobs.labels)
        with pytest.raises(ConfigurationError):
            clf.predict_proba(np.ones((2, blobs.n_features + 1)))

    def test_invalid_k_raises(self):
        with pytest.raises(ConfigurationError):
            KNNClassifier(2, k=0)


class TestMLPSpecifics:
    def test_warm_start_continues(self):
        ds = make_blobs(80, 4, separation=2.0, rng=2)
        clf = MLPClassifier(4, 2, hidden=(8,), epochs=5, warm_start=True, rng=0)
        clf.fit(ds.features, ds.labels)
        w_before = clf._network.layers[0].weight.copy()
        clf.fit(ds.features, ds.labels)
        assert not np.allclose(w_before, clf._network.layers[0].weight)

    def test_cold_start_reinitialises(self):
        ds = make_blobs(80, 4, separation=2.0, rng=2)
        clf = MLPClassifier(4, 2, hidden=(8,), epochs=5, rng=0)
        clf.fit(ds.features, ds.labels)
        first = clf._network
        clf.fit(ds.features, ds.labels)
        assert clf._network is not first

    def test_invalid_features_raise(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(0, 2)
