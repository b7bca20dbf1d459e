"""Tests for repro.classifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def row_major_fit(clf, x, soft, sample_weights, epochs, tol):
    """``fit_soft`` as the row-major ``(n, n_classes)`` loop: the oracle.

    Returns the weight, bias and number of epochs run, starting from the
    classifier's current weights without touching them.
    """
    n = x.shape[0]
    w = np.full(n, 1.0 / n) if sample_weights is None \
        else sample_weights / sample_weights.sum()
    weight, bias = clf.weight.copy(), clf.bias.copy()
    prev_loss = np.inf
    epoch = 0
    for epoch in range(1, epochs + 1):
        logits = x @ weight + bias
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        proba = ex / ex.sum(axis=1, keepdims=True)
        err = (proba - soft) * w[:, None]
        grad_w = x.T @ err + clf.l2 * weight
        grad_b = err.sum(axis=0)
        weight -= clf.learning_rate * grad_w
        bias -= clf.learning_rate * grad_b
        loss = -float((w * (soft * np.log(proba + 1e-12)).sum(axis=1)).sum())
        if abs(prev_loss - loss) < tol:
            break
        prev_loss = loss
    return weight, bias, epoch


@st.composite
def soft_fit_problems(draw):
    """Features, soft labels and optional weights, 1-300 rows, 2-12 classes."""
    n = draw(st.integers(1, 300))
    # Up to the 83 features of the bundled datasets at scale 0.05 and
    # past them: BLAS changes kernels with the width.
    n_features = draw(st.integers(1, 96))
    n_classes = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(n, n_features)) * draw(st.sampled_from([0.1, 1.0, 4.0]))
    concentration = draw(st.sampled_from([0.1, 1.0, 10.0]))
    soft = rng.dirichlet(np.full(n_classes, concentration), size=n)
    weights = rng.random(n) + 0.01 if draw(st.booleans()) else None
    return x, soft, weights


@given(soft_fit_problems(), st.sampled_from([0.0, 1e-3, 0.02]),
       st.sampled_from([1e-6, 1e-3]))
@settings(max_examples=120, deadline=None)
def test_class_major_fit_equals_the_row_major_loop(problem, l2, tol):
    """Same weight, bias and epoch count as the row-major loop, on a cold
    fit and on a warm refit to new labels, and the same probabilities."""
    x, soft, weights = problem
    clf = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2,
                                       epochs=60, tol=tol)
    for labels in (soft, soft[::-1]):
        weight, bias, epochs = row_major_fit(clf, x, labels, weights,
                                             clf.epochs, tol)
        if 1 < epochs < clf.epochs:
            # One epoch more or less would leave other weights, so equal
            # weights below mean equal epoch counts.
            assert not np.array_equal(
                row_major_fit(clf, x, labels, weights, epochs - 1, -1)[0],
                weight)
            assert not np.array_equal(
                row_major_fit(clf, x, labels, weights, epochs + 1, -1)[0],
                weight)
        clf.fit_soft(x, labels, weights)
        assert np.array_equal(clf.weight, weight)
        assert np.array_equal(clf.bias, bias)
    logits = x @ clf.weight + clf.bias
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    proba = clf.predict_proba(x)
    assert proba.flags.c_contiguous
    assert np.array_equal(proba, ex / ex.sum(axis=1, keepdims=True))


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
