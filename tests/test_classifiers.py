"""Tests for repro.classifiers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import (
    KNNClassifier,
    LogisticRegressionClassifier,
    MLPClassifier,
    logistic,
)
from repro.classifiers.logistic import GRAD_TOL, MAX_NEWTON_STEPS
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError, NotFittedError
from repro.obs import MetricsRegistry, use_registry

from logistic_oracle import KColumnLogistic


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
        clf = LogisticRegressionClassifier(1, 2)
        clf.fit(x, y, sample_weights=np.array([10.0, 1.0]))
        assert clf.predict_proba(np.zeros((1, 1)))[0, 0] > 0.5

    def test_bad_weight_shape_raises(self):
        clf = LogisticRegressionClassifier(2, 2)
        with pytest.raises(ConfigurationError):
            clf.fit(np.ones((3, 2)), np.array([0, 1, 0]),
                    sample_weights=np.ones(2))

    @pytest.mark.parametrize("weights", [
        np.zeros(3), np.array([1.0, -0.5, 1.0]), np.array([1.0, np.nan, 1.0]),
        np.array([1.0, np.inf, 1.0]),
    ], ids=["zero-sum", "negative", "nan", "inf"])
    def test_bad_weight_values_raise(self, weights):
        clf = LogisticRegressionClassifier(2, 2)
        with pytest.raises(ConfigurationError):
            clf.fit(np.ones((3, 2)), np.array([0, 1, 0]), sample_weights=weights)
        assert not clf._fitted

    def test_wrong_feature_width_raises(self):
        clf = LogisticRegressionClassifier(2, 2)
        with pytest.raises(ConfigurationError):
            clf.fit(np.ones((3, 3)), np.array([0, 1, 0]))
        clf.fit(np.ones((3, 2)), np.array([0, 1, 0]))
        for x in (np.ones((4, 3)), np.ones((4, 1))):
            with pytest.raises(ConfigurationError):
                clf.predict_proba(x)

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(0, 2)
        # With l2 = 0 the optimum does not exist on separable data.
        for l2 in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                LogisticRegressionClassifier(2, 2, l2=l2)

    def test_refit_continues_from_previous_weights(self, blobs):
        soft = np.eye(2)[blobs.labels] * 0.8 + 0.1
        clf = LogisticRegressionClassifier(blobs.n_features, 2)
        first = newton_steps(clf, blobs.features, soft, None)
        weight = clf.weight.copy()
        # The first fit ended at the optimum, so a refit on the same
        # labels starts there and takes no step.
        assert first > 0
        assert newton_steps(clf, blobs.features, soft, None) == 0
        np.testing.assert_array_equal(clf.weight, weight)

    def test_multiclass(self):
        ds = make_blobs(200, 5, n_classes=3, separation=5.0, rng=2)
        clf = LogisticRegressionClassifier(5, 3).fit(ds.features, ds.labels)
        assert (clf.predict(ds.features) == ds.labels).mean() > 0.8


def newton_steps(clf, x, soft, sample_weights) -> float:
    """``clf.fit_soft`` under a fresh registry; returns its Newton steps."""
    registry = MetricsRegistry()
    with use_registry(registry):
        clf.fit_soft(x, soft, sample_weights)
    return registry.counter_value("classifier.newton_steps")


def objective_gradient(clf, x, soft, sample_weights) -> np.ndarray:
    """Gradient of the weight-normalised objective at ``clf``'s weights.

    Written out independently of the solver: weighted soft-label
    cross-entropy plus ``l2/2 * ||weight||^2``, the bias unpenalised.
    """
    w = np.ones(x.shape[0]) if sample_weights is None else sample_weights
    err = (clf.predict_proba(x) - soft) * (w / w.sum())[:, None]
    return np.concatenate([(x.T @ err + clf.l2 * clf.weight).ravel(),
                           err.sum(axis=0)])


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


L2_GRID = st.sampled_from([0.02, 0.1, 1.0])


@given(soft_fit_problems(), L2_GRID)
@settings(max_examples=120, deadline=None)
def test_fit_soft_ends_below_the_gradient_stop(problem, l2):
    x, soft, weights = problem
    clf = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2)
    assert newton_steps(clf, x, soft, weights) <= MAX_NEWTON_STEPS
    gradient = objective_gradient(clf, x, soft, weights)
    assert np.linalg.norm(gradient) <= GRAD_TOL


@given(soft_fit_problems(), L2_GRID, st.data())
@settings(max_examples=120, deadline=None)
def test_warm_refit_reaches_the_cold_optimum_in_no_more_steps(problem, l2,
                                                              data):
    """A fit cut short after ``k`` Newton steps and refit from there ends
    at the cold fit's optimum, in no more steps than the cold fit took.

    This is the warm start exactly: the refit resumes from the weights it
    is given.  From the optimum of *other* labels a warm start is not
    always shorter (a start in the saturated region of separable data
    takes more steps than zeros), so that case is measured on joint EM
    (DESIGN.md section 5), not asserted here.
    """
    x, soft, weights = problem
    cold = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2)
    cold_steps = newton_steps(cold, x, soft, weights)
    cut = data.draw(st.integers(0, int(cold_steps)))
    warm = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2)
    with mock.patch.object(logistic, "MAX_NEWTON_STEPS", cut):
        assert newton_steps(warm, x, soft, weights) == cut
    assert cut + newton_steps(warm, x, soft, weights) <= cold_steps
    np.testing.assert_allclose(warm.predict_proba(x), cold.predict_proba(x),
                               atol=1e-9)
    np.testing.assert_allclose(warm.weight, cold.weight, atol=1e-9)


def _oracle_pair(x, soft, weights, l2):
    """The contrast-basis fit and the k-column oracle fit of one problem."""
    clf = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2)
    oracle = KColumnLogistic(x.shape[1], soft.shape[1], l2=l2)
    return (clf, newton_steps(clf, x, soft, weights),
            oracle, newton_steps(oracle, x, soft, weights))


@given(soft_fit_problems(), L2_GRID)
@settings(max_examples=120, deadline=None)
def test_contrast_basis_fit_reaches_the_k_column_optimum(problem, l2):
    """The fit on ``k - 1`` contrast columns solves the k-column problem
    (``logistic_oracle.py``), on any problem.

    Both stop anywhere inside the :data:`GRAD_TOL` gradient ball, and CG
    amplifies rounding on ill-conditioned problems, so the two stopping
    points are not the same to rounding: a targeted search finds
    probabilities 2e-5 apart, and the k-column solver against itself
    with the classes merely relabelled takes 17 vs 20 Newton steps.
    """
    x, soft, weights = problem
    clf, _, oracle, _ = _oracle_pair(x, soft, weights, l2)
    np.testing.assert_allclose(clf.predict_proba(x), oracle.predict_proba(x),
                               atol=1e-4, rtol=0)


@pytest.mark.parametrize("seed", range(40))
def test_contrast_basis_fit_takes_the_k_column_newton_steps(seed):
    """On problems drawn uniformly from the hypothesis strategy's range
    (not the adversarial corners it searches), the two fits take the same
    Newton steps to the same optimum: over 1,300 such problems the step
    counts always agreed and the probabilities differed by at most
    2.3e-6."""
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(1, 301), rng.integers(1, 97), rng.integers(2, 13)
    x = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 4.0])
    soft = rng.dirichlet(np.full(k, rng.choice([0.1, 1.0, 10.0])), size=n)
    weights = rng.random(n) + 0.01 if seed % 2 else None
    clf, steps, oracle, oracle_steps = _oracle_pair(
        x, soft, weights, rng.choice([0.02, 0.1, 1.0]))
    assert steps == oracle_steps
    np.testing.assert_allclose(clf.predict_proba(x), oracle.predict_proba(x),
                               atol=1e-5, rtol=0)


@given(soft_fit_problems(), L2_GRID, st.data())
@settings(max_examples=60, deadline=None)
def test_single_class_labels_terminate_with_finite_weights(problem, l2, data):
    """All mass on one class: the unpenalised bias has no finite optimum
    (it wants that class at probability 1), yet the fit stops within the
    Newton cap, with finite weights that predict the class."""
    x, soft, weights = problem
    label = data.draw(st.integers(0, soft.shape[1] - 1))
    clf = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2)
    assert newton_steps(clf, x, np.eye(soft.shape[1])[np.full(len(x), label)],
                        weights) <= MAX_NEWTON_STEPS
    assert np.isfinite(clf.weight).all() and np.isfinite(clf.bias).all()
    assert (clf.predict(x) == label).all()


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
