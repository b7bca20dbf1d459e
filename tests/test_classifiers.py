"""Tests for repro.classifiers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import (
    KNNClassifier,
    LogisticRegressionClassifier,
    logistic,
)
from repro.classifiers.logistic import (
    DIRECT_SOLVE_SIZE,
    GRAD_TOL,
    MAX_NEWTON_STEPS,
    _log_softmax,
)
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError, NotFittedError
from repro.obs import MetricsRegistry, use_registry

from logistic_oracle import KColumnLogistic, theta_fit


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(150, 6, separation=3.5, rng=0)


ALL_CLASSIFIERS = [
    lambda d: LogisticRegressionClassifier(d, 2),
    lambda d: KNNClassifier(2, k=5),
]


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS,
                         ids=["logistic", "knn"])
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


@pytest.mark.xfail(strict=True, reason=(
    "known defect of the theta-form CG: on this one-row, 12-class problem "
    "with soft labels down to 1.6e-15 the Newton steps shrink to 0.02-0.07 "
    "and the fit ends at MAX_NEWTON_STEPS with gradient norm 1.7e-5, the "
    "smallest label's log-probability still 18 above its target"))
def test_fit_soft_reaches_the_gradient_stop_on_extreme_soft_labels():
    """A falsifying example of the two properties around it, pinned."""
    x = np.array([[-2.38941231]])
    soft = np.array([[8.55588053e-05, 1.61224423e-04, 4.42496133e-03,
                      7.30422670e-01, 4.71616614e-05, 1.59055679e-15,
                      6.95131559e-14, 5.12378320e-07, 1.03339095e-01,
                      1.60581400e-01, 4.46978151e-04, 4.90438427e-04]])
    clf = LogisticRegressionClassifier(1, 12, l2=0.02)
    assert newton_steps(clf, x, soft, None) < MAX_NEWTON_STEPS
    assert np.linalg.norm(objective_gradient(clf, x, soft, None)) <= GRAD_TOL


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
    (not the adversarial corners it searches), the CG fits take the
    oracle's Newton steps to the same optimum: over 1,300 such problems
    the step counts always agreed and the probabilities differed by at
    most 2.3e-6.  The direct solve is switched off, so fits with fewer
    rows than features run Gram-form CG and the rest ``theta``-form CG.
    """
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(1, 301), rng.integers(1, 97), rng.integers(2, 13)
    x = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 4.0])
    soft = rng.dirichlet(np.full(k, rng.choice([0.1, 1.0, 10.0])), size=n)
    weights = rng.random(n) + 0.01 if seed % 2 else None
    with mock.patch.object(logistic, "DIRECT_SOLVE_SIZE", 0):
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


def fit_work(clf, x, soft, sample_weights=None, **options) -> dict:
    """``clf.fit_soft`` under a fresh registry; returns its counters."""
    registry = MetricsRegistry()
    with use_registry(registry):
        clf.fit_soft(x, soft, sample_weights, **options)
    return registry.snapshot()["counters"]


def objective_value(clf, x, soft, sample_weights) -> float:
    """The weight-normalised objective at ``clf``'s weights, written out."""
    w = sample_weights / sample_weights.sum()
    log_proba = _log_softmax(x @ clf.weight + clf.bias)
    return float(-np.vdot(w[:, None] * soft, log_proba)
                 + 0.5 * clf.l2 * np.vdot(clf.weight, clf.weight))


def resampled_problem(seed, n_classes, max_rows=None):
    """Fewer rows than features, drawn with replacement as a bootstrap
    resample draws them (duplicate rows), with soft labels and weights."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(40, 97))
    n = int(rng.integers(5, d if max_rows is None else min(d, max_rows)))
    base = rng.normal(size=(n, d))
    x = base[rng.integers(0, n, size=n)]
    soft = rng.dirichlet(np.ones(n_classes), size=n)
    return x, soft, rng.random(n) + 0.01


@given(soft_fit_problems(), L2_GRID, st.data())
@settings(max_examples=60, deadline=None)
def test_fits_with_as_many_rows_as_features_are_unchanged(problem, l2, data):
    """``n >= d``: the ``theta``-form Newton-CG, bit for bit as before the
    Gram form (``logistic_oracle.theta_fit``), cold and warm."""
    x, soft, weights = problem
    x = x[:, :data.draw(st.integers(1, x.shape[0]))]  # n >= d
    clf = LogisticRegressionClassifier(x.shape[1], soft.shape[1], l2=l2)
    theta = np.zeros((x.shape[1] + 1, soft.shape[1] - 1))
    for labels in (soft, soft[::-1]):
        counters = fit_work(clf, x, labels, weights)
        theta = theta_fit(x, labels, weights, l2, theta, clf._basis)
        np.testing.assert_array_equal(clf.weight, theta[:-1] @ clf._basis.T)
        np.testing.assert_array_equal(clf.bias, theta[-1] @ clf._basis.T)
        assert counters["classifier.direct_solves"] == 0


@pytest.mark.parametrize("seed", range(24))
def test_gram_cg_takes_the_k_column_newton_steps(seed):
    """Gram-form CG (direct solve off) runs the oracle's Newton iterates on
    bootstrap-like rows with duplicates, three classes and weights: after
    each of the first three steps the weights agree to 2e-15 (1e-12
    asserted), and the fit, cold or resumed from two steps, takes the
    oracle's Newton steps.  Converged weights differ by up to 1.9e-8
    (1e-7 asserted), as the ``theta`` form's do (2.5e-8 on these
    problems): the last, truncated CG solve amplifies rounding."""
    x, soft, weights = resampled_problem(seed, 3)
    d = x.shape[1]
    with mock.patch.object(logistic, "DIRECT_SOLVE_SIZE", 0):
        for cut in (1, 2, 3):
            with mock.patch.object(logistic, "MAX_NEWTON_STEPS", cut):
                clf = LogisticRegressionClassifier(d, 3).fit_soft(x, soft, weights)
                oracle = KColumnLogistic(d, 3).fit_soft(x, soft, weights)
            np.testing.assert_allclose(clf.weight, oracle.weight, atol=1e-12, rtol=0)
        clf, oracle = LogisticRegressionClassifier(d, 3), KColumnLogistic(d, 3)
        with mock.patch.object(logistic, "MAX_NEWTON_STEPS", 2):
            clf.fit_soft(x, soft, weights)
            oracle.fit_soft(x, soft, weights)
        counters = fit_work(clf, x, soft, weights)
        assert counters["classifier.newton_steps"] == \
            newton_steps(oracle, x, soft, weights)
        assert counters["classifier.direct_solves"] == 0
    np.testing.assert_allclose(clf.weight, oracle.weight, atol=1e-7, rtol=0)
    np.testing.assert_allclose(clf.bias, oracle.bias, atol=1e-7, rtol=0)


@pytest.mark.parametrize("seed", range(24))
def test_direct_solve_reaches_the_k_column_optimum(seed):
    """One solve per Newton step, no Hessian-vector product, and the
    oracle's optimum: gradient norm at most :data:`GRAD_TOL` at the
    returned weights, objective equal within 1e-10 relative.  Both fits
    stop anywhere inside the gradient ball, where the objective varies by
    up to 2.0e-11 relative over 300 such problems, so 1e-12 cannot
    hold."""
    n_classes = 2 + seed % 2
    x, soft, weights = resampled_problem(
        seed, n_classes, max_rows=DIRECT_SOLVE_SIZE // (n_classes - 1))
    clf = LogisticRegressionClassifier(x.shape[1], n_classes)
    counters = fit_work(clf, x, soft, weights)
    assert counters["classifier.direct_solves"] == \
        counters["classifier.newton_steps"] > 0
    assert counters["classifier.hv_products"] == 0
    assert np.linalg.norm(objective_gradient(clf, x, soft, weights)) <= GRAD_TOL
    oracle = KColumnLogistic(x.shape[1], n_classes).fit_soft(x, soft, weights)
    assert objective_value(clf, x, soft, weights) == pytest.approx(
        objective_value(oracle, x, soft, weights), rel=1e-10, abs=0)


@pytest.mark.parametrize("failure", ["singular", "not-descent"])
def test_a_bad_direct_system_ends_the_fit_as_cg_nonpositive_curvature_does(
        failure):
    """CG that meets curvature <= 0 on its first direction returns no
    step, the line search finds no decrease and the fit ends with its
    start weights after one counted step.  A direct system that is
    singular, or whose solution is no descent step, ends it the same."""
    x, soft, weights = resampled_problem(0, 2, max_rows=30)
    d = x.shape[1]
    concave = lambda basis, proba, w_proba: -np.ones(  # noqa: E731
        (len(proba), 1, 1))
    with mock.patch.object(logistic, "DIRECT_SOLVE_SIZE", 0), \
            mock.patch.object(logistic, "_curvature", concave):
        cg = LogisticRegressionClassifier(d, 2)
        cg_work = fit_work(cg, x, soft, weights)
    if failure == "singular":
        solve = mock.Mock(side_effect=np.linalg.LinAlgError("Singular matrix"))
    else:
        solve = mock.Mock(side_effect=lambda system, rhs: -rhs)  # uphill
    with mock.patch.object(logistic.np.linalg, "solve", solve):
        direct = LogisticRegressionClassifier(d, 2)
        direct_work = fit_work(direct, x, soft, weights)
    assert solve.call_count == 1
    assert cg_work["classifier.newton_steps"] == \
        direct_work["classifier.newton_steps"] == 1
    assert direct_work["classifier.direct_solves"] == 1
    for clf in (cg, direct):
        assert clf._fitted and not clf.weight.any() and not clf.bias.any()


class TestGramReuse:
    """A Gram-form fit keeps a copy of its rows with their ``K``."""

    def test_a_refit_on_equal_rows_reuses_k_and_coefficients(self):
        x, soft, weights = resampled_problem(3, 2, max_rows=40)
        clf = LogisticRegressionClassifier(x.shape[1], 2).fit_soft(
            x, soft, weights)
        gram = clf._dual[1]
        counters = fit_work(clf, x.copy(), soft, weights)  # equal, not same
        assert clf._dual[1] is gram
        assert counters["classifier.newton_steps"] == 0  # at the optimum
        fit_work(clf, x, soft[::-1], weights)
        assert clf._dual[1] is gram

    def test_a_refit_after_the_rows_change_in_place_starts_over(self):
        """The kept copy, not the caller's array, decides reuse: rows
        changed in place, here so that the duplicate rows change too, are
        other rows, fitted from the warm weights in the ``theta`` form."""
        x, soft, weights = resampled_problem(7, 3, max_rows=40)
        clf = LogisticRegressionClassifier(x.shape[1], 3).fit_soft(
            x, soft, weights)
        x[0] = x[1] + 1.0
        x[2] = x[3]
        start = clf._theta.copy()
        counters = fit_work(clf, x, soft, weights)
        assert counters["classifier.direct_solves"] == 0
        np.testing.assert_array_equal(
            clf._theta, theta_fit(x, soft, weights, clf.l2, start, clf._basis))
        assert clf._dual is None

    def test_warm_weights_from_other_rows_take_the_theta_form(self):
        """Weights fitted on other rows need not lie in the row space of
        ``x``: the refit runs the ``theta`` form from them, bit for bit."""
        x, soft, weights = resampled_problem(5, 2, max_rows=40)
        clf = LogisticRegressionClassifier(x.shape[1], 2).fit_soft(
            x[::2], soft[::2], weights[::2])
        start = clf._theta.copy()
        counters = fit_work(clf, x, soft, weights)
        assert counters["classifier.direct_solves"] == 0
        np.testing.assert_array_equal(
            clf._theta, theta_fit(x, soft, weights, clf.l2, start, clf._basis))


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
