"""Tests for the CrowdRL joint truth-inference model (Section V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError
from repro.inference.joint import JointInference
from repro.inference.majority import MajorityVote
from repro.obs import MetricsRegistry, use_registry

from conftest import build_pool
from ds_oracle import plain_em


def joint_setup(n_objects=100, separation=2.5, worker_accs=(0.7, 0.65, 0.6),
                expert_accs=(0.95,), expert_frac=0.0, seed=0):
    dataset = make_blobs(n_objects, 6, separation=separation, rng=seed)
    pool = build_pool(worker_accs=worker_accs, expert_accs=expert_accs,
                      seed=seed)
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(10.0 ** 9))
    rng = np.random.default_rng(seed)
    n_workers = len(worker_accs)
    expert_ids = list(range(n_workers, n_workers + len(expert_accs)))
    expert_objects = set(
        rng.choice(n_objects, int(n_objects * expert_frac),
                   replace=False).tolist()
    )
    for i in range(n_objects):
        annotators = list(range(n_workers))
        if i in expert_objects:
            annotators += expert_ids
        platform.ask_batch([(i, annotators)])
    answers = {i: platform.history.answers_for(i) for i in range(n_objects)}
    return dataset, platform, answers


def make_joint(dataset, platform, **kwargs):
    clf = LogisticRegressionClassifier(dataset.n_features, 2, l2=0.02)
    return JointInference(
        clf, dataset.features,
        expert_mask=platform.pool.expert_mask, **kwargs,
    )


class TestJointInference:
    def test_beats_majority_vote_with_features(self):
        dataset, platform, answers = joint_setup(expert_frac=0.3, seed=3)
        truths = platform.evaluation_labels()
        n_ann = len(platform.pool)
        joint = make_joint(dataset, platform)
        j_acc = np.mean([
            joint.infer(answers, 2, n_ann).labels[i] == truths[i]
            for i in range(len(truths))
        ])
        mv = MajorityVote().infer(answers, 2, n_ann)
        mv_acc = np.mean([mv.labels[i] == truths[i] for i in range(len(truths))])
        assert j_acc >= mv_acc

    def test_fits_usable_classifier(self):
        dataset, platform, answers = joint_setup(seed=1)
        joint = make_joint(dataset, platform)
        joint.infer(answers, 2, len(platform.pool))
        assert joint.fitted_classifier is not None
        acc = (joint.fitted_classifier.predict(dataset.features)
               == dataset.labels).mean()
        assert acc > 0.7

    def test_expert_floor_bounds_expert_quality(self):
        dataset, platform, answers = joint_setup(expert_frac=1.0, seed=2)
        joint = make_joint(dataset, platform, expert_floor=0.9)
        result = joint.infer(answers, 2, len(platform.pool))
        expert_id = len(platform.pool) - 1
        expert_cm = result.confusions[expert_id]
        assert np.diag(expert_cm.matrix).min() >= 0.9 - 1e-9

    def test_workers_not_floored(self):
        dataset, platform, answers = joint_setup(
            worker_accs=(0.55,), expert_accs=(0.95,), expert_frac=1.0, seed=4
        )
        joint = make_joint(dataset, platform, expert_floor=0.9)
        result = joint.infer(answers, 2, len(platform.pool))
        worker_cm = result.confusions[0]
        assert np.diag(worker_cm.matrix).min() < 0.9

    def test_classifier_weight_zero_ignores_features(self):
        dataset, platform, answers = joint_setup(seed=5)
        joint = make_joint(dataset, platform, classifier_weight=0.0)
        result = joint.infer(answers, 2, len(platform.pool))
        assert joint.fitted_classifier is None
        assert result.labels  # still infers from annotators alone

    def test_posteriors_are_distributions(self):
        dataset, platform, answers = joint_setup(n_objects=30, seed=6)
        result = make_joint(dataset, platform).infer(
            answers, 2, len(platform.pool)
        )
        for post in result.posteriors.values():
            assert post.sum() == pytest.approx(1.0)
            assert (post >= 0).all()

    def test_empty_answers(self):
        dataset, platform, _ = joint_setup(n_objects=20, seed=7)
        result = make_joint(dataset, platform).infer(
            {}, 2, len(platform.pool)
        )
        assert result.labels == {}

    def test_object_without_features_raises(self):
        dataset, platform, answers = joint_setup(n_objects=20, seed=8)
        joint = make_joint(dataset, platform)
        answers[999] = {0: 1}
        with pytest.raises(ConfigurationError):
            joint.infer(answers, 2, len(platform.pool))

    def test_expert_mask_length_validated(self):
        dataset, platform, answers = joint_setup(n_objects=20, seed=9)
        clf = LogisticRegressionClassifier(dataset.n_features, 2)
        joint = JointInference(clf, dataset.features, expert_mask=[True])
        with pytest.raises(ConfigurationError):
            joint.infer(answers, 2, len(platform.pool))

    def test_invalid_construction_params(self):
        clf = LogisticRegressionClassifier(3, 2)
        feats = np.zeros((5, 3))
        with pytest.raises(ConfigurationError):
            JointInference(clf, feats, expert_floor=1.5)
        with pytest.raises(ConfigurationError):
            JointInference(clf, feats, classifier_weight=-1)
        with pytest.raises(ConfigurationError):
            JointInference(clf, feats, classifier_clip=0.4)
        with pytest.raises(ConfigurationError):
            JointInference(clf, np.zeros(5))

    def test_drifting_annotator_degrades_gracefully(self):
        """Joint EM survives a worker whose accuracy drifts below chance.

        Drift violates the fixed-confusion-matrix assumption, so no
        quality-estimate guarantee holds for the drifter — but inference
        must not crash, must label every object, and the expert floor must
        still bound the expert's estimated quality.
        """
        from repro.crowd.annotator import Annotator, AnnotatorKind
        from repro.crowd.behaviors import DriftingAnnotator
        from repro.crowd.confusion import ConfusionMatrix
        from repro.crowd.pool import AnnotatorPool

        n_objects, seed = 80, 12
        dataset = make_blobs(n_objects, 6, separation=2.5, rng=seed)
        streams = np.random.default_rng(seed).spawn(3)
        annotators = [
            # Starts fine, decays to far below the 0.5 chance level.
            DriftingAnnotator(0, 2, start_accuracy=0.6, floor_accuracy=0.2,
                              decay=0.8, rng=streams[0]),
            Annotator(annotator_id=1, kind=AnnotatorKind.WORKER,
                      confusion=ConfusionMatrix.from_accuracy(2, 0.7),
                      cost=1.0, _rng=streams[1]),
            Annotator(annotator_id=2, kind=AnnotatorKind.EXPERT,
                      confusion=ConfusionMatrix.from_accuracy(2, 0.95),
                      cost=10.0, _rng=streams[2]),
        ]
        pool = AnnotatorPool(annotators, 2)
        platform = CrowdPlatform(dataset.labels, pool, BudgetManager(10.0 ** 9))
        platform.ask_batch([(i, [0, 1, 2]) for i in range(n_objects)])
        assert annotators[0].current_accuracy < 0.5  # drift really happened

        answers = {i: platform.history.answers_for(i)
                   for i in range(n_objects)}
        joint = make_joint(dataset, platform, expert_floor=0.9)
        result = joint.infer(answers, 2, len(pool))

        assert sorted(result.labels) == list(range(n_objects))
        for post in result.posteriors.values():
            assert post.sum() == pytest.approx(1.0)
        # The expert lower bound holds even with a misspecified co-worker.
        assert np.diag(result.confusions[2].matrix).min() >= 0.9 - 1e-9

    def test_classifier_clip_tempers_contribution(self):
        """With a tight clip the classifier's E-step term is bounded, so the
        posterior never strays far from the annotator evidence."""
        dataset, platform, answers = joint_setup(n_objects=40, seed=10)
        tight = make_joint(dataset, platform, classifier_clip=0.55)
        loose = make_joint(dataset, platform, classifier_clip=0.99)
        r_tight = tight.infer(answers, 2, len(platform.pool))
        r_loose = loose.infer(answers, 2, len(platform.pool))
        mean_conf_tight = np.mean([p.max() for p in r_tight.posteriors.values()])
        mean_conf_loose = np.mean([p.max() for p in r_loose.posteriors.values()])
        assert mean_conf_tight <= mean_conf_loose + 1e-6


class TestConvergenceRecord:
    def test_max_deltas_record_every_sweep(self):
        dataset, platform, answers = joint_setup(n_objects=40, seed=11)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = make_joint(dataset, platform).infer(
                answers, 2, len(platform.pool)
            )
        assert len(result.max_deltas) == result.iterations
        assert result.converged == (result.max_deltas[-1] < 1e-4)
        assert all(d >= 0.0 for d in result.max_deltas)
        histogram = registry.snapshot()["histograms"]["infer.em_max_delta"]
        assert histogram["total"] == result.iterations
        assert histogram["max"] == max(result.max_deltas)


@st.composite
def reduction_cases(draw):
    n_classes = draw(st.integers(2, 4))
    n_annotators = draw(st.integers(1, 5))
    n_objects = draw(st.integers(1, 15))
    answers = {}
    for oid in range(n_objects):
        voters = draw(st.permutations(range(n_annotators)))
        n_votes = draw(st.integers(1, n_annotators))
        answers[oid] = {
            voters[i]: draw(st.integers(0, n_classes - 1))
            for i in range(n_votes)
        }
    smoothing = draw(st.sampled_from([0.1, 0.5, 1.0]))
    tol = draw(st.sampled_from([1e-3, 1e-4, 1e-5]))
    max_iter = draw(st.integers(1, 40))
    return answers, n_classes, n_annotators, smoothing, tol, max_iter


@given(reduction_cases())
@settings(max_examples=60, deadline=None)
def test_joint_without_classifier_reduces_to_dawid_skene(case):
    """Joint EM with no classifier term, a learned prior and no expert
    floor is Dawid-Skene (Section V without Theta), sweep for sweep: the
    plain-EM oracle, not the SQUAREM solver, takes the same iterates."""
    answers, n_classes, n_annotators, smoothing, tol, max_iter = case
    features = np.zeros((len(answers), 1))
    joint = JointInference(
        LogisticRegressionClassifier(1, n_classes), features,
        classifier_weight=0.0, learn_prior=True,
        smoothing=smoothing, tol=tol, max_iter=max_iter,
    ).infer(answers, n_classes, n_annotators)
    ds = plain_em(answers, n_classes, n_annotators, smoothing=smoothing,
                  tol=tol, max_iter=max_iter)
    assert joint.iterations == ds.iterations
    assert joint.converged == ds.converged
    for oid in answers:
        np.testing.assert_allclose(joint.posteriors[oid], ds.posteriors[oid])
    assert joint.labels == ds.labels
    assert sorted(joint.confusions) == sorted(ds.confusions)


class _SpyClassifier(LogisticRegressionClassifier):
    """Logistic ``phi`` that records the EM sweep of every ``fit_soft``."""

    def __init__(self, *args, sweep_counter, **kwargs):
        super().__init__(*args, **kwargs)
        self.sweep_counter = sweep_counter
        self.fit_sweeps: list[int] = []
        self.fit_weights: list[np.ndarray] = []

    def fit_soft(self, x, soft_labels, sample_weights=None):
        super().fit_soft(x, soft_labels, sample_weights)
        # The E-step of the current sweep has not run yet.
        self.fit_sweeps.append(self.sweep_counter["e_steps"] + 1)
        self.fit_weights.append(self.weight.copy())
        return self


class TestRefitSchedule:
    """phi is refit on the power-of-two sweeps only (DESIGN.md section 5)."""

    def _run(self, monkeypatch, classifier_weight):
        import repro.inference.joint as joint_module

        counter = {"e_steps": 0}
        e_step = joint_module._e_step_posteriors

        def counting_e_step(*args):
            counter["e_steps"] += 1
            return e_step(*args)

        monkeypatch.setattr(joint_module, "_e_step_posteriors", counting_e_step)
        dataset, platform, answers = joint_setup(n_objects=40, seed=5)
        spy = _SpyClassifier(dataset.n_features, 2, l2=0.02,
                             sweep_counter=counter)
        # tol=0 never converges: every run makes all max_iter sweeps.
        joint = JointInference(
            spy, dataset.features, expert_mask=platform.pool.expert_mask,
            classifier_weight=classifier_weight, max_iter=25, tol=0.0,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            result = joint.infer(answers, 2, len(platform.pool))
        assert result.iterations == 25
        assert not result.converged
        assert counter["e_steps"] == 25
        return joint, spy, registry.snapshot()["counters"]

    def test_refits_on_powers_of_two(self, monkeypatch):
        joint, spy, counters = self._run(monkeypatch, classifier_weight=1.0)
        assert spy.fit_sweeps == [1, 2, 4, 8, 16]
        assert counters["infer.em_sweeps"] == 25
        assert counters["infer.em_refits"] == 5
        # fitted_classifier is the model of the last refit (sweep 16).
        assert joint.fitted_classifier is spy
        np.testing.assert_array_equal(spy.weight, spy.fit_weights[-1])

    def test_no_refit_without_classifier_term(self, monkeypatch):
        joint, spy, counters = self._run(monkeypatch, classifier_weight=0.0)
        assert spy.fit_sweeps == []
        assert joint.fitted_classifier is None
        assert counters["infer.em_refits"] == 0


class TestGramForm:
    """With fewer answered objects than features, phi's fits take the Gram
    form on the answered rows only."""

    def test_refits_of_one_call_form_k_once(self):
        _, platform, answers = joint_setup(n_objects=30, seed=2)
        wide = np.random.default_rng(0).normal(size=(30, 80))  # n < d
        grams = []

        class Spy(LogisticRegressionClassifier):
            def fit_soft(self, x, soft_labels, sample_weights=None):
                super().fit_soft(x, soft_labels, sample_weights)
                grams.append(self._dual[1])
                return self

        joint = JointInference(Spy(80, 2), wide,
                               expert_mask=platform.pool.expert_mask)
        joint.infer(answers, 2, len(platform.pool))
        assert len(grams) >= 2
        assert all(gram is grams[0] for gram in grams)
        assert grams[0].shape == (30, 30)

    def test_a_few_rows_of_a_large_matrix_allocate_nothing_quadratic(self):
        """Joint EM and the final classifier fit 30 rows of a 3,000-row
        feature matrix: nothing of the matrix's ``N x N`` size (72 MB) is
        allocated, the peak stays below an eighth of it."""
        import tracemalloc

        from repro.baselines.common import train_final_classifier

        _, platform, answers = joint_setup(n_objects=30, seed=2)
        n_rows, n_features = 3000, 100
        features = np.random.default_rng(1).normal(size=(n_rows, n_features))
        truths = {i: i % 2 for i in range(30)}
        tracemalloc.start()
        try:
            joint = JointInference(
                LogisticRegressionClassifier(n_features, 2), features,
                expert_mask=platform.pool.expert_mask)
            joint.infer(answers, 2, len(platform.pool))
            assert joint.fitted_classifier is not None
            assert train_final_classifier(features, truths, 2, rng=0) is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_rows * n_rows
