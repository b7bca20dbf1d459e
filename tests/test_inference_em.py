"""Tests for the EM-family inference algorithms (Dawid-Skene, PM, GLAD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.exceptions import ConfigurationError
from repro.inference.dawid_skene import DawidSkene
from repro.inference.em import _AnswerIndex, _e_step_posteriors
from repro.inference.glad import GladInference
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference

from conftest import build_pool


def simulate_answers(n_objects=80, worker_accs=(0.85, 0.8, 0.75, 0.55),
                     seed=0):
    """All annotators answer all objects; returns (answers, truths)."""
    pool = build_pool(worker_accs=worker_accs, expert_accs=(), seed=seed)
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=n_objects)
    platform = CrowdPlatform(truths, pool, BudgetManager(10.0 ** 9))
    platform.ask_batch((i, list(range(len(pool)))) for i in range(n_objects))
    answers = {i: platform.history.answers_for(i) for i in range(n_objects)}
    return answers, truths, len(pool)


def label_accuracy(labels, truths):
    return np.mean([labels[i] == truths[i] for i in range(len(truths))])


@pytest.mark.parametrize("algo_factory", [
    lambda: DawidSkene(),
    lambda: PMInference(),
    lambda: GladInference(max_iter=15),
], ids=["dawid-skene", "pm", "glad"])
class TestEMContract:
    def test_beats_chance_clearly(self, algo_factory):
        answers, truths, n_ann = simulate_answers()
        result = algo_factory().infer(answers, 2, n_ann)
        assert label_accuracy(result.labels, truths) > 0.8

    def test_posteriors_are_distributions(self, algo_factory):
        answers, _truths, n_ann = simulate_answers(n_objects=20)
        result = algo_factory().infer(answers, 2, n_ann)
        for post in result.posteriors.values():
            assert post.shape == (2,)
            assert post.sum() == pytest.approx(1.0)
            assert (post >= 0).all()

    def test_empty_answers_ok(self, algo_factory):
        result = algo_factory().infer({}, 2, 3)
        assert result.labels == {}

    def test_labels_are_posterior_argmax(self, algo_factory):
        answers, _truths, n_ann = simulate_answers(n_objects=30)
        result = algo_factory().infer(answers, 2, n_ann)
        for oid, label in result.labels.items():
            assert label == int(np.argmax(result.posteriors[oid]))

    def test_single_object(self, algo_factory):
        result = algo_factory().infer({0: {0: 1, 1: 1}}, 2, 2)
        assert result.labels[0] == 1


class TestDawidSkeneSpecifics:
    def test_recovers_confusion_matrices(self):
        answers, truths, n_ann = simulate_answers(
            n_objects=400, worker_accs=(0.9, 0.85, 0.8, 0.75), seed=1
        )
        result = DawidSkene(smoothing=0.01).infer(answers, 2, n_ann)
        est_best = result.confusions[0].quality()
        est_worst = result.confusions[3].quality()
        assert est_best > est_worst
        assert est_best == pytest.approx(0.9, abs=0.07)

    def test_outperforms_mv_with_skewed_worker_quality(self):
        # One excellent + three near-random workers: weighting matters.
        answers, truths, n_ann = simulate_answers(
            n_objects=400, worker_accs=(0.97, 0.55, 0.55, 0.55), seed=2
        )
        ds_acc = label_accuracy(
            DawidSkene().infer(answers, 2, n_ann).labels, truths
        )
        mv_acc = label_accuracy(
            MajorityVote(rng=0).infer(answers, 2, n_ann).labels, truths
        )
        assert ds_acc > mv_acc

    def test_fixed_class_prior_respected(self):
        answers = {0: {0: 0, 1: 1}}
        result = DawidSkene(class_prior=np.array([0.99, 0.01])).infer(
            answers, 2, 2
        )
        assert result.labels[0] == 0

    def test_convergence_flag(self):
        answers, _t, n_ann = simulate_answers(n_objects=50)
        result = DawidSkene(max_iter=200).infer(answers, 2, n_ann)
        assert result.converged
        assert result.iterations <= 200

    def test_max_deltas_record_every_sweep(self):
        answers, _, n_ann = simulate_answers(n_objects=40, seed=12)
        result = DawidSkene(max_iter=7).infer(answers, 2, n_ann)
        assert len(result.max_deltas) == result.iterations <= 7
        assert result.converged == (result.max_deltas[-1] < 1e-5)

    def test_unsmoothed_counts_tolerate_silent_annotators(self):
        # With smoothing=0 an annotator who answered nothing has no soft
        # counts at all; the extra annotator must not change the result.
        answers = {0: {0: 0, 1: 0}, 1: {0: 1, 1: 1}, 2: {0: 0, 1: 1}}
        two = DawidSkene(smoothing=0.0).infer(answers, 2, 2)
        three = DawidSkene(smoothing=0.0).infer(answers, 2, 3)
        for oid in answers:
            assert np.array_equal(two.posteriors[oid], three.posteriors[oid])
        assert sorted(three.confusions) == [0, 1]

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            DawidSkene(max_iter=0)
        with pytest.raises(ConfigurationError):
            DawidSkene(tol=0)
        with pytest.raises(ConfigurationError):
            DawidSkene(smoothing=-0.1)


class TestPMSpecifics:
    def test_good_workers_get_higher_weight_effect(self):
        # The reliable annotator should dominate a 1-vs-1 disagreement.
        answers = {}
        # Objects 0..39: annotators 0 (good) and 1 (bad) both answer; the
        # good one matches a consistent pattern, the bad one is random.
        rng = np.random.default_rng(3)
        truths = rng.integers(0, 2, 40)
        for i in range(40):
            good = int(truths[i])
            bad = int(truths[i]) if rng.random() < 0.55 else 1 - int(truths[i])
            # A third annotator mostly agrees with good, establishing trust.
            third = good if rng.random() < 0.9 else 1 - good
            answers[i] = {0: good, 1: bad, 2: third}
        result = PMInference().infer(answers, 2, 3)
        acc = label_accuracy(result.labels, truths)
        assert acc > 0.9

    def test_invalid_regulariser_raises(self):
        with pytest.raises(ConfigurationError):
            PMInference(regulariser=0.5)


class TestGladSpecifics:
    def test_accurate_with_mixed_pool(self):
        answers, truths, n_ann = simulate_answers(
            n_objects=200, worker_accs=(0.95, 0.6, 0.6), seed=4
        )
        result = GladInference(max_iter=10).infer(answers, 2, n_ann)
        assert label_accuracy(result.labels, truths) > 0.8

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            GladInference(max_iter=0)
        with pytest.raises(ConfigurationError):
            GladInference(learning_rate=0)


@st.composite
def em_states(draw):
    """An answer map plus a posterior, prior, log term and confusions."""
    n_classes = draw(st.integers(2, 4))
    n_annotators = draw(st.integers(1, 5))
    n_objects = draw(st.integers(1, 10))
    answers = {}
    for oid in draw(st.permutations(range(3 * n_objects)))[:n_objects]:
        voters = draw(st.permutations(range(n_annotators)))
        n_votes = draw(st.integers(1, n_annotators))
        answers[oid] = {
            voters[i]: draw(st.integers(0, n_classes - 1))
            for i in range(n_votes)
        }
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    post = rng.dirichlet(np.ones(n_classes), size=n_objects)
    prior = rng.dirichlet(np.ones(n_classes))
    clf_log = np.log(rng.dirichlet(np.ones(n_classes), size=n_objects))
    confusions = rng.dirichlet(np.ones(n_classes),
                               size=(n_annotators, n_classes))
    return answers, n_classes, n_annotators, post, prior, clf_log, confusions


@given(em_states(), st.sampled_from([0.0, 0.1, 1.0]))
@settings(max_examples=80, deadline=None)
def test_flat_kernels_equal_the_per_answer_loops(state, smoothing):
    """The flat-index E/M kernels reproduce the per-answer loops bitwise."""
    answers, n_classes, n_annotators, post, prior, clf_log, confusions = state
    index = _AnswerIndex(answers, n_classes, n_annotators)
    object_ids = sorted(answers)

    counts = np.full((n_annotators, n_classes, n_classes), smoothing)
    mass = np.full(n_classes, smoothing)
    votes = np.zeros((len(object_ids), n_classes))
    log_post = np.log(prior + 1e-12)[None, :] + clf_log
    for row, oid in enumerate(object_ids):
        mass += post[row]
        for annotator_id, answer in answers[oid].items():
            counts[annotator_id, :, answer] += post[row]
            votes[row, answer] += 1
            log_post[row] += np.log(confusions[annotator_id][:, answer] + 1e-12)
    log_post -= log_post.max(axis=1, keepdims=True)
    expected = np.exp(log_post)
    expected /= expected.sum(axis=1, keepdims=True)

    assert np.array_equal(index.soft_counts(post, smoothing), counts)
    assert np.array_equal(index.class_mass(post, smoothing), mass)
    assert np.array_equal(index.vote_shares(),
                          votes / votes.sum(axis=1, keepdims=True))
    assert np.array_equal(
        _e_step_posteriors(index, prior, clf_log, confusions), expected
    )
