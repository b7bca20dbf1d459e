"""Tests for the EM-style inference algorithms (Dawid-Skene, PM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.exceptions import ConfigurationError
from repro.inference.dawid_skene import DawidSkene
from repro.inference.em import _AnswerIndex, _e_step_posteriors
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference
from repro.obs import MetricsRegistry, use_registry

from conftest import build_pool
from ds_oracle import plain_em


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
], ids=["dawid-skene", "pm"])
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
            MajorityVote().infer(answers, 2, n_ann).labels, truths
        )
        assert ds_acc > mv_acc

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


@pytest.mark.parametrize("n_objects,worker_accs,seed", [
    (80, (0.85, 0.8, 0.75, 0.55), 0),
    (200, (0.9, 0.7, 0.6), 3),
    (400, (0.97, 0.55, 0.55, 0.55), 2),
    (150, (0.8, 0.8, 0.65, 0.6, 0.55), 7),
])
def test_squarem_reaches_the_plain_em_fixed_point(n_objects, worker_accs,
                                                  seed):
    """On well-determined problems SQUAREM and plain EM, both run to
    ``tol=1e-10``, land on the same posteriors and labels."""
    answers, _truths, n_ann = simulate_answers(
        n_objects=n_objects, worker_accs=worker_accs, seed=seed
    )
    fast = DawidSkene(tol=1e-10, max_iter=10_000).infer(answers, 2, n_ann)
    slow = plain_em(answers, 2, n_ann, tol=1e-10, max_iter=10_000)
    assert fast.converged and slow.converged
    assert fast.iterations < slow.iterations
    for oid in answers:
        np.testing.assert_allclose(fast.posteriors[oid], slow.posteriors[oid],
                                   rtol=0, atol=1e-6)
    assert fast.labels == slow.labels


class TestDawidSkeneCounters:
    """Each call lands its sweeps and its outcome in the obs registry."""

    def _counted(self, **kwargs):
        answers, _, n_ann = simulate_answers(n_objects=60, seed=4)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = DawidSkene(**kwargs).infer(answers, 2, n_ann)
        # Metering never changes the result.
        plain = DawidSkene(**kwargs).infer(answers, 2, n_ann)
        for oid, post in plain.posteriors.items():
            assert np.array_equal(result.posteriors[oid], post)
        return result, registry.snapshot()["counters"]

    def test_converged_call(self):
        result, counters = self._counted()
        assert result.converged
        assert counters["infer.ds_sweeps"] == result.iterations
        assert counters["infer.ds_converged"] == 1
        assert "infer.ds_hit_max_iter" not in counters

    def test_capped_call(self):
        result, counters = self._counted(max_iter=3)
        assert not result.converged
        assert counters["infer.ds_sweeps"] == result.iterations == 3
        assert counters["infer.ds_hit_max_iter"] == 1
        assert "infer.ds_converged" not in counters


@st.composite
def ds_problems(draw):
    """Answer maps with silent annotators, any smoothing, cap and tol."""
    n_classes = draw(st.integers(2, 4))
    n_annotators = draw(st.integers(1, 6))
    active = draw(st.permutations(range(n_annotators)))[
        :draw(st.integers(1, n_annotators))]
    n_objects = draw(st.integers(1, 15))
    answers = {}
    for oid in range(n_objects):
        voters = draw(st.permutations(active))
        n_votes = draw(st.integers(1, len(active)))
        answers[oid] = {
            voters[i]: draw(st.integers(0, n_classes - 1))
            for i in range(n_votes)
        }
    smoothing = draw(st.sampled_from([0.0, 0.01, 0.2, 1.0]))
    tol = draw(st.sampled_from([1e-3, 1e-5, 1e-8]))
    max_iter = draw(st.integers(1, 60))
    return answers, n_classes, n_annotators, smoothing, tol, max_iter


@given(ds_problems())
@settings(max_examples=100, deadline=None)
def test_squarem_iterates_stay_on_the_simplex(problem):
    """Extrapolated or not, every reported posterior is a distribution and
    the sweep record obeys the ``max_iter`` / ``tol`` contract."""
    answers, n_classes, n_annotators, smoothing, tol, max_iter = problem
    result = DawidSkene(smoothing=smoothing, tol=tol, max_iter=max_iter).infer(
        answers, n_classes, n_annotators
    )
    for post in result.posteriors.values():
        assert post.shape == (n_classes,)
        assert np.isfinite(post).all() and (post >= 0).all()
        assert post.sum() == pytest.approx(1.0)
    assert 1 <= result.iterations <= max_iter
    assert len(result.max_deltas) == result.iterations
    assert result.converged == (result.max_deltas[-1] < tol)
    assert sorted(result.confusions) == sorted(
        {j for votes in answers.values() for j in votes})


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


def add_at_soft_counts(index, post, smoothing):
    """``soft_counts`` as an ``np.add.at`` scatter: the oracle."""
    counts = np.full((index.n_annotators, index.n_classes, index.n_classes),
                     smoothing)
    np.add.at(counts, (index.annotators, slice(None), index.answers),
              post[index.rows])
    return counts


def add_at_class_mass(index, post, smoothing):
    """``class_mass`` as an ``np.add.at`` scatter: the oracle."""
    mass = np.full((1, index.n_classes), smoothing)
    np.add.at(mass, np.zeros(len(index.object_ids), dtype=np.intp), post)
    return mass[0]


def add_at_e_step(index, prior, clf_log, confusions):
    """``_e_step_posteriors`` as an ``np.add.at`` scatter: the oracle."""
    log_post = np.log(prior + 1e-12)[None, :] + clf_log
    columns = np.log(confusions[index.annotators, :, index.answers] + 1e-12)
    np.add.at(log_post, index.rows, columns)
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    return post / post.sum(axis=1, keepdims=True)


@st.composite
def wide_em_states(draw):
    """Like :func:`em_states`, up to 12 classes, with idle annotators."""
    n_classes = draw(st.integers(2, 12))
    n_annotators = draw(st.integers(1, 8))
    # Only some annotators answer anything; the rest keep smoothing only.
    active = draw(st.permutations(range(n_annotators)))[
        :draw(st.integers(1, n_annotators))]
    n_objects = draw(st.integers(1, 12))
    answers = {}
    for oid in draw(st.permutations(range(3 * n_objects)))[:n_objects]:
        voters = draw(st.permutations(active))
        n_votes = draw(st.integers(1, len(active)))  # 1: single answer
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


@given(wide_em_states(), st.sampled_from([0.0, 0.01, 0.1, 1.0]))
@settings(max_examples=200, deadline=None)
def test_bincount_kernels_equal_the_add_at_scatters(state, smoothing):
    """Start values first, then answers in order: bit-identical sums."""
    answers, n_classes, n_annotators, post, prior, clf_log, confusions = state
    index = _AnswerIndex(answers, n_classes, n_annotators)
    assert np.array_equal(index.soft_counts(post, smoothing),
                          add_at_soft_counts(index, post, smoothing))
    assert np.array_equal(index.class_mass(post, smoothing),
                          add_at_class_mass(index, post, smoothing))
    assert np.array_equal(
        _e_step_posteriors(index, prior, clf_log, confusions),
        add_at_e_step(index, prior, clf_log, confusions),
    )


def pm_reference(answers, n_classes, n_annotators, max_iter, tol,
                 regulariser):
    """PM as per-answer loops: the oracle for the flat-index version."""
    object_ids = sorted(answers)
    weights = np.ones(n_annotators)
    posteriors = {}
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        for oid in object_ids:
            scores = np.zeros(n_classes)
            for annotator_id, answer in answers[oid].items():
                scores[answer] += weights[annotator_id]
            total = scores.sum()
            posteriors[oid] = (
                scores / total if total > 0
                else np.full(n_classes, 1.0 / n_classes)
            )
        labels = {oid: int(np.argmax(p)) for oid, p in posteriors.items()}
        new_weights = weights.copy()
        for j in range(n_annotators):
            n_seen = 0
            n_wrong = 0
            for oid in object_ids:
                if j in answers[oid]:
                    n_seen += 1
                    if answers[oid][j] != labels[oid]:
                        n_wrong += 1
            if n_seen == 0:
                continue
            err = np.clip(n_wrong / n_seen, regulariser, 1.0 - regulariser)
            new_weights[j] = -np.log(err)
        delta = float(np.abs(new_weights - weights).max())
        weights = new_weights
        if delta < tol:
            converged = True
            break
    return posteriors, iteration, converged


@given(em_states(), st.integers(1, 30), st.sampled_from([1e-6, 1e-2]),
       st.sampled_from([1e-3, 0.1, 0.3]))
@settings(max_examples=150, deadline=None)
def test_pm_equals_the_per_answer_loops(state, max_iter, tol, regulariser):
    """PM on the flat answer index reproduces the per-answer loops bitwise."""
    answers, n_classes, n_annotators = state[:3]
    result = PMInference(max_iter=max_iter, tol=tol,
                         regulariser=regulariser).infer(
        answers, n_classes, n_annotators
    )
    posteriors, iterations, converged = pm_reference(
        answers, n_classes, n_annotators, max_iter, tol, regulariser
    )
    assert sorted(result.posteriors) == sorted(posteriors)
    for oid, post in posteriors.items():
        assert np.array_equal(result.posteriors[oid], post)
        assert result.labels[oid] == int(np.argmax(post))
    assert (result.iterations, result.converged) == (iterations, converged)
