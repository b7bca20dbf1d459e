"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.crowd.confusion import ConfusionMatrix
from repro.inference.dawid_skene import DawidSkene
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference
from repro.metrics.classification import accuracy, confusion_counts, f1_score
from repro.rl.replay import ReplayBuffer, Transition
from repro.utils.topk import select_objects_by_topk_q, top_k_indices

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

probabilities = st.floats(0.01, 0.99)


@st.composite
def confusion_matrices(draw, max_classes=4):
    n = draw(st.integers(2, max_classes))
    raw = draw(arrays(float, (n, n),
                      elements=st.floats(0.01, 10.0)))
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def answer_maps(draw, max_objects=12, max_annotators=5, n_classes=3):
    n_objects = draw(st.integers(1, max_objects))
    n_annotators = draw(st.integers(1, max_annotators))
    answers = {}
    for oid in range(n_objects):
        n_votes = draw(st.integers(1, n_annotators))
        voters = draw(st.permutations(range(n_annotators)))
        answers[oid] = {
            voters[i]: draw(st.integers(0, n_classes - 1))
            for i in range(n_votes)
        }
    return answers, n_classes, n_annotators


# ---------------------------------------------------------------------------
# Confusion matrices
# ---------------------------------------------------------------------------

@given(confusion_matrices())
@settings(max_examples=40, deadline=None)
def test_confusion_quality_in_unit_interval(matrix):
    cm = ConfusionMatrix(matrix)
    assert 0.0 <= cm.quality() <= 1.0


@given(confusion_matrices(), st.floats(0.5, 0.99))
@settings(max_examples=40, deadline=None)
def test_quality_floor_invariants(matrix, floor):
    bounded = ConfusionMatrix(matrix).with_quality_floor(floor)
    assert np.diag(bounded.matrix).min() >= floor - 1e-9
    np.testing.assert_allclose(bounded.matrix.sum(axis=1), 1.0, atol=1e-9)
    assert (bounded.matrix >= -1e-12).all()


@given(st.integers(2, 6), probabilities)
@settings(max_examples=30, deadline=None)
def test_from_accuracy_rows_stochastic(n_classes, acc):
    cm = ConfusionMatrix.from_accuracy(n_classes, acc)
    np.testing.assert_allclose(cm.matrix.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(cm.quality(), acc, atol=1e-9)


# ---------------------------------------------------------------------------
# Truth inference
# ---------------------------------------------------------------------------

@given(answer_maps())
@settings(max_examples=30, deadline=None)
def test_inference_posteriors_are_distributions(params):
    answers, n_classes, n_annotators = params
    for algo in (MajorityVote(), DawidSkene(max_iter=20),
                 PMInference(max_iter=20)):
        result = algo.infer(answers, n_classes, n_annotators)
        assert set(result.labels) == set(answers)
        for oid, post in result.posteriors.items():
            assert post.shape == (n_classes,)
            assert abs(post.sum() - 1.0) < 1e-6
            assert (post >= -1e-12).all()
            assert result.labels[oid] == int(np.argmax(post))


@given(answer_maps())
@settings(max_examples=30, deadline=None)
def test_unanimous_answers_win_majority(params):
    answers, n_classes, n_annotators = params
    # Force unanimity: every vote becomes class 0.
    unanimous = {
        oid: {j: 0 for j in votes} for oid, votes in answers.items()
    }
    result = MajorityVote().infer(unanimous, n_classes, n_annotators)
    assert all(label == 0 for label in result.labels.values())


# ---------------------------------------------------------------------------
# Top-k selection
# ---------------------------------------------------------------------------

@given(arrays(float, st.integers(1, 30),
              elements=st.floats(-100, 100)), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_top_k_indices_are_the_k_largest(values, k):
    idx = top_k_indices(values, k)
    assert len(idx) == min(k, len(values))
    assert len(set(idx)) == len(idx)
    chosen = sorted(values[idx], reverse=True)
    rest = np.delete(values, idx)
    if rest.size and chosen:
        assert chosen[-1] >= rest.max() - 1e-12
    # The top-k sum over the chosen indices is the sum of the k largest.
    np.testing.assert_allclose(
        float(np.sum(values[idx])), float(np.sort(values)[::-1][:k].sum()),
        atol=1e-9,
    )


@given(
    arrays(float, st.tuples(st.integers(1, 10), st.integers(1, 6)),
           elements=st.floats(-10, 10)),
    st.integers(1, 4),
    st.integers(1, 8),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_select_objects_invariants(q, k, n_select, data):
    # Randomly mask some rows entirely.
    n_rows = q.shape[0]
    masked_rows = data.draw(st.sets(st.integers(0, n_rows - 1)))
    for row in masked_rows:
        q[row, :] = -np.inf
    selected = select_objects_by_topk_q(q, k, n_select)
    chosen_objects = [obj for obj, _ in selected]
    # No duplicates, no masked rows, bounded count.
    assert len(chosen_objects) == len(set(chosen_objects))
    assert set(chosen_objects).isdisjoint(masked_rows)
    assert len(selected) <= min(n_select, n_rows)
    # Scores are non-increasing and assignments valid.
    scores = [float(q[obj, ann].sum()) for obj, ann in selected]
    assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))
    for obj, annotators in selected:
        assert len(annotators) <= k
        assert np.isfinite(q[obj, annotators]).all()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

label_arrays = st.integers(1, 50).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, 1)),
        arrays(np.int64, n, elements=st.integers(0, 1)),
    )
)


@given(label_arrays)
@settings(max_examples=50, deadline=None)
def test_metric_bounds_and_consistency(pair):
    y_true, y_pred = pair
    acc = accuracy(y_true, y_pred)
    f1 = f1_score(y_true, y_pred)
    assert 0.0 <= acc <= 1.0
    assert 0.0 <= f1 <= 1.0
    counts = confusion_counts(y_true, y_pred, 2)
    assert counts.sum() == y_true.size
    assert acc == (np.trace(counts) / counts.sum())


@given(label_arrays)
@settings(max_examples=30, deadline=None)
def test_accuracy_symmetric_under_relabel(pair):
    y_true, y_pred = pair
    assert accuracy(y_true, y_pred) == accuracy(1 - y_true, 1 - y_pred)


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------

@given(st.integers(1, 20), st.lists(st.floats(-5, 5), min_size=1,
                                    max_size=60))
@settings(max_examples=40, deadline=None)
def test_replay_buffer_never_exceeds_capacity(capacity, rewards):
    buf = ReplayBuffer(capacity, rng=0)
    for r in rewards:
        buf.push(Transition(np.array([r]), r, None, True))
    assert len(buf) == min(capacity, len(rewards))
    sample = buf.sample(5)
    assert len(sample) == 5
    stored_rewards = {t.reward for t in buf._storage}
    assert {t.reward for t in sample} <= stored_rewards

