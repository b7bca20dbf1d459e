"""StateFeaturizer: public API and agreement with a per-object loop oracle.

The featurizer's contract is that after *any* interleaving of state
mutations — answers recorded, answers amended (fault corruption),
quality estimates refreshed, classifier probabilities installed,
labelled sets updated, budget spent — every block equals the Section
III-B features computed one object and one annotator at a time.  The
property test below drives random interleavings through the real
mutation entry points and pins exactly that.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import make_platform
from repro.core.featurizer import StateFeaturizer
from repro.core.state import LabellingState
from repro.crowd.history import UNANSWERED
from repro.datasets.registry import load_dataset


def build_state(seed: int = 0) -> LabellingState:
    dataset = load_dataset("S12CP", scale=0.01, rng=seed)
    platform = make_platform(
        dataset, n_workers=3, n_experts=2, budget=1e9, rng=seed + 1
    )
    state = LabellingState(platform.history, platform.pool, platform.budget)
    state.platform = platform  # for tests that drive mutations
    return state


def oracle_blocks(state: LabellingState):
    """Object, annotator and global blocks, one object/annotator at a time."""
    history, pool = state.history, state.pool
    n, n_classes = history.n_objects, history.n_classes
    obj = np.zeros((n, 6))
    for i in range(n):
        counts = history.answer_counts(i)
        n_answers = counts.sum()
        share = counts.max() / n_answers if n_answers else 0.0
        obj[i, 0] = min(n_answers / state.answer_norm, 1.0)
        obj[i, 1] = 1.0 - share if n_answers else 0.0
        obj[i, 2] = share
        proba = state._classifier_proba
        if proba is None:
            obj[i, 3:] = (0.0, 1.0 / n_classes, 1.0)
        else:
            top = sorted(proba[i])
            obj[i, 3] = top[-1] - top[-2]
            obj[i, 4] = proba[i].max()
            obj[i, 5] = (
                -(proba[i] * np.log(proba[i] + 1e-12)).sum() / np.log(n_classes)
            )
    max_cost = max(a.cost for a in pool)
    loads = np.array([history.annotator_load(j) for j in range(len(pool))])
    ann = np.array([
        [a.cost / max_cost, pool.estimates[j].quality(),
         float(a.is_expert), loads[j] / n]
        for j, a in enumerate(pool)
    ])
    glob = np.array([
        state.budget.remaining / state.budget.total,
        len(state._human_labelled) / n,
        len(state._enriched) / n,
    ])
    return obj, ann, glob, loads


def oracle_tensor(state: LabellingState) -> np.ndarray:
    """Every pair's feature vector: its object, annotator and global rows."""
    obj, ann, glob, _ = oracle_blocks(state)
    return np.array([
        [np.concatenate([obj[i], ann[j], glob]) for j in range(len(ann))]
        for i in range(len(obj))
    ])


class TestPublicApi:
    def test_exported_from_package_root(self):
        assert repro.StateFeaturizer is StateFeaturizer
        assert "StateFeaturizer" in dir(repro)

    def test_block_accessors_return_copies(self):
        state = build_state()
        obj = state.featurizer.object_features()
        obj[:] = -1.0  # mutating it must not leak into the next call
        assert not np.array_equal(
            state.featurizer.object_features(), obj
        )

    def test_amend_invalidates_object_row(self):
        state = build_state()
        state.platform.ask(1, 2)
        state.featurizer.features()
        old_answer = int(state.history.matrix[1, 2])
        state.history.amend(1, 2, (old_answer + 1) % state.history.n_classes)
        assert np.array_equal(
            state.featurizer.features(), oracle_tensor(state)
        )

    def test_classifier_update_refreshes_clf_columns(self):
        state = build_state()
        state.featurizer.features()
        proba = np.full(
            (state.history.n_objects, state.history.n_classes),
            1.0 / state.history.n_classes,
        )
        proba[:, 0] = 0.9
        proba /= proba.sum(axis=1, keepdims=True)
        state.set_classifier_proba(proba)
        assert np.array_equal(
            state.featurizer.features(), oracle_tensor(state)
        )

    def test_annotator_loads_track_history(self):
        state = build_state()
        state.platform.ask(0, 1)
        state.platform.ask(2, 1)
        loads = state.featurizer.annotator_loads()
        assert loads[1] == 2


# ---------------------------------------------------------------------------
# Oracle property: random interleavings of real mutations.
# ---------------------------------------------------------------------------

#: (op_code, payload) pairs; payloads are reduced modulo whatever the op
#: needs, so every draw is valid against any state.
operations = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 10 ** 6)),
    min_size=0,
    max_size=25,
)


def _apply(state: LabellingState, op: int, payload: int) -> None:
    history = state.history
    n, w = history.n_objects, len(state.pool)
    if op == 0:  # record a new answer (the common step mutation)
        obj, ann = (payload // w) % n, payload % w
        if not history.has_answered(obj, ann):
            state.platform.ask(obj, ann)
    elif op == 1:  # amend an existing answer (fault corruption path)
        answered = np.argwhere(history.matrix != UNANSWERED)
        if answered.size:
            obj, ann = answered[payload % len(answered)]
            history.amend(
                int(obj), int(ann), payload % history.n_classes
            )
    elif op == 2:  # refresh quality estimates from current truths
        truths = {i: payload % history.n_classes for i in range(n)}
        state.pool.update_estimates(history, truths)
    elif op == 3:  # install / replace classifier probabilities
        raw = 1.0 + ((payload + np.arange(n * history.n_classes))
                     % 7).astype(float).reshape(n, history.n_classes)
        state.set_classifier_proba(raw / raw.sum(axis=1, keepdims=True))
    elif op == 4:  # move objects into the labelled sets
        ids = np.arange(n)[: payload % (n + 1)]
        state.set_labelled(ids[::2], ids[1::2])
    elif op == 5:  # spend budget (global block must track it)
        state.budget.charge(float(payload % 5))


@given(ops=operations, seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_cached_tensor_equals_from_scratch_after_any_interleaving(ops, seed):
    state = build_state(seed)
    featurizer = state.featurizer
    for op, payload in ops:
        _apply(state, op, payload)
    obj, ann, glob, loads = oracle_blocks(state)
    np.testing.assert_allclose(featurizer.object_features(), obj,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(featurizer.annotator_features(), ann,
                               rtol=1e-12, atol=1e-12)
    assert np.array_equal(featurizer.global_features(), glob)
    assert np.array_equal(featurizer.annotator_loads(), loads)
    np.testing.assert_allclose(featurizer.features(), oracle_tensor(state),
                               rtol=1e-12, atol=1e-12)
