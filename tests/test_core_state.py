"""Tests for repro.core.state (featurization and masking)."""

import numpy as np
import pytest

from repro.core.state import (
    N_ANNOTATOR_FEATURES,
    N_GLOBAL_FEATURES,
    N_OBJECT_FEATURES,
    N_PAIR_FEATURES,
    LabellingState,
)
from repro.crowd.cost import BudgetManager
from repro.crowd.history import LabellingHistory
from repro.exceptions import ConfigurationError

from conftest import build_pool


@pytest.fixture
def state():
    history = LabellingHistory(6, 4, 2)
    pool = build_pool()  # 3 workers + 1 expert
    budget = BudgetManager(100.0)
    return LabellingState(history, pool, budget)


class TestFeatureBlocks:
    def test_shapes(self, state):
        assert state.object_features().shape == (6, N_OBJECT_FEATURES)
        assert state.annotator_features().shape == (4, N_ANNOTATOR_FEATURES)
        assert state.global_features().shape == (N_GLOBAL_FEATURES,)
        assert state.feature_tensor().shape == (6, 4, N_PAIR_FEATURES)

    def test_pair_features_match_tensor(self, state):
        state.history.record(2, 1, 1)
        tensor = state.feature_tensor()
        np.testing.assert_allclose(state.pair_features(2, 1), tensor[2, 1])

    def test_object_features_reflect_answers(self, state):
        state.history.record(0, 0, 1)
        state.history.record(0, 1, 0)
        feats = state.object_features()
        assert feats[0, 0] > 0          # answer count
        assert feats[0, 1] == pytest.approx(0.5)  # disagreement 1 - 1/2
        assert feats[1, 0] == 0.0       # untouched object

    def test_annotator_features_costs_and_quality(self, state):
        feats = state.annotator_features()
        np.testing.assert_allclose(feats[:, 0], [0.1, 0.1, 0.1, 1.0])
        assert feats[3, 2] == 1.0  # expert flag
        assert feats[0, 2] == 0.0

    def test_global_budget_fraction(self, state):
        state.budget.charge(25.0)
        assert state.global_features()[0] == pytest.approx(0.75)

    def test_classifier_proba_features(self, state):
        proba = np.tile([0.9, 0.1], (6, 1))
        state.set_classifier_proba(proba)
        feats = state.object_features()
        np.testing.assert_allclose(feats[:, 3], 0.8)   # margin
        np.testing.assert_allclose(feats[:, 4], 0.9)   # max proba

    def test_no_classifier_defaults(self, state):
        feats = state.object_features()
        np.testing.assert_allclose(feats[:, 5], 1.0)   # max entropy

    def test_wrong_proba_shape_raises(self, state):
        with pytest.raises(ConfigurationError):
            state.set_classifier_proba(np.ones((3, 2)))


class TestMask:
    def test_initially_all_valid(self, state):
        assert state.action_mask().all()

    def test_answered_pair_masked(self, state):
        state.history.record(1, 2, 0)
        mask = state.action_mask()
        assert not mask[1, 2]
        assert mask[1, 0]

    def test_labelled_object_masked(self, state):
        state.set_labelled(human=[3], enriched=[])
        assert not state.action_mask()[3].any()

    def test_enriched_unmasked_in_nonsticky_mode(self):
        history = LabellingHistory(4, 4, 2)
        st = LabellingState(history, build_pool(), BudgetManager(50.0))
        st.set_labelled(human=[0], enriched=[2])
        mask = st.action_mask()
        assert not mask[0].any()
        assert mask[2].any()

    def test_unaffordable_annotator_masked(self, state):
        state.budget.charge(95.0)  # 5 left: workers (1) ok, expert (10) not
        mask = state.action_mask()
        assert mask[:, 0].all()
        assert not mask[:, 3].any()


class TestQueries:
    def test_invalid_answer_norm_raises(self, state):
        with pytest.raises(ConfigurationError):
            LabellingState(state.history, state.pool, state.budget,
                           answer_norm=0)
