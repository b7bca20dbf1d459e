"""Property-based tests over the end-to-end framework (hypothesis).

Randomised configurations must never break the hard invariants: budget is
never exceeded, every object gets a final label in range, and label
provenance is consistent with the platform's answer history.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CrowdRL, CrowdRLConfig, make_platform
from repro.core.result import LabelSource
from repro.datasets.synthetic import make_blobs

# A single shared dataset keeps runs fast; configs and budgets vary.
_DATASET = make_blobs(36, 5, separation=2.5, rng=123)


@st.composite
def run_params(draw):
    return dict(
        alpha=draw(st.sampled_from([0.05, 0.1, 0.2])),
        batch_size=draw(st.integers(1, 5)),
        k_per_object=draw(st.integers(1, 4)),
        budget=draw(st.sampled_from([15.0, 60.0, 150.0, 400.0])),
        seed=draw(st.integers(0, 5)),
    )


@given(run_params())
@settings(max_examples=12, deadline=None)
def test_run_invariants_hold_under_random_configs(params):
    platform = make_platform(
        _DATASET, n_workers=3, n_experts=1, budget=params["budget"],
        rng=params["seed"],
    )
    config = CrowdRLConfig(
        alpha=params["alpha"],
        batch_size=params["batch_size"],
        k_per_object=params["k_per_object"],
        min_truths_for_enrichment=8,
        train_steps_per_iteration=1,
        max_iterations=60,
    )
    outcome = CrowdRL(config, rng=params["seed"] + 50).run(_DATASET, platform)

    # Budget invariant.
    assert outcome.spent <= params["budget"] + 1e-9
    assert outcome.spent == pytest.approx(platform.budget.spent)

    # Coverage invariant: a label for every object, in range.
    assert outcome.final_labels.shape == (_DATASET.n_objects,)
    assert outcome.final_labels.min() >= 0
    assert outcome.final_labels.max() < _DATASET.n_classes

    # Provenance invariant: HUMAN-sourced labels require recorded answers.
    for object_id in np.nonzero(
        outcome.label_sources == LabelSource.HUMAN
    )[0]:
        assert platform.history.n_answers(int(object_id)) > 0

    # Ledger consistency: every charge corresponds to one recorded answer.
    assert platform.budget.ledger_length == len(platform.answer_log)
