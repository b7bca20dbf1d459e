"""Episode-stepping speedup: vectorized hot path vs the pre-PR reference.

The PR's acceptance bar is a **measured >= 10x** speedup of fig5-scale
episode stepping with bit-identical outputs.  This benchmark pins both
halves of that claim:

* the *reference* per-step cost — the pre-vectorization implementation,
  embedded verbatim below: a full feature-tensor rebuild every step with
  a Python loop over answered objects (``answer_counts`` per object) and
  the Python min-heap object selection;
* the *current* per-step cost — :class:`repro.core.StateFeaturizer`'s
  vectorized rebuild (bincount vote share, one pass per block) plus the
  ``np.argpartition``-based selection in
  :func:`repro.utils.topk.select_objects_by_topk_q`.

Both paths run against the same mid-episode state, outputs are asserted
``np.array_equal`` before anything is timed, and each side is measured
as a min-of-repeats per-step time (the ``bench_obs.py`` idiom).  Run as
a script to print the table, enforce the speedup floor and write
``benchmarks/results/BENCH_episode_stepping.json``::

    PYTHONPATH=src python benchmarks/bench_episode_stepping.py

Environment knobs: ``REPRO_STEPPING_SCALE`` (dataset scale, default 1.0
= the paper-size S12CP panel fig5 steps over), ``REPRO_STEPPING_MIN_SPEEDUP``
(assertion floor, default 10), ``REPRO_WRITE_BENCH=0`` to skip the JSON.
"""

from __future__ import annotations

import json
import os
import sys
import timeit

import numpy as np

from repro import make_platform
from repro.core.state import LabellingState
from repro.datasets.registry import load_dataset
from repro.utils.tables import format_table
from repro.utils.topk import select_objects_by_topk_q

# The heap oracle is test code, kept beside the property tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from topk_oracles import select_objects_by_topk_q_reference  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_JSON = os.path.join(RESULTS_DIR, "BENCH_episode_stepping.json")

SCALE = float(os.environ.get("REPRO_STEPPING_SCALE", "1.0"))
MIN_SPEEDUP = float(os.environ.get("REPRO_STEPPING_MIN_SPEEDUP", "10"))

#: The paper's ``k`` assignments per selected object.
TOUCH_K = 3
SELECT_BATCH = 16
#: Featurizations timed per measured call.
STEPS = 8


# ----------------------------------------------------------------------
# Reference implementation — the pre-vectorization hot path, verbatim.
# ----------------------------------------------------------------------
def _reference_object_features(state: LabellingState) -> np.ndarray:
    from repro.crowd.history import UNANSWERED

    n = state.history.n_objects
    n_classes = state.history.n_classes
    answered = state.history.matrix != UNANSWERED
    n_answers = answered.sum(axis=1).astype(float)

    vote_share = np.zeros(n)  # majority vote share among answers
    for i in np.nonzero(n_answers > 0)[0]:
        counts = state.history.answer_counts(i)
        vote_share[i] = counts.max() / counts.sum()
    disagreement = np.where(n_answers > 0, 1.0 - vote_share, 0.0)

    proba = state._classifier_proba
    if proba is not None:
        part = np.partition(proba, -2, axis=1)
        clf_margin = part[:, -1] - part[:, -2]
        clf_maxp = proba.max(axis=1)
        clf_entropy = (
            -(proba * np.log(proba + 1e-12)).sum(axis=1) / np.log(n_classes)
        )
    else:
        clf_margin = np.zeros(n)
        clf_maxp = np.full(n, 1.0 / n_classes)
        clf_entropy = np.ones(n)

    return np.column_stack([
        np.minimum(n_answers / state.answer_norm, 1.0),
        disagreement,
        vote_share,
        clf_margin,
        clf_maxp,
        clf_entropy,
    ])


def _reference_annotator_features(state: LabellingState) -> np.ndarray:
    costs = state.pool.costs
    max_cost = costs.max()
    qualities = state.pool.estimated_qualities()
    experts = state.pool.expert_mask.astype(float)
    loads = np.array([
        state.history.annotator_load(j) for j in range(len(state.pool))
    ], dtype=float)
    load_norm = loads / max(state.history.n_objects, 1)
    return np.column_stack([costs / max_cost, qualities, experts, load_norm])


def _reference_global_features(state: LabellingState) -> np.ndarray:
    n = state.history.n_objects
    return np.array([
        state.budget.remaining / state.budget.total,
        len(state._human_labelled) / n,
        len(state._enriched) / n,
    ])


def reference_feature_tensor(state: LabellingState) -> np.ndarray:
    """The old per-step featurization: full rebuild, Python vote loop."""
    from repro.core.featurizer import (
        N_ANNOTATOR_FEATURES,
        N_GLOBAL_FEATURES,
        N_OBJECT_FEATURES,
        N_PAIR_FEATURES,
    )

    obj = _reference_object_features(state)
    ann = _reference_annotator_features(state)
    glob = _reference_global_features(state)
    n_obj, n_ann = obj.shape[0], ann.shape[0]
    tensor = np.empty((n_obj, n_ann, N_PAIR_FEATURES))
    tensor[:, :, :N_OBJECT_FEATURES] = obj[:, None, :]
    tensor[:, :, N_OBJECT_FEATURES:N_OBJECT_FEATURES + N_ANNOTATOR_FEATURES] = (
        ann[None, :, :]
    )
    tensor[:, :, -N_GLOBAL_FEATURES:] = glob[None, None, :]
    return tensor


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_midepisode_state(scale: float, seed: int = 0) -> LabellingState:
    """A fig5-scale state mid-episode: answers, estimates, classifier."""
    dataset = load_dataset("S12CP", scale=scale, rng=seed)
    platform = make_platform(
        dataset, n_workers=3, n_experts=2, budget=1e9, rng=seed + 1
    )
    state = LabellingState(platform.history, platform.pool, platform.budget)
    rng = np.random.default_rng(seed + 2)
    n, w = platform.n_objects, len(platform.pool)
    # Answer ~two annotators per object for 80% of objects — the density
    # of a mid-episode history.
    for i in rng.permutation(n)[: int(0.8 * n)]:
        for j in rng.choice(w, size=2, replace=False):
            platform.ask(int(i), int(j))
    proba = rng.dirichlet(np.ones(dataset.n_classes), size=n)
    state.set_classifier_proba(proba)
    labelled = rng.permutation(n)[: n // 4]
    state.set_labelled(labelled[: n // 8], labelled[n // 8:])
    return state


def make_q_matrix(state: LabellingState, seed: int = 3) -> np.ndarray:
    """A masked Q-matrix of the shape the agent scores each step."""
    rng = np.random.default_rng(seed)
    n, w = state.history.n_objects, len(state.pool)
    q = rng.normal(size=(n, w))
    q[~state.action_mask()] = -np.inf
    return q


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def verify_bit_identity(state: LabellingState, q: np.ndarray) -> None:
    """Both paths must agree exactly before either is timed."""
    assert np.array_equal(
        reference_feature_tensor(state), state.featurizer.features()
    ), "vectorized feature tensor diverged from the reference"
    assert select_objects_by_topk_q(q, TOUCH_K, SELECT_BATCH) == \
        select_objects_by_topk_q_reference(q, TOUCH_K, SELECT_BATCH), \
        "vectorized selection diverged from the heap reference"


def measure(scale: float = SCALE) -> dict:
    """Per-step featurize/select timings for both paths, plus speedups."""
    state = build_midepisode_state(scale)
    q = make_q_matrix(state)
    verify_bit_identity(state, q)

    def step_reference() -> None:
        for _ in range(STEPS):
            reference_feature_tensor(state)

    def step_vectorized() -> None:
        for _ in range(STEPS):
            state.featurizer.features()

    def select_reference() -> None:
        select_objects_by_topk_q_reference(q, TOUCH_K, SELECT_BATCH)

    def select_vectorized() -> None:
        select_objects_by_topk_q(q, TOUCH_K, SELECT_BATCH)

    timings = {}
    for name, fn, per_call in (
        ("featurize_reference", step_reference, STEPS),
        ("featurize_vectorized", step_vectorized, STEPS),
        ("select_reference", select_reference, 1),
        ("select_vectorized", select_vectorized, 1),
    ):
        fn()  # warm-up (allocator, caches)
        timings[name] = min(
            timeit.repeat(fn, number=3, repeat=7)
        ) / (3 * per_call)

    ref_step = timings["featurize_reference"] + timings["select_reference"]
    new_step = timings["featurize_vectorized"] + timings["select_vectorized"]
    return {
        "scale": scale,
        "n_objects": int(state.history.n_objects),
        "n_annotators": len(state.pool),
        "per_step_s": timings,
        "speedup": {
            "featurize": timings["featurize_reference"]
            / timings["featurize_vectorized"],
            "select": timings["select_reference"]
            / timings["select_vectorized"],
            "episode_step": ref_step / new_step,
        },
    }


def render(result: dict) -> str:
    t = result["per_step_s"]
    s = result["speedup"]
    rows = [
        ["featurize", f"{t['featurize_reference'] * 1e6:.1f}",
         f"{t['featurize_vectorized'] * 1e6:.1f}", f"{s['featurize']:.1f}x"],
        ["select", f"{t['select_reference'] * 1e6:.1f}",
         f"{t['select_vectorized'] * 1e6:.1f}", f"{s['select']:.1f}x"],
        ["episode step", "-", "-", f"{s['episode_step']:.1f}x"],
    ]
    header = (
        f"episode stepping at scale {result['scale']} "
        f"({result['n_objects']} objects x {result['n_annotators']} "
        f"annotators), per-step minima"
    )
    return header + "\n" + format_table(
        ["stage", "reference (us)", "vectorized (us)", "speedup"], rows
    )


def main() -> int:
    result = measure()
    print(render(result))
    if os.environ.get("REPRO_WRITE_BENCH", "1") != "0":
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(RESULT_JSON, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {RESULT_JSON}")
    speedup = result["speedup"]["episode_step"]
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: episode-step speedup {speedup:.1f}x is below the "
              f"{MIN_SPEEDUP:.0f}x floor")
        return 1
    print(f"ok: episode-step speedup {speedup:.1f}x "
          f">= {MIN_SPEEDUP:.0f}x floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
