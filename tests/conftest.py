"""Shared fixtures: small datasets, pools and platforms for fast tests."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import BudgetManager, CostModel, make_platform
from repro.crowd.annotator import Annotator, AnnotatorKind
from repro.crowd.confusion import ConfusionMatrix
from repro.crowd.pool import AnnotatorPool
from repro.datasets.synthetic import make_blobs


@pytest.fixture(autouse=True)
def _fresh_policy_cache():
    """Clear the offline-policy cache around every test.

    A warm cache skips pretraining (and its RNG draws), so leakage across
    tests would make RL-framework results depend on test execution order
    and could mask regressions.
    """
    from repro.harness.experiment import clear_pretrained_policies

    clear_pretrained_policies()
    yield
    clear_pretrained_policies()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_dataset():
    """60 objects, 8 features, binary, easily separable."""
    return make_blobs(60, 8, separation=3.0, name="tiny", rng=7)


@pytest.fixture
def hard_dataset():
    """80 objects, 10 features, hard task."""
    return make_blobs(80, 10, separation=1.5, name="hard", rng=11)


def build_pool(n_classes=2, worker_accs=(0.7, 0.65, 0.75), expert_accs=(0.95,),
               worker_cost=1.0, expert_cost=10.0, seed=5):
    """Deterministic pool with symmetric confusion matrices."""
    streams = np.random.default_rng(seed).spawn(len(worker_accs) + len(expert_accs))
    annotators = []
    for i, acc in enumerate(worker_accs):
        annotators.append(Annotator(
            annotator_id=i, kind=AnnotatorKind.WORKER,
            confusion=ConfusionMatrix.from_accuracy(n_classes, acc),
            cost=worker_cost, _rng=streams[i],
        ))
    for j, acc in enumerate(expert_accs):
        i = len(worker_accs) + j
        annotators.append(Annotator(
            annotator_id=i, kind=AnnotatorKind.EXPERT,
            confusion=ConfusionMatrix.from_accuracy(n_classes, acc),
            cost=expert_cost, _rng=streams[i],
        ))
    return AnnotatorPool(annotators, n_classes)


@pytest.fixture
def pool():
    return build_pool()


@pytest.fixture
def platform(tiny_dataset, pool):
    from repro.crowd.platform import CrowdPlatform

    return CrowdPlatform(tiny_dataset.labels, pool, BudgetManager(500.0))


@pytest.fixture
def small_platform(tiny_dataset):
    return make_platform(tiny_dataset, n_workers=3, n_experts=1,
                         budget=400.0, rng=3)


@pytest.fixture(scope="session")
def shipped_tree_flow():
    """One ``flow src/repro --fail-on-new --format json`` pass, shared.

    Parsing the whole shipped tree is the slowest step of the analyzer
    tests, so every shipped-tree check reads this one payload.  Returns
    ``(exit_code, payload)``.
    """
    from repro.analysis.cli import main as analysis_main

    out = io.StringIO()
    src = Path(__file__).parents[1] / "src" / "repro"
    with contextlib.redirect_stdout(out):
        code = analysis_main(["flow", str(src), "--fail-on-new",
                              "--format", "json"])
    assert code in (0, 1), "flow --fail-on-new: usage error (no baseline?)"
    return code, json.loads(out.getvalue())


def new_findings_in(payload: dict, first: int, last: int) -> list[dict]:
    """Unbaselined findings of rules ``REPRO<first>``..``REPRO<last>``.

    Retired ids stay unused, so a range covers the rules within its
    bounds; it must cover at least one that ran, so a shipped-tree check
    cannot pass vacuously.
    """
    ids = {f"REPRO{i:03d}" for i in range(first, last + 1)}
    assert ids & set(payload["rules"])
    return [f for f in payload["findings"] if f["rule"] in ids]
