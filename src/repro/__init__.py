"""CrowdRL: an end-to-end RL framework for data labelling (ICDE 2021).

This package reproduces the paper's full system: the CrowdRL framework
(unified task selection + assignment via a DQN, joint truth inference over
annotators and the classifier), the five baseline frameworks it is compared
against, the substrates everything runs on (numpy neural nets, a crowd
simulator, a truth-inference library), synthetic stand-ins for the three
evaluation datasets, and the harness regenerating Figures 4-8.

Quickstart::

    from repro import CrowdRL, CrowdRLConfig, make_platform, load_dataset

    dataset = load_dataset("S12CP", scale=0.1, rng=0)
    platform = make_platform(dataset, n_workers=3, n_experts=2,
                             budget=500, rng=1)
    outcome = CrowdRL(CrowdRLConfig(), rng=2).run(dataset, platform)
    report = outcome.evaluate(platform.evaluation_labels())
    print(report)
"""

from typing import Optional

from repro.core.config import CrowdRLConfig
from repro.core.framework import CrowdRL, LabellingFramework
from repro.core.result import LabelSource, LabellingOutcome
from repro.crowd.cost import BudgetManager, CostModel
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.datasets.base import LabelledDataset
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.inference.base import TruthInference
from repro.metrics.classification import ClassificationReport, evaluate_labels
from repro.utils.rng import SeedLike, as_rng, spawn_rngs

__version__ = "1.0.0"

__all__ = [
    "CrowdRL",
    "CrowdRLConfig",
    "LabellingFramework",
    "LabellingOutcome",
    "LabelSource",
    "CrowdPlatform",
    "AnnotatorPool",
    "BudgetManager",
    "CostModel",
    "LabelledDataset",
    "load_dataset",
    "DATASET_NAMES",
    "TruthInference",
    "ClassificationReport",
    "evaluate_labels",
    "make_platform",
    "run_experiment",
    "ExperimentSpec",
    "ExperimentSetting",
    "StateFeaturizer",
    "Platform",
    "wrap",
    "__version__",
]

#: Harness names resolved lazily (PEP 562): :mod:`repro.harness.experiment`
#: itself imports :func:`make_platform` from this package, so importing it
#: eagerly here would be circular.
_LAZY_HARNESS = ("run_experiment", "ExperimentSpec", "ExperimentSetting")

#: Core names resolved lazily: rarely needed at top level, so their import
#: cost is deferred until first use.
_LAZY_CORE = ("StateFeaturizer",)

#: Crowd composition names resolved lazily, like ``StateFeaturizer``:
#: the protocol and the wrapper-chain builder are type/composition
#: surface, not hot-path imports.
_LAZY_CROWD = ("Platform", "wrap")


def __getattr__(name: str):
    """Lazily expose the harness/core/crowd entry points (PEP 562)."""
    if name in _LAZY_HARNESS:
        from repro.harness import experiment

        return getattr(experiment, name)
    if name in _LAZY_CORE:
        from repro.core import featurizer

        return getattr(featurizer, name)
    if name in _LAZY_CROWD:
        import repro.crowd as crowd

        return getattr(crowd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    """Include the lazy names in ``dir(repro)``."""
    return sorted(
        set(globals()) | set(_LAZY_HARNESS) | set(_LAZY_CORE)
        | set(_LAZY_CROWD)
    )


def make_platform(
    dataset: LabelledDataset,
    *,
    n_workers: int,
    n_experts: int,
    budget: float,
    cost_model: Optional[CostModel] = None,
    rng: SeedLike = None,
) -> CrowdPlatform:
    """Convenience constructor: pool + budget + platform for a dataset.

    Builds a heterogeneous annotator pool (paper defaults: noisy workers,
    near-perfect experts, costs 1 / 10) and wraps it with the dataset's
    ground truth into a :class:`CrowdPlatform` ready for any framework.
    """
    rng = as_rng(rng)
    (pool_rng,) = spawn_rngs(rng, 1)
    pool = AnnotatorPool.build(
        dataset.n_classes,
        n_workers,
        n_experts,
        cost_model=cost_model or CostModel(),
        rng=pool_rng,
    )
    return CrowdPlatform(
        dataset.labels, pool, BudgetManager(budget),
        difficulty=dataset.difficulty,
    )
