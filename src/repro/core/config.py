"""Configuration for the CrowdRL framework.

Defaults follow the paper's experimental setting (Section VI-B1):
``alpha = 0.05`` initial sampling, 3 annotators per selected object (the
running example's k), worker/expert costs 1/10, enrichment margin 0.2
(Example after Algorithm 1), discount ``gamma = 0.95``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.classifiers.base import Classifier
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.core.reward import RewardWeights
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike

#: Objects selected per labelling iteration, by CrowdRL and the baselines.
BATCH_SIZE = 4
#: Safety cap on labelling iterations, by CrowdRL and the baselines.
MAX_ITERATIONS = 10_000
#: Labelled-set size below which ``phi`` is not trained: CrowdRL skips
#: enrichment and the classifier E-step term, DALC and Hybrid fall back to
#: random task selection, and the end-of-run classifier is not fitted.
MIN_LABELS_FOR_CLASSIFIER = 8


def default_classifier_factory(n_features: int, n_classes: int,
                               rng: SeedLike = None) -> Classifier:
    """``phi``: logistic regression (fast, convex, soft-label aware).

    The paper uses a small fully connected network; on the paired-seed
    protocol one lost to this model in accuracy, F1 and run time, and was
    retired (DESIGN.md section 5).  The class-default ``l2`` was chosen on
    the same protocol.
    """
    del rng  # logistic regression is deterministic
    return LogisticRegressionClassifier(n_features, n_classes)


@dataclass
class CrowdRLConfig:
    """The CrowdRL settings the experiments vary.

    Settings no experiment varies are module constants next to the code
    that uses them: :data:`MIN_LABELS_FOR_CLASSIFIER` here, the DQN and
    tie-break constants in :mod:`repro.core.agent` and joint EM's sweep
    cap in :mod:`repro.core.environment`.

    Attributes
    ----------
    alpha:
        Initial sampling rate — fraction of objects labelled up-front
        (Algorithm 1 line 2).
    k_per_object:
        Annotators assigned per selected object (Section IV Discussion).
    batch_size:
        Objects selected per labelling iteration.
    reward:
        Weights (lambda, eta) and discounting for the reward signal.
    enrichment_margin:
        Top-2 class-probability gap epsilon above which the classifier may
        label an object (Algorithm 1 lines 9-13).  Enrichment labels are
        recomputed from the freshly retrained classifier every iteration,
        so early enrichment mistakes heal as ``phi`` improves.
    expert_floor:
        Lower bound on experts' diagonal confusion entries in joint
        inference (Section V-A2).
    train_steps_per_iteration:
        Replayed DQN updates after each labelling iteration (Section IV-A).
    min_truths_for_enrichment:
        Human-inferred truths required before the classifier may enrich —
        guards against an overconfident classifier trained on a handful of
        cold-start labels auto-labelling the whole dataset.
    max_iterations:
        Safety cap on labelling iterations.
    info_gain_weight / agreement_weight / pair_cost_weight:
        Dense per-action reward shaping added to the paper's iteration-level
        reward so the DQN gets a learnable signal within one episode (the
        paper trains its policy offline at length; see DESIGN.md):
        uncertainty reduction at the labelled object, the annotator's
        agreement with the inferred truth, and the annotator's cost.
        Setting all three to 0 recovers the paper's bare reward.
    max_experts_per_object:
        Cap on experts assigned to one object (default 1; ``None`` removes
        the cap).  The per-pair Q-scores cannot express the diminishing
        marginal value of a second expert on the same object, so an
        uncapped top-k can burn budget on expert-heavy triads; the cap is
        the standard "one expert review per item" composition constraint.
    demo_probability:
        Probability per iteration of acting from the uncertainty+quality
        demonstration heuristic instead of the Q-scores.  Used only during
        offline cross-training (``CrowdRL.pretrain`` raises it), seeding
        the replay buffer with good trajectories the Q-network then
        regresses onto — standard learning-from-demonstration for DQN cold
        starts.  Zero during evaluation runs.
    ts_mode / ta_mode:
        ``"q"`` uses the DQN for task selection / assignment; ``"random"``
        replaces that half with uniform choice — the paper's M1 (random TS)
        and M2 (random TA) ablations (Fig. 8).
    inference_method:
        ``"joint"`` is the paper's model; ``"pm"`` swaps in the PM
        algorithm — the M3 ablation.
    """

    alpha: float = 0.05
    k_per_object: int = 3
    batch_size: int = BATCH_SIZE
    reward: RewardWeights = field(default_factory=RewardWeights)
    enrichment_margin: float = 0.2
    expert_floor: float = 0.9
    train_steps_per_iteration: int = 8
    min_truths_for_enrichment: int = 20
    max_iterations: int = MAX_ITERATIONS
    info_gain_weight: float = 0.5
    agreement_weight: float = 0.5
    pair_cost_weight: float = 0.08
    demo_probability: float = 0.0
    max_experts_per_object: Optional[int] = 1
    ts_mode: str = "q"
    ta_mode: str = "q"
    inference_method: str = "joint"

    def __post_init__(self) -> None:
        if self.ts_mode not in ("q", "random"):
            raise ConfigurationError(
                f"ts_mode must be 'q' or 'random', got {self.ts_mode!r}"
            )
        if self.ta_mode not in ("q", "random"):
            raise ConfigurationError(
                f"ta_mode must be 'q' or 'random', got {self.ta_mode!r}"
            )
        if min(self.info_gain_weight, self.agreement_weight,
               self.pair_cost_weight) < 0:
            raise ConfigurationError("reward shaping weights must be >= 0")
        if (self.max_experts_per_object is not None
                and self.max_experts_per_object < 0):
            raise ConfigurationError(
                f"max_experts_per_object must be >= 0 or None, got "
                f"{self.max_experts_per_object}"
            )
        if not 0.0 <= self.demo_probability <= 1.0:
            raise ConfigurationError(
                f"demo_probability must be in [0, 1], got {self.demo_probability}"
            )
        if self.inference_method not in ("joint", "pm"):
            raise ConfigurationError(
                f"inference_method must be 'joint' or 'pm', got "
                f"{self.inference_method!r}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_per_object <= 0:
            raise ConfigurationError(
                f"k_per_object must be > 0, got {self.k_per_object}"
            )
        if self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be > 0, got {self.batch_size}"
            )
        if not 0.0 < self.enrichment_margin < 1.0:
            raise ConfigurationError(
                f"enrichment_margin must be in (0, 1), got {self.enrichment_margin}"
            )
        if not 0.0 < self.expert_floor < 1.0:
            raise ConfigurationError(
                f"expert_floor must be in (0, 1), got {self.expert_floor}"
            )
        if self.max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be > 0, got {self.max_iterations}"
            )
        if self.train_steps_per_iteration < 0:
            raise ConfigurationError(
                f"train_steps_per_iteration must be >= 0, got "
                f"{self.train_steps_per_iteration}"
            )
