"""The CrowdRL framework: unified TS + TA via DQN, joint truth inference.

This package wires the substrates into the paper's Algorithm 1:

* :class:`CrowdRLConfig` — every knob with paper defaults.
* :class:`LabellingState` — Section III-B's State (history matrix + cost
  and quality columns) and its featurization for the Q-network.
* :class:`Agent` — Section IV: DQN policy, −∞ masking, top-k min-heap
  object selection.
* :class:`Environment` — Section V: joint truth inference, labelled-set
  enrichment, annotator-quality updates, reward feedback.
* :class:`CrowdRL` — the end-to-end workflow loop.
"""

from repro.core.action import Assignment
from repro.core.agent import Agent
from repro.core.config import CrowdRLConfig
from repro.core.environment import Environment
from repro.core.featurizer import StateFeaturizer
from repro.core.framework import CrowdRL
from repro.core.result import LabelSource, LabellingOutcome
from repro.core.reward import RewardWeights, iteration_reward
from repro.core.state import LabellingState

__all__ = [
    "CrowdRLConfig",
    "LabellingState",
    "StateFeaturizer",
    "Assignment",
    "Agent",
    "Environment",
    "CrowdRL",
    "LabellingOutcome",
    "LabelSource",
    "RewardWeights",
    "iteration_reward",
]
