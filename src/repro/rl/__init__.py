"""Reinforcement-learning substrate: replay memory and Q-networks.

Implements the DQN machinery of Section IV: experience replay over
``(S, A, r, S')`` transitions (Fig. 2's "Experience Pool") and a Q-network
with a periodically synchronised target network (Eq. 4/5's max target).
Action selection over the Q-values lives in :mod:`repro.core.agent`.
"""

from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.qnetwork import QNetwork
from repro.rl.replay import ReplayBuffer, Transition

__all__ = [
    "Transition",
    "ReplayBuffer",
    "QNetwork",
    "DQNAgent",
    "DQNConfig",
]
