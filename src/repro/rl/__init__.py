"""Reinforcement-learning substrate: replay memory, Q-networks, selection.

Implements the DQN machinery of Section IV: experience replay over
``(S, A, r, S')`` transitions (Fig. 2's "Experience Pool"), a Q-network with
a periodically synchronised target network (Eq. 4/5's max target), and the
UCB1-flavoured action selection of Eq. 6.
"""

from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.qnetwork import QNetwork
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.selection import ActionStatistics

__all__ = [
    "Transition",
    "ReplayBuffer",
    "QNetwork",
    "DQNAgent",
    "DQNConfig",
    "ActionStatistics",
]
