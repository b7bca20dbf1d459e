"""Minimal dense neural-network substrate on numpy, for the Q-network.

The paper implements its Deep Q-Network with PyTorch; this environment has
no deep-learning framework available, so the library ships the small part
of one that the DQN runs: He-initialised dense layers with ReLU and manual
backpropagation, the Huber loss and Adam.  The classifier ``phi`` does not
use it (:mod:`repro.classifiers`).
"""

from repro.nn.initializers import he_init
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.losses import HuberLoss
from repro.nn.network import Network
from repro.nn.optimizers import Adam

__all__ = [
    "he_init",
    "Layer",
    "Dense",
    "ReLU",
    "HuberLoss",
    "Network",
    "Adam",
]
