"""Selection counts behind the paper's UCB1 action selection (Eq. 6).

Eq. 6 selects ``A(t) = argmax[ Q(S, A') + sqrt(2 ln(n') / n) ]`` where ``n``
counts how often ``A'`` was chosen and ``n'`` counts total selections.
:class:`ActionStatistics` keeps those counts and computes the bonus;
:meth:`repro.core.agent.Agent.act` adds it to the Q-values, keeping masked
actions (``Q = -inf``) masked.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class ActionStatistics:
    """Selection counts backing the UCB bonus.

    The paper indexes counts per (state, action); with a continuous
    featurized state we follow the standard practical reduction of keeping
    per-action counts (actions are (object, annotator) pairs, whose novelty
    is what exploration must cover).
    """

    def __init__(self, n_actions: int) -> None:
        if n_actions <= 0:
            raise ConfigurationError(f"n_actions must be > 0, got {n_actions}")
        self.counts = np.zeros(n_actions, dtype=int)
        self.total = 0

    def record(self, action: int) -> None:
        """Count one selection of ``action`` (feeds the UCB bonus)."""
        if not 0 <= action < self.counts.size:
            raise ConfigurationError(
                f"action {action} out of range [0, {self.counts.size})"
            )
        self.counts[action] += 1
        self.total += 1

    def bonus(self) -> np.ndarray:
        """The UCB1 exploration bonus ``sqrt(2 ln n' / n)`` per action.

        Never-selected actions get an infinite bonus (standard UCB1 "play
        each arm once" behaviour); with no history the bonus is zero.
        """
        if self.total == 0:
            return np.zeros(self.counts.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(2.0 * np.log(self.total) / self.counts)
        bonus[self.counts == 0] = np.inf
        return bonus
