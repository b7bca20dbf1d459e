"""Monetary cost model and budget enforcement.

The problem definition (Section II-A) fixes a budget ``B``; every answer an
annotator provides consumes that annotator's cost.  :class:`BudgetManager`
is the single authority over spending — frameworks must ``charge`` through
it, so no baseline can accidentally overspend and comparisons stay fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import BudgetExhaustedError, ConfigurationError


@dataclass(frozen=True)
class CostModel:
    """Default per-kind costs (paper Section VI-B1: worker 1, expert 10)."""

    worker_cost: float = 1.0
    expert_cost: float = 10.0

    def __post_init__(self) -> None:
        if self.worker_cost <= 0 or self.expert_cost <= 0:
            raise ConfigurationError(
                f"costs must be > 0, got worker={self.worker_cost}, "
                f"expert={self.expert_cost}"
            )


@dataclass
class BudgetManager:
    """Tracks remaining budget and the spend ledger."""

    total: float
    spent: float = 0.0
    _ledger: list[tuple[int, int, float]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ConfigurationError(f"budget must be > 0, got {self.total}")
        if self.spent < 0:
            raise ConfigurationError(f"spent must be >= 0, got {self.spent}")

    @property
    def remaining(self) -> float:
        return self.total - self.spent

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def can_afford(self, amount: float) -> bool:
        return amount <= self.remaining + 1e-9

    def charge(self, amount: float, *, object_id: int = -1,
               annotator_id: int = -1) -> None:
        """Spend ``amount``; raises :class:`BudgetExhaustedError` if unaffordable."""
        if amount < 0:
            raise ConfigurationError(f"cannot charge a negative amount: {amount}")
        if not self.can_afford(amount):
            raise BudgetExhaustedError(
                f"cannot charge {amount}: only {self.remaining:.2f} of "
                f"{self.total:.2f} remaining"
            )
        self.spent += amount
        self._ledger.append((object_id, annotator_id, amount))

    def iteration_cost(self, since: int) -> float:
        """Total spend recorded after ledger position ``since``."""
        return sum(amount for _o, _a, amount in self._ledger[since:])

    def ledger_entries(self, since: int = 0) -> list[tuple[int, int, float]]:
        """Ledger rows ``(object_id, annotator_id, amount)`` from ``since``.

        Checkpointing journals these so a resumed run can replay the exact
        spend sequence, including partial charges for faulted work that
        never produced an answer record.
        """
        return list(self._ledger[since:])

    @property
    def ledger_length(self) -> int:
        return len(self._ledger)
