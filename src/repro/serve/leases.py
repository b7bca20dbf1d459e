"""Fair annotator leasing for multi-tenant serving.

A real annotator answers one task at a time.  :class:`AnnotatorLeases`
tracks, per annotator, the virtual time at which they become free, and
grants leases strictly first-come-first-served in submission order: a
request arriving at virtual time ``t`` starts at ``max(t, free_at)`` and
holds the annotator for its service time.  FIFO granting is the fairness
mechanism — no session can starve another, because every grant queues
behind exactly the work submitted before it, and per-session grant
counts are exported so tests (and operators) can audit the split.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class AnnotatorLeases:
    """Virtual-time occupancy of a shared annotator pool."""

    def __init__(self, n_annotators: int) -> None:
        if n_annotators <= 0:
            raise ConfigurationError(
                f"n_annotators must be > 0, got {n_annotators}"
            )
        self.n_annotators = n_annotators
        self._free_at = np.zeros(n_annotators)
        #: session name -> grants made to it.
        self._grants: dict[str, int] = {}
        #: Total virtual seconds requests spent queued behind busy
        #: annotators.
        self.total_wait = 0.0

    def acquire(
        self,
        annotator_id: int,
        service: float,
        now: float,
        session: str = "default",
    ) -> tuple:
        """Lease ``annotator_id`` for ``service`` seconds from ``now``.

        Returns ``(start, due)``: the grant queues FIFO behind the
        annotator's existing lease, so ``start = max(now, free_at)`` and
        ``due = start + service``.
        """
        if not 0 <= annotator_id < self.n_annotators:
            raise ConfigurationError(
                f"annotator_id must be in [0, {self.n_annotators}), got "
                f"{annotator_id}"
            )
        if service <= 0.0:
            raise ConfigurationError(
                f"service time must be > 0, got {service}"
            )
        start = max(float(now), float(self._free_at[annotator_id]))
        due = start + float(service)
        self._free_at[annotator_id] = due
        self.total_wait += start - float(now)
        self._grants[session] = self._grants.get(session, 0) + 1
        return start, due

    def grant_counts(self) -> dict:
        """Total grants per session, in session-name order (audit surface)."""
        return dict(sorted(self._grants.items()))
