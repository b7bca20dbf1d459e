"""The event clock of the online labelling service.

:class:`VirtualClock` is a deterministic discrete-event clock: events are
pushed with a due time, popped in ``(due, submission order)`` order, and
popping advances *now* to the event's due time.  Because ties break on a
monotonically increasing submission sequence, a run over the virtual
clock is a pure function of its seeds — the property the async==sync
bit-identity tests pin.
"""

from __future__ import annotations

import heapq

from repro.exceptions import ConfigurationError


class VirtualClock:
    """Deterministic discrete-event time: a heap of ``(due, seq, event)``.

    ``now`` only moves when an event is popped, and ties on ``due`` are
    broken by submission order, so event delivery — and everything keyed
    off it — is reproducible regardless of host timing.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        self._now = float(start)
        self._seq = 0
        self._events: list = []

    @property
    def now(self) -> float:
        """Current virtual time (seconds since the clock's start)."""
        return self._now

    def __len__(self) -> int:
        return len(self._events)

    def push(self, due: float, event) -> int:
        """Schedule ``event`` at virtual time ``due``; returns its seq id.

        ``due`` may not lie in the past — the service never schedules
        completions before their submission.
        """
        if due < self._now:
            raise ConfigurationError(
                f"cannot schedule an event at {due:.6f}, clock is already "
                f"at {self._now:.6f}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._events, (float(due), seq, event))
        return seq

    def pop(self) -> tuple:
        """Deliver the next event: advances ``now`` to its due time.

        Returns ``(due, seq, event)``.
        """
        if not self._events:
            raise ConfigurationError("cannot pop from an idle event clock")
        due, seq, event = heapq.heappop(self._events)
        self._now = due
        return due, seq, event
