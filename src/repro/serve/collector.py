"""The event-loop collector: overlapped answer collection for episodes.

:class:`EventLoopCollector` drives one framework's stepwise episode
generator (:meth:`repro.core.framework.LabellingFramework.episode`)
against an :class:`~repro.serve.platform.AsyncPlatform`.  Where the sync
reference driver (:func:`repro.core.framework.drive_episode`) blocks on
``ask_batch``, this collector *submits* the batch and returns control to
the event loop; annotators answer concurrently on the virtual clock (one
lease each, overlapping across annotators) while the loop is free to
advance other sessions.  When the batch's last answer lands, the records
are handed back to the episode **in submission order** — the order the
sync batch would have returned them — which, combined with the
submission-time execution of the inner ``ask`` (see
:mod:`repro.serve.platform`), keeps async results bit-identical to sync.

Budget attribution is the sync driver's, shared through
:meth:`~repro.core.framework.CollectRequest.run`, because every charge
happens during submission.

:func:`run_episode_async` is the single-project entry point: one
collector, one clock, drained to completion.  The multi-tenant
:class:`~repro.serve.engine.ServeEngine` multiplexes many collectors on
one clock instead.
"""

from __future__ import annotations

from typing import Optional

from repro.core.framework import CollectRequest
from repro.core.result import LabellingOutcome
from repro.exceptions import ConfigurationError
from repro.serve.platform import AsyncPlatform, PendingAnswer


class EventLoopCollector:
    """Drives one episode, overlapping in-flight answers with agent steps."""

    def __init__(self, framework, dataset, platform: AsyncPlatform) -> None:
        if not isinstance(platform, AsyncPlatform):
            raise ConfigurationError(
                f"EventLoopCollector needs an AsyncPlatform, got "
                f"{type(platform).__name__}"
            )
        self.platform = platform
        self._episode = framework.episode(dataset, platform)
        self._pending: list = []
        self._arrived = 0
        self._started = False
        #: The episode's LabellingOutcome once it returns.
        self.result: Optional[LabellingOutcome] = None
        self.done = False

    # ------------------------------------------------------------------
    def start(self) -> bool:
        """Advance the episode to its first in-flight batch.

        Returns ``True`` when the episode finished without ever leaving
        work in flight (degenerate budgets).
        """
        if self._started:
            raise ConfigurationError("collector already started")
        self._started = True
        self._advance(None, first=True)
        return self.done

    def on_complete(self, pending: PendingAnswer) -> None:
        """Event-loop callback: one of this collector's answers landed.

        When it is the batch's last, the records go back to the episode
        (submission order) and the episode runs to its next batch.
        """
        if self.done:
            raise ConfigurationError(
                "answer delivered to a finished collector"
            )
        self._arrived += 1
        if self._arrived < len(self._pending):
            return
        records = [p.record for p in self._pending]
        self._pending = []
        self._arrived = 0
        self._advance(records)

    def close(self) -> None:
        """Release the episode's suspended generator frame.

        Throwing ``GeneratorExit`` into the episode runs its cleanup and
        drops the frame's references (agent, platform chain, partial
        state).  Idempotent, and a no-op once the episode has returned —
        safe to call on the success path too.
        """
        self._episode.close()

    # ------------------------------------------------------------------
    def _advance(self, records, first: bool = False) -> None:
        """Feed ``records`` to the episode; submit until work is in flight.

        A submitted batch can come back empty (nothing affordable /
        everything answered); the episode must see that empty list
        immediately — exactly as the sync driver would deliver it — so
        this loops until either a non-empty batch is in flight or the
        episode returns.  Any fault escaping the episode or the
        submission path closes the generator before propagating, so an
        aborted session never parks a suspended frame.
        """
        try:
            while True:
                try:
                    if first:
                        request = next(self._episode)
                        first = False
                    else:
                        request = self._episode.send(records)
                except StopIteration as stop:
                    self.result = stop.value
                    self.done = True
                    return
                records = self._submit(request)
                if self._pending:
                    return
        except BaseException:
            self.close()
            raise

    def _submit(self, request: CollectRequest) -> list:
        """Submit one request; returns ``[]`` records for an empty batch.

        Submits through :meth:`CollectRequest.run`, the sync driver's
        phase timer and budget attribution — all budget charges happen
        here, at submission time.
        """
        platform = self.platform
        self._pending = request.run(platform.submit_batch, platform.budget)
        self._arrived = 0
        return []


def run_episode_async(framework, dataset,
                      platform: AsyncPlatform) -> LabellingOutcome:
    """Run one framework episode through the event-loop collector.

    The single-project serving path: submits each batch, lets the virtual
    clock deliver answers in due order, and returns the episode's
    outcome.  Under a :class:`~repro.serve.clock.VirtualClock` this is
    bit-identical to ``framework.run(dataset, platform.inner)`` on the
    unwrapped chain — the sync run is the oracle the identity tests
    compare against.
    """
    collector = EventLoopCollector(framework, dataset, platform)
    try:
        collector.start()
        clock = platform.clock
        while not collector.done:
            if len(clock) == 0:
                raise ConfigurationError(
                    "event clock idle but the episode still expects answers"
                )
            _due, _seq, pending = clock.pop()
            platform.mark_delivered(pending)
            collector.on_complete(pending)
    except BaseException:
        collector.close()
        raise
    return collector.result
