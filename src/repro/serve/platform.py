"""The async platform adapter: ``ask`` returns a future.

:class:`AsyncPlatform` wraps any composed platform chain (bare,
unreliable, resilient — anything satisfying the
:class:`~repro.crowd.protocol.Platform` protocol) and turns answer
collection into submission + completion:

* :meth:`ask_async` executes the *entire* inner ``ask`` at submission
  time — fault draw, budget charge, history record, answer-log append all
  happen in submission order, exactly as the sync path would — and wraps
  the resulting record in a :class:`PendingAnswer` that completes on the
  event clock after the annotator's seeded service latency.  Latency
  delays *visibility* of an answer, never its content: that is the design
  decision that makes an async run bit-identical to the sync oracle under
  the virtual clock.
* :meth:`submit_batch` walks the batch with the same
  :func:`~repro.crowd.platform.collect_batch` rules as the sync
  ``ask_batch`` (skip answered / at-capacity pairs, stop when even the
  cheapest annotator is unaffordable), so the set of answers collected
  matches the sync batch exactly — including dropped requests when a
  resilient collector gives up.

Completion times come from a shared :class:`~repro.serve.leases.AnnotatorLeases`
(one annotator answers one task at a time, FIFO) and a seeded
:class:`~repro.serve.latency.LatencyModel`; both live outside the wrapped
chain so many sessions can contend for one pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crowd.faults import PlatformWrapper
from repro.crowd.platform import AnswerRecord, collect_batch
from repro.crowd.protocol import check_platform
from repro.exceptions import CollectionFailedError, ConfigurationError
from repro.obs import get_registry
from repro.serve.latency import LatencyModel
from repro.serve.leases import AnnotatorLeases


@dataclass
class PendingAnswer:
    """A submitted answer in flight on the event clock.

    The record is fully materialised at submission (see the module
    docstring); delivery is tracked by the submitting
    :class:`AsyncPlatform` (see :meth:`AsyncPlatform.mark_delivered`),
    keyed by the clock sequence id ``seq``.  ``annotator_id`` is the annotator
    who actually answered (a resilient collector may have reassigned away
    from the requested one) — the one whose lease the service time
    occupies.
    """

    object_id: int
    annotator_id: int
    record: AnswerRecord
    session: str
    submitted_at: float
    start: float
    due: float
    service: float
    seq: int = -1


class AsyncPlatform(PlatformWrapper):
    """Async collection surface over a composed platform chain.

    The sync surface (``ask``/``ask_batch``) stays available through
    delegation — the adapter only *adds* the async protocol, so code
    that has not migrated keeps working on the same books.
    """

    def __init__(
        self,
        inner,
        *,
        latency: LatencyModel,
        clock,
        leases: Optional[AnnotatorLeases] = None,
        session: str = "default",
    ) -> None:
        check_platform(inner, context="AsyncPlatform inner")
        super().__init__(inner)
        if latency.n_annotators != len(inner.pool):
            raise ConfigurationError(
                f"latency model covers {latency.n_annotators} annotators, "
                f"platform has {len(inner.pool)}"
            )
        leases = leases if leases is not None else AnnotatorLeases(
            len(inner.pool)
        )
        if leases.n_annotators != len(inner.pool):
            raise ConfigurationError(
                f"leases cover {leases.n_annotators} annotators, platform "
                f"has {len(inner.pool)}"
            )
        self.latency = latency
        self.clock = clock
        self.leases = leases
        self.session = session
        #: Answers submitted / delivered through this adapter.
        self.submitted = 0
        self.completed = 0
        #: Clock seq ids of pendings already delivered (delivery state
        #: lives here, not on the PendingAnswer, so delivering never
        #: mutates an object another component still holds).
        self._delivered: set = set()

    @property
    def in_flight(self) -> int:
        """Answers submitted but not yet delivered."""
        return self.submitted - self.completed

    # ------------------------------------------------------------------
    def ask_async(self, object_id: int, annotator_id: int) -> PendingAnswer:
        """Submit one request; returns the pending answer future.

        The inner chain's ``ask`` runs *now* (faults, charges, records —
        all in submission order); the pending answer completes after the
        answering annotator's lease (queueing FIFO behind their earlier
        work) plus their seeded service time.  Faults the chain does not
        absorb propagate from here, exactly as they would from a sync
        ``ask``.
        """
        record = self.inner.ask(object_id, annotator_id)
        now = self.clock.now
        service = self.latency.draw(record.annotator_id)
        start, due = self.leases.acquire(
            record.annotator_id, service, now, session=self.session
        )
        pending = PendingAnswer(
            object_id=record.object_id,
            annotator_id=record.annotator_id,
            record=record,
            session=self.session,
            submitted_at=now,
            start=start,
            due=due,
            service=service,
        )
        pending.seq = self.clock.push(due, pending)
        self.submitted += 1
        registry = get_registry()
        registry.inc("serve.submitted")
        registry.observe("serve.service_s", service)
        if start > now:
            registry.inc("serve.lease_wait_s", start - now)
        registry.set_gauge("serve.in_flight", self.in_flight)
        registry.set_gauge("serve.queue_depth", len(self.clock))
        return pending

    def submit_batch(self, assignments) -> list:
        """Submit a batch under the shared ``collect_batch`` rules.

        Pair for pair the same walk as :meth:`CrowdPlatform.ask_batch`:
        skip answered / at-capacity pairs, stop when even the cheapest
        annotator is unaffordable.  A resilient chain's
        :class:`CollectionFailedError` drops the request (the collector
        already counted the give-up), matching the sync batch's
        behaviour; raw faults from an unprotected chain propagate,
        matching the sync batch's behaviour there too.
        """
        return collect_batch(self.inner, assignments, self._submit_or_drop)

    def _submit_or_drop(self, object_id: int,
                        annotator_id: int) -> Optional[PendingAnswer]:
        """:meth:`ask_async`, or ``None`` when a resilient chain gave up."""
        try:
            return self.ask_async(object_id, annotator_id)
        except CollectionFailedError:
            # The collector already counted the give-up; mirror it on the
            # serve books so schedule gaps are attributable.
            get_registry().inc("serve.dropped")
            return None

    def mark_delivered(self, pending: PendingAnswer) -> AnswerRecord:
        """Record a pending answer's delivery; returns its answer record."""
        if pending.seq in self._delivered:
            raise ConfigurationError(
                f"pending answer (object {pending.object_id}, annotator "
                f"{pending.annotator_id}) was already delivered"
            )
        self._delivered.add(pending.seq)
        self.completed += 1
        registry = get_registry()
        registry.inc("serve.completed")
        registry.observe("serve.turnaround_s", pending.due - pending.submitted_at)
        registry.set_gauge("serve.in_flight", self.in_flight)
        registry.set_gauge("serve.queue_depth", len(self.clock))
        return pending.record
