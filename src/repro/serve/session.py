"""One tenant of the labelling service: a framework episode on the event loop.

A :class:`LabellingSession` drives one framework's stepwise episode
generator (:meth:`repro.core.framework.LabellingFramework.episode`)
against an :class:`~repro.serve.platform.AsyncPlatform`.  Where the sync
reference driver (:func:`repro.core.framework.drive_episode`) blocks on
``ask_batch``, the session *submits* the batch and returns control to
the event loop; annotators answer concurrently on the virtual clock (one
lease each, overlapping across annotators) while the loop is free to
advance other sessions.  When the batch's last answer lands, the records
go back to the episode **in submission order** — the order the sync
batch would have returned them — which, combined with the
submission-time execution of the inner ``ask`` (see
:mod:`repro.serve.platform`), keeps async results bit-identical to sync.
Budget attribution is the sync driver's, shared through
:meth:`~repro.core.framework.CollectRequest.run`, because every charge
happens during submission.

The session owns everything project-private — dataset, budget, history,
episode state, metrics registry, JSONL event stream — while sharing the
annotator pool, event clock, latency model, and leases with every other
session on the engine.  All of the session's metric traffic (platform
counters, phase timers, budget attribution) lands in its *own* registry:
the session enters ``use_registry(session.registry)`` around every
advancement, so per-session budget attribution reconciles exactly in
``repro.obs report`` even though eight projects interleave on one clock.
A single served run (``ExperimentSpec(serve=True)``) is one session
recording into the run's registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.result import LabellingOutcome
from repro.exceptions import ConfigurationError
from repro.metrics.classification import ClassificationReport
from repro.obs import JsonlEventLog, MetricsRegistry, make_registry, use_registry
from repro.serve.platform import AsyncPlatform, PendingAnswer

#: Session lifecycle states, in order.
QUEUED, ACTIVE, DONE = "queued", "active", "done"


@dataclass
class SessionResult:
    """A finished session's outcome, score, and metrics snapshot."""

    name: str
    outcome: LabellingOutcome
    report: ClassificationReport
    metrics: dict = field(default_factory=dict)
    #: Virtual time at which the session's episode completed.
    finished_at: float = 0.0


class LabellingSession:
    """One labelling project on the shared event loop.

    ``events`` is the session's own lifecycle stream (``run_start``,
    ``run_end``, the final ``snapshot``); without it the session emits
    no lifecycle events, so a run that already logs its own lifecycle
    can lend the session its registry alone.
    """

    def __init__(
        self,
        name: str,
        dataset,
        framework,
        platform: AsyncPlatform,
        *,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[JsonlEventLog] = None,
    ) -> None:
        if not isinstance(platform, AsyncPlatform):
            raise ConfigurationError(
                f"LabellingSession needs an AsyncPlatform, got "
                f"{type(platform).__name__}"
            )
        if platform.session != name:
            raise ConfigurationError(
                f"platform is tagged for session {platform.session!r}, "
                f"not {name!r}"
            )
        self.name = name
        self.dataset = dataset
        self.framework = framework
        self.platform = platform
        self.registry = registry if registry is not None else make_registry(
            events=events
        )
        self.events = events
        self._episode = framework.episode(dataset, platform)
        #: The in-flight batch, in submission order, and how many of its
        #: answers have landed.
        self._pending: list = []
        self._arrived = 0
        self.state = QUEUED
        self.result: Optional[SessionResult] = None

    @property
    def done(self) -> bool:
        return self.state == DONE

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Admit the session: run its episode to the first in-flight batch."""
        if self.state != QUEUED:
            raise ConfigurationError(
                f"session {self.name!r} cannot start from state {self.state!r}"
            )
        self.state = ACTIVE
        with use_registry(self.registry):
            if self.events is not None:
                self.events.emit(
                    "run_start",
                    framework=getattr(self.framework, "name", "framework"),
                    session=self.name,
                    admitted_at=self.platform.clock.now,
                )
            self._advance(None)

    def close(self) -> None:
        """Abort the session: release its episode generator frame.

        Throwing ``GeneratorExit`` into the episode runs its cleanup and
        drops the frame's references (agent, platform chain, partial
        state).  Idempotent, and a no-op once the episode has returned —
        safe to call on the success path too.
        """
        self._episode.close()

    def deliver(self, pending: PendingAnswer) -> None:
        """Event-loop callback: one of this session's answers landed.

        When it is the batch's last, the records go back to the episode
        (submission order) and the episode runs to its next batch.
        """
        if self.state != ACTIVE:
            raise ConfigurationError(
                f"session {self.name!r} received an answer in state "
                f"{self.state!r}"
            )
        with use_registry(self.registry):
            self.platform.mark_delivered(pending)
            self._arrived += 1
            if self._arrived == len(self._pending):
                self._advance([p.record for p in self._pending])

    # ------------------------------------------------------------------
    def _advance(self, records) -> None:
        """Feed ``records`` to the episode; submit until work is in flight.

        A submitted batch can come back empty (nothing affordable /
        everything answered); the episode must see that empty list
        immediately — exactly as the sync driver would deliver it — so
        this loops until either a non-empty batch is in flight or the
        episode returns.  Submission goes through
        :meth:`CollectRequest.run`, the sync driver's phase timer and
        budget attribution.  Any fault escaping the episode or the
        submission path closes the generator before propagating, so an
        aborted session never parks a suspended frame.
        """
        try:
            while True:
                try:
                    request = self._episode.send(records)
                except StopIteration as stop:
                    self._finish(stop.value)
                    return
                platform = self.platform
                self._pending = request.run(
                    platform.submit_batch, platform.budget
                )
                self._arrived = 0
                if self._pending:
                    return
                records = []
        except BaseException:
            self.close()
            raise

    def _finish(self, outcome: LabellingOutcome) -> None:
        """Score the finished episode and flush the session's metrics."""
        report = outcome.evaluate(
            self.platform.evaluation_labels(),
            n_classes=self.dataset.n_classes,
        )
        finished_at = self.platform.clock.now
        registry = self.registry
        registry.set_gauge("budget.total", outcome.budget)
        registry.set_gauge("budget.spent", outcome.spent)
        registry.set_gauge("iterations", outcome.iterations)
        registry.set_gauge("serve.finished_at", finished_at)
        snapshot = registry.snapshot()
        if self.events is not None:
            self.events.emit(
                "run_end",
                session=self.name,
                spent=outcome.spent,
                iterations=outcome.iterations,
                accuracy=report.accuracy,
                finished_at=finished_at,
            )
            self.events.emit("snapshot", metrics=snapshot)
            self.events.close()
        self.state = DONE
        self.result = SessionResult(
            name=self.name,
            outcome=outcome,
            report=report,
            metrics=snapshot,
            finished_at=finished_at,
        )
