"""The multi-tenant serving engine: many projects, one annotator pool.

:class:`ServeEngine` is the process-level event loop of the online
labelling service.  Each project added becomes a
:class:`~repro.serve.session.LabellingSession` with its own dataset,
budget, history, and metrics registry, but every session shares the
engine's annotator pool, latency model, lease table, and virtual clock —
sessions *contend* for annotators exactly as concurrent campaigns do on
a real platform.

Scheduling is deterministic and single-threaded: sessions are admitted
FIFO up to ``max_active``; the loop repeatedly pops the globally earliest
completion from the shared clock and hands it to the owning session,
which may featurize/act/train and submit its next batch before the loop
continues.  Annotator-level fairness comes from the FIFO lease table
(:mod:`repro.serve.leases`), whose per-session grant counts the engine
report surfaces for audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.crowd.compose import wrap
from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.exceptions import ConfigurationError
from repro.obs import JsonlEventLog, make_registry
from repro.serve.clock import VirtualClock
from repro.serve.latency import LatencyModel
from repro.serve.leases import AnnotatorLeases
from repro.serve.platform import AsyncPlatform
from repro.serve.session import LabellingSession, SessionResult
from repro.utils.tables import format_table


@dataclass
class EngineReport:
    """What one :meth:`ServeEngine.run` produced, for rendering and tests."""

    #: Per-session results, in admission order.
    results: list
    #: Virtual time at which the last session finished.
    makespan: float
    #: Highest number of simultaneously active sessions observed.
    peak_active: int
    #: Per-session lease grant totals (the fairness audit surface).
    grant_counts: dict = field(default_factory=dict)
    #: Total virtual seconds requests queued behind busy annotators.
    lease_wait_s: float = 0.0

    def render(self) -> str:
        """Plain-text per-session summary table."""
        rows = []
        for result in self.results:
            outcome = result.outcome
            rows.append([
                result.name,
                outcome.framework,
                f"{outcome.spent:.1f}/{outcome.budget:.1f}",
                outcome.iterations,
                f"{result.report.accuracy:.4f}",
                f"{result.report.f1:.4f}",
                self.grant_counts.get(result.name, 0),
                f"{result.finished_at:.2f}",
            ])
        table = format_table(
            ["session", "framework", "spent/budget", "iters", "accuracy",
             "f1", "grants", "finished"],
            rows,
        )
        tail = (
            f"{len(self.results)} sessions, peak {self.peak_active} active; "
            f"virtual makespan {self.makespan:.2f}s, "
            f"lease wait {self.lease_wait_s:.2f}s"
        )
        return f"{table}\n{tail}"


class ServeEngine:
    """Drives many concurrent labelling sessions on one shared pool."""

    def __init__(
        self,
        pool,
        *,
        latency: Optional[LatencyModel] = None,
        max_active: Optional[int] = None,
        metrics_dir=None,
    ) -> None:
        if max_active is not None and max_active <= 0:
            raise ConfigurationError(
                f"max_active must be > 0, got {max_active}"
            )
        self.pool = pool
        self.clock = VirtualClock()
        self.latency = latency if latency is not None else (
            LatencyModel.for_pool(pool)
        )
        if self.latency.n_annotators != len(pool):
            raise ConfigurationError(
                f"latency model covers {self.latency.n_annotators} "
                f"annotators, pool has {len(pool)}"
            )
        self.leases = AnnotatorLeases(len(pool))
        self.max_active = max_active
        self.metrics_dir = Path(metrics_dir) if metrics_dir is not None else None
        #: Sessions in admission order (dict preserves insertion order).
        self._sessions: dict = {}
        self._ran = False

    # ------------------------------------------------------------------
    def add_project(
        self,
        name: str,
        dataset,
        framework,
        *,
        budget: float,
        faults=None,
        resilient=None,
        seed: int = 0,
    ) -> LabellingSession:
        """Register one labelling project as a session awaiting admission.

        The project gets its own :class:`CrowdPlatform` (private truth,
        history, budget) over the engine's *shared* pool, composed
        through :func:`repro.crowd.wrap` and the async adapter bound to
        the engine's clock/leases/latency.  With ``metrics_dir`` set, the
        session streams its metrics to ``<metrics_dir>/<name>.jsonl``.
        """
        if self._ran:
            raise ConfigurationError(
                "cannot add projects after the engine has run"
            )
        if name in self._sessions:
            raise ConfigurationError(f"duplicate session name {name!r}")
        if dataset.n_classes != self.pool.n_classes:
            raise ConfigurationError(
                f"dataset {name!r} has {dataset.n_classes} classes, the "
                f"shared pool expects {self.pool.n_classes}"
            )
        base = CrowdPlatform(
            dataset.labels, self.pool, BudgetManager(budget),
            difficulty=dataset.difficulty,
        )
        chain = wrap(
            base,
            faults=faults,
            resilient=resilient,
            fault_seed=seed + 3000,
            resilience_seed=seed + 4000,
        )
        platform = AsyncPlatform(
            chain,
            latency=self.latency,
            clock=self.clock,
            leases=self.leases,
            session=name,
        )
        events = None
        if self.metrics_dir is not None:
            self.metrics_dir.mkdir(parents=True, exist_ok=True)
            events = JsonlEventLog(self.metrics_dir / f"{name}.jsonl")
        session = LabellingSession(
            name, dataset, framework, platform,
            registry=make_registry(events=events), events=events,
        )
        self._sessions[name] = session
        return session

    # ------------------------------------------------------------------
    def run(self) -> EngineReport:
        """Drive every session to completion; returns the engine report.

        Admission is FIFO up to ``max_active``; the event loop then
        interleaves sessions by popping the globally earliest answer
        completion, letting the owning session advance (and submit more
        work) before the next pop.  Entirely deterministic on a virtual
        clock: same projects, same seeds, same report.
        """
        if self._ran:
            raise ConfigurationError("engine.run() may only be called once")
        if not self._sessions:
            raise ConfigurationError("no projects have been added")
        self._ran = True
        queued = list(self._sessions.values())
        active: list = []
        peak_active = 0

        def admit() -> None:
            while queued and (
                self.max_active is None or len(active) < self.max_active
            ):
                session = queued.pop(0)
                session.start()
                if not session.done:
                    active.append(session)

        try:
            admit()
            peak_active = len(active)
            while active:
                if len(self.clock) == 0:
                    raise ConfigurationError(
                        "event clock idle with sessions still active"
                    )
                _due, _seq, pending = self.clock.pop()
                session = self._sessions[pending.session]
                session.deliver(pending)
                if session.done:
                    active.remove(session)
                    admit()
                peak_active = max(peak_active, len(active))
        finally:
            # Shutdown: any session that did not finish (a fault aborted
            # the loop) must not leave a suspended episode frame behind.
            # On the success path every session is done and this is a
            # no-op, so completed runs stay bit-identical.
            for session in self._sessions.values():
                if not session.done:
                    session.close()
        results = [
            session.result for session in self._sessions.values()
        ]
        return EngineReport(
            results=results,
            makespan=self.clock.now,
            peak_active=peak_active,
            grant_counts=self.leases.grant_counts(),
            lease_wait_s=self.leases.total_wait,
        )


__all__ = ["ServeEngine", "EngineReport", "SessionResult"]
