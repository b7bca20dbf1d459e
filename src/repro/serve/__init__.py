"""The online labelling service: async answers, event loop, multi-tenancy.

This package turns the reproduction's synchronous run-owns-everything
shape into the serving shape the ROADMAP's north star asks for (and that
Shan et al.'s platform-side view of crowdsourcing describes): answers
arrive over time, the policy overlaps decisions with in-flight work, and
one process drives many concurrent labelling projects contending for a
shared annotator pool.

Layering (each piece usable alone):

* :class:`VirtualClock` — deterministic discrete-event time.
* :class:`LatencyModel` — seeded per-annotator service times, on a
  stream of their own (answers' *content* is never touched).
* :class:`AnnotatorLeases` — FIFO virtual-time occupancy of the shared
  pool; the fairness mechanism and its audit surface.
* :class:`AsyncPlatform` — ``ask_async``/``submit_batch`` futures over
  any composed :class:`~repro.crowd.protocol.Platform` chain; executes
  the inner ``ask`` at submission so async stays bit-identical to sync.
* :class:`LabellingSession` — drives one framework's stepwise episode,
  overlapping collection with agent steps, with its own budget, obs
  registry and JSONL stream; a single served run is one session.
* :class:`ServeEngine` — the multi-tenant event loop: FIFO admission
  of many sessions onto one shared pool and clock.
"""

from repro.serve.clock import VirtualClock
from repro.serve.engine import EngineReport, ServeEngine
from repro.serve.latency import LatencyModel
from repro.serve.leases import AnnotatorLeases
from repro.serve.platform import AsyncPlatform, PendingAnswer
from repro.serve.session import LabellingSession, SessionResult

__all__ = [
    "AnnotatorLeases",
    "AsyncPlatform",
    "EngineReport",
    "LabellingSession",
    "LatencyModel",
    "PendingAnswer",
    "ServeEngine",
    "SessionResult",
    "VirtualClock",
]
