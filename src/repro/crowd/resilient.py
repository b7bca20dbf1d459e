"""Resilient answer collection: retry, reassign, quarantine.

:class:`ResilientCollector` sits between a labelling framework and an
unreliable platform (usually an
:class:`~repro.crowd.faults.UnreliablePlatform`) and turns injected faults
into policy decisions instead of crashes:

``retry``
    Timeouts are transient; the same annotator is retried up to
    ``max_retries`` times with deterministic, seeded exponential backoff
    (simulated — the collector accumulates the wait it *would* have slept
    in ``stats.simulated_wait`` rather than stalling the experiment).
``reassign``
    Abandons, outages, and exhausted retries move the request to the
    next-best affordable annotator (highest estimated quality per unit
    cost) that has not answered the object, is not at capacity, and is not
    quarantined.
``quarantine``
    A per-annotator circuit breaker: once an annotator has made at least
    ``min_attempts`` attempts and their failure rate crosses
    ``failure_threshold``, they are quarantined for the rest of the run.
    The quarantine set is surfaced through :meth:`quarantined_annotators`
    so task-selection/assignment can mask those columns exactly like the
    paper masks already-answered pairs (see
    ``LabellingState.action_mask``); the collector additionally refuses to
    route new requests to quarantined annotators, which protects baselines
    that never consult the State.

With an inert fault model (rate 0) the collector delegates batch
collection straight to the platform, so enabling it costs nothing and
changes nothing — the tier-1 equivalence tests pin this.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.crowd.faults import PlatformWrapper
from repro.crowd.platform import AnswerRecord, collect_batch
from repro.exceptions import (
    AnnotatorUnavailableError,
    AnswerTimeoutError,
    CollectionFailedError,
    ConfigurationError,
    FaultError,
)
from repro.obs import get_registry
from repro.utils.rng import SeedLike, as_rng

logger = logging.getLogger("repro.crowd.resilient")

#: First backoff wait (simulated seconds) and its growth per retry.
BACKOFF_BASE = 0.5
BACKOFF_FACTOR = 2.0
#: Uniform jitter fraction applied to each backoff wait.
BACKOFF_JITTER = 0.1


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the retry/reassign/quarantine behaviour."""

    #: Extra attempts on the *same* annotator after a timeout.
    max_retries: int = 2
    #: Quarantine once failures/attempts reaches this rate ...
    failure_threshold: float = 0.5
    #: ... and the annotator has been tried at least this many times.
    min_attempts: int = 4
    #: Master switch for the circuit breaker.
    quarantine_enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigurationError(
                f"failure_threshold must be in (0, 1], got "
                f"{self.failure_threshold}"
            )
        if self.min_attempts < 1:
            raise ConfigurationError(
                f"min_attempts must be >= 1, got {self.min_attempts}"
            )


@dataclass
class CollectorStats:
    """Counters the collector accumulates over a run."""

    answers: int = 0
    retries: int = 0
    reassignments: int = 0
    gave_up: int = 0
    simulated_wait: float = 0.0
    faults: dict = field(default_factory=dict)
    #: ``(annotator_id, failure_rate, attempts)`` per quarantine decision.
    quarantine_events: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "answers": self.answers,
            "retries": self.retries,
            "reassignments": self.reassignments,
            "gave_up": self.gave_up,
            "simulated_wait": self.simulated_wait,
            "faults": dict(self.faults),
            "quarantine_events": [list(e) for e in self.quarantine_events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CollectorStats":
        return cls(
            answers=int(payload["answers"]),
            retries=int(payload["retries"]),
            reassignments=int(payload["reassignments"]),
            gave_up=int(payload["gave_up"]),
            simulated_wait=float(payload["simulated_wait"]),
            faults={str(k): int(v) for k, v in payload["faults"].items()},
            quarantine_events=[
                (int(a), float(r), int(n))
                for a, r, n in payload["quarantine_events"]
            ],
        )


class ResilientCollector(PlatformWrapper):
    """Fault-tolerant ``ask``/``ask_batch`` over any platform.

    Exposes the full platform interface, so frameworks run on a collector
    unchanged.  Faults never escape ``ask_batch``; ``ask`` raises
    :class:`CollectionFailedError` only when no affordable, unquarantined
    annotator can take the request at all.
    """

    def __init__(self, platform, *,
                 policy: Optional[ResiliencePolicy] = None,
                 rng: SeedLike = 0) -> None:
        super().__init__(platform)
        self.policy = policy or ResiliencePolicy()
        self._rng = as_rng(rng)
        n = len(platform.pool)
        self._attempts = [0] * n
        self._failures = [0] * n
        self._quarantined: set[int] = set()
        self.stats = CollectorStats()

    # ------------------------------------------------------------------
    # The quarantine surface frameworks mask on
    # ------------------------------------------------------------------
    def quarantined_annotators(self) -> frozenset:
        """Annotators the circuit breaker has removed from rotation."""
        return frozenset(self._quarantined)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def ask(self, object_id: int, annotator_id: int) -> AnswerRecord:
        """Collect one answer, surviving faults via retry/reassignment.

        Raises :class:`CollectionFailedError` when every candidate
        annotator failed or none remains affordable and available.
        """
        record = self._collect(object_id, annotator_id)
        if record is None:
            raise CollectionFailedError(
                f"could not collect an answer for object {object_id}: all "
                f"candidate annotators failed or are unavailable",
                object_id=object_id, annotator_id=annotator_id,
            )
        return record

    def ask_batch(
        self, assignments: Iterable[tuple[int, Sequence[int]]]
    ) -> list[AnswerRecord]:
        """Batch collection that never lets a fault escape.

        The shared :func:`~repro.crowd.platform.collect_batch` rules
        (skip answered / at-capacity pairs, stop only when even the
        cheapest annotator is unaffordable); requests that cannot be
        served after retries and reassignment are dropped and counted in
        ``stats.gave_up``.
        """
        fault_model = getattr(self.inner, "fault_model", None)
        if ((fault_model is None or fault_model.inert)
                and not self._quarantined):
            records = self.inner.ask_batch(assignments)
            self.stats.answers += len(records)
            return records
        return collect_batch(self.inner, assignments, self._collect)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _collect(self, object_id: int,
                 annotator_id: int) -> Optional[AnswerRecord]:
        """Try ``annotator_id`` (with retries), then reassign down the pool.

        Returns ``None``, counted in ``stats.gave_up``, when no candidate
        could answer.
        """
        tried: set[int] = set()
        candidate: Optional[int] = annotator_id
        if annotator_id in self._quarantined:
            tried.add(annotator_id)
            candidate = self._reassign(object_id, tried)
            if candidate is not None:
                self.stats.reassignments += 1
                get_registry().inc("collect.reassignments")
        while candidate is not None:
            record = self._attempt_with_retries(object_id, candidate)
            if record is not None:
                return record
            tried.add(candidate)
            candidate = self._reassign(object_id, tried)
            if candidate is not None:
                self.stats.reassignments += 1
                get_registry().inc("collect.reassignments")
        self.stats.gave_up += 1
        return None

    def _attempt_with_retries(self, object_id: int,
                              annotator_id: int) -> Optional[AnswerRecord]:
        cost = self.inner.pool[annotator_id].cost
        for attempt in range(self.policy.max_retries + 1):
            if not self.inner.budget.can_afford(cost):
                return None
            try:
                record = self.inner.ask(object_id, annotator_id)
            except AnswerTimeoutError:
                self._record_failure(annotator_id, "timeout")
                if (attempt < self.policy.max_retries
                        and annotator_id not in self._quarantined):
                    self.stats.retries += 1
                    get_registry().inc("collect.retries")
                    self._backoff(attempt)
                    continue
                return None
            except AnnotatorUnavailableError:
                # Abandoned or offline: retrying the same annotator is
                # pointless (outages persist for several requests).
                self._record_failure(annotator_id, "unavailable")
                return None
            except FaultError:
                self._record_failure(annotator_id, "other")
                return None
            self._record_success(annotator_id)
            self.stats.answers += 1
            return record
        return None

    def _reassign(self, object_id: int, tried: set) -> Optional[int]:
        """Next-best affordable annotator for ``object_id``, or ``None``.

        Candidates are ranked by estimated quality per unit cost — the
        same value ordering the cold-start heuristics use — so
        reassignment degrades quality as slowly as the budget allows.
        """
        inner = self.inner
        value = inner.pool.estimated_qualities() / inner.pool.costs
        for j in np.argsort(-value, kind="stable"):
            j = int(j)
            if (j in tried or j in self._quarantined
                    or inner.history.has_answered(object_id, j)
                    or inner.at_capacity(j)
                    or not inner.budget.can_afford(inner.pool[j].cost)):
                continue
            return j
        return None

    def _backoff(self, attempt: int) -> None:
        """Accumulate the deterministic (seeded) exponential backoff wait."""
        wait = BACKOFF_BASE * BACKOFF_FACTOR ** attempt
        wait *= 1.0 + BACKOFF_JITTER * (2.0 * self._rng.random() - 1.0)
        self.stats.simulated_wait += wait
        get_registry().inc("collect.backoff_wait_s", wait)

    def _record_success(self, annotator_id: int) -> None:
        self._attempts[annotator_id] += 1

    def _record_failure(self, annotator_id: int, kind: str) -> None:
        self._attempts[annotator_id] += 1
        self._failures[annotator_id] += 1
        self.stats.faults[kind] = self.stats.faults.get(kind, 0) + 1
        get_registry().inc(f"collect.faults.{kind}")
        if not self.policy.quarantine_enabled:
            return
        if annotator_id in self._quarantined:
            return
        attempts = self._attempts[annotator_id]
        if attempts < self.policy.min_attempts:
            return
        rate = self._failures[annotator_id] / attempts
        if rate >= self.policy.failure_threshold:
            self._quarantined.add(annotator_id)
            self.stats.quarantine_events.append((annotator_id, rate, attempts))
            get_registry().inc("collect.breaker_trips")
            logger.warning(
                "quarantined annotator %d: failure rate %.2f over %d "
                "attempts (threshold %.2f)",
                annotator_id, rate, attempts, self.policy.failure_threshold,
            )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable collector state (breaker counters, RNG, stats)."""
        return {
            "attempts": list(self._attempts),
            "failures": list(self._failures),
            "quarantined": sorted(self._quarantined),
            "rng": self._rng.bit_generator.state,
            "stats": self.stats.as_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        try:
            self._attempts = [int(v) for v in state["attempts"]]
            self._failures = [int(v) for v in state["failures"]]
            self._quarantined = {int(v) for v in state["quarantined"]}
            self._rng.bit_generator.state = state["rng"]
            self.stats = CollectorStats.from_dict(state["stats"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed collector state: {exc}"
            ) from exc
