"""Fault injection for the simulated crowd platform.

The paper's platform model assumes every ``(object, annotator)`` request
returns an answer.  Real crowd platforms do not: workers time out, abandon
tasks, go offline mid-campaign, and occasionally return garbage.  This
module makes those regimes reproducible: a seeded :class:`FaultModel`
decides, per request, whether and how an annotator misbehaves, and
:class:`UnreliablePlatform` wraps a :class:`~repro.crowd.platform.CrowdPlatform`
so those decisions surface as typed exceptions from ``ask``/``ask_batch``
(while still charging the partial cost of wasted work where the fault model
says work was started).

Fault taxonomy (see DESIGN §7 for the handling policy of each):

``TIMEOUT``
    The annotator accepted the task but never delivered.  A fraction of the
    answer cost is charged as waste; :class:`AnswerTimeoutError` is raised.
``ABANDON``
    The annotator declined/abandoned immediately.  Nothing is charged;
    :class:`AnnotatorUnavailableError` is raised.
``OFFLINE``
    The annotator dropped off the platform.  Going offline opens a *burst
    outage*: the annotator stays unavailable for the next
    ``outage_length`` platform requests.  Nothing is charged.
``CORRUPT``
    The answer is delivered but malformed in transit; it is replaced by a
    uniformly random class.  Full cost is charged (the work was done) and
    no exception is raised — corruption is silent, as it is in the wild.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

from repro.analysis.contracts import shaped
from repro.crowd.platform import AnswerRecord, CrowdPlatform
from repro.exceptions import (
    AnnotatorUnavailableError,
    AnswerTimeoutError,
    ConfigurationError,
)
from repro.utils.rng import SeedLike, as_rng

RateLike = Union[float, np.ndarray, list]


class FaultKind(enum.Enum):
    """The four ways a crowd request can misbehave."""

    TIMEOUT = "timeout"
    ABANDON = "abandon"
    OFFLINE = "offline"
    CORRUPT = "corrupt"


#: Column order of the per-annotator rate matrix.
FAULT_KINDS = (FaultKind.TIMEOUT, FaultKind.ABANDON, FaultKind.OFFLINE,
               FaultKind.CORRUPT)


class FaultModel:
    """Seeded per-annotator fault probabilities with burst outages.

    Each rate may be a scalar (shared by every annotator) or a length-
    ``n_annotators`` array.  On every request the model draws one uniform
    variate from its *own* RNG stream — annotator answer streams are never
    touched, so a fault model at rate 0 leaves a run bit-for-bit identical
    to an unwrapped platform.
    """

    def __init__(
        self,
        n_annotators: int,
        *,
        timeout: RateLike = 0.0,
        abandon: RateLike = 0.0,
        offline: RateLike = 0.0,
        corrupt: RateLike = 0.0,
        outage_length: int = 5,
        timeout_cost_fraction: float = 0.5,
        rng: SeedLike = 0,
    ) -> None:
        if n_annotators <= 0:
            raise ConfigurationError(
                f"n_annotators must be > 0, got {n_annotators}"
            )
        if outage_length <= 0:
            raise ConfigurationError(
                f"outage_length must be > 0, got {outage_length}"
            )
        if not 0.0 <= timeout_cost_fraction <= 1.0:
            raise ConfigurationError(
                f"timeout_cost_fraction must be in [0, 1], got "
                f"{timeout_cost_fraction}"
            )
        self.n_annotators = n_annotators
        self.outage_length = outage_length
        self.timeout_cost_fraction = timeout_cost_fraction
        rates = np.stack([
            self._broadcast(rate, n_annotators, kind.value)
            for kind, rate in zip(
                FAULT_KINDS, (timeout, abandon, offline, corrupt)
            )
        ], axis=1)
        totals = rates.sum(axis=1)
        if totals.max() > 1.0 + 1e-9:
            raise ConfigurationError(
                f"per-annotator fault rates must sum to <= 1, got max "
                f"{totals.max():.3f}"
            )
        self._rates = rates
        self._cumulative = np.cumsum(rates, axis=1)
        #: True when no fault can ever fire — wrappers use this to take a
        #: zero-overhead fast path (see ``UnreliablePlatform.ask_batch``).
        self.inert = bool(totals.max() <= 0.0)
        self._rng = as_rng(rng)
        self._clock = 0
        #: annotator_id -> clock tick at which its current outage ends.
        self._outages: dict[int, int] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _broadcast(rate: RateLike, n: int, name: str) -> np.ndarray:
        arr = np.asarray(rate, dtype=float)
        if arr.ndim == 0:
            arr = np.full(n, float(arr))
        if arr.shape != (n,):
            raise ConfigurationError(
                f"{name} rate must be a scalar or shape ({n},), got "
                f"{arr.shape}"
            )
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ConfigurationError(
                f"{name} rates must lie in [0, 1], got "
                f"[{arr.min():.3f}, {arr.max():.3f}]"
            )
        return arr

    @classmethod
    def from_rate(cls, n_annotators: int, rate: float, *,
                  rng: SeedLike = 0, **kwargs) -> "FaultModel":
        """A uniform model with total fault probability ``rate`` per request.

        The mass is split over the transient-to-persistent spectrum:
        half timeouts, a quarter abandons, an eighth each of offline drops
        and corruption — a plausible mix for a public crowd platform.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        return cls(
            n_annotators,
            timeout=rate * 0.5,
            abandon=rate * 0.25,
            offline=rate * 0.125,
            corrupt=rate * 0.125,
            rng=rng,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Number of fault decisions made so far (the outage time base)."""
        return self._clock

    @shaped(result="(n_annotators, n_kinds)")
    def rates(self) -> np.ndarray:
        """The per-annotator rate matrix, columns in ``FAULT_KINDS`` order."""
        return self._rates.copy()

    def in_outage(self, annotator_id: int) -> bool:
        """Whether ``annotator_id`` is inside a burst outage right now."""
        end = self._outages.get(annotator_id)
        return end is not None and self._clock < end

    def draw(self, annotator_id: int) -> Optional[FaultKind]:
        """Decide the fate of one request to ``annotator_id``.

        Advances the platform clock, honours any open burst outage, and
        otherwise samples the annotator's fault distribution.  Returns
        ``None`` for a healthy request.
        """
        if not 0 <= annotator_id < self.n_annotators:
            raise ConfigurationError(
                f"annotator_id must be in [0, {self.n_annotators}), got "
                f"{annotator_id}"
            )
        self._clock += 1
        end = self._outages.get(annotator_id)
        if end is not None:
            if self._clock <= end:
                return FaultKind.OFFLINE
            del self._outages[annotator_id]
        if self.inert:
            return None
        u = self._rng.random()
        row = self._cumulative[annotator_id]
        if u >= row[-1]:
            return None
        kind = FAULT_KINDS[int(np.searchsorted(row, u, side="right"))]
        if kind is FaultKind.OFFLINE:
            self._outages[annotator_id] = self._clock + self.outage_length
        return kind

    def corrupt_answer(self, n_classes: int) -> int:
        """Sample the malformed answer a corrupted request delivers."""
        return int(self._rng.integers(n_classes))

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable state (clock, outages, RNG) for checkpointing."""
        return {
            "clock": self._clock,
            "outages": {str(k): v for k, v in self._outages.items()},
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        try:
            self._clock = int(state["clock"])
            self._outages = {int(k): int(v)
                             for k, v in state["outages"].items()}
            self._rng.bit_generator.state = state["rng"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed fault-model state: {exc}"
            ) from exc


class PlatformWrapper:
    """Transparent delegation base for platform-decorating layers.

    Subclasses override the behaviour they change (``ask``, ``ask_batch``)
    and inherit everything else — ``pool``, ``budget``, ``history``,
    ``evaluation_labels`` and any future platform attribute — via
    ``__getattr__``, so frameworks cannot tell a wrapped platform from a
    bare one.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name: str):
        # Only called for attributes not found on the wrapper itself.
        return getattr(self.inner, name)


class UnreliablePlatform(PlatformWrapper):
    """A platform whose annotators fail according to a :class:`FaultModel`.

    ``ask`` raises :class:`AnswerTimeoutError` /
    :class:`AnnotatorUnavailableError` when the fault model says so;
    ``ask_batch`` propagates those faults, so an unprotected framework
    crashes on the first misbehaving request — wrap the result in a
    :class:`repro.crowd.resilient.ResilientCollector` to survive them.
    """

    def __init__(self, inner: CrowdPlatform, fault_model: FaultModel) -> None:
        if fault_model.n_annotators != len(inner.pool):
            raise ConfigurationError(
                f"fault model covers {fault_model.n_annotators} annotators, "
                f"platform has {len(inner.pool)}"
            )
        super().__init__(inner)
        self.fault_model = fault_model

    # ------------------------------------------------------------------
    def ask(self, object_id: int, annotator_id: int) -> AnswerRecord:
        """Collect one answer, or raise the fault the model injects."""
        fault = self.fault_model.draw(annotator_id)
        if fault is FaultKind.TIMEOUT:
            self._charge_waste(object_id, annotator_id)
            raise AnswerTimeoutError(
                f"annotator {annotator_id} timed out on object {object_id}",
                object_id=object_id, annotator_id=annotator_id,
            )
        if fault is FaultKind.ABANDON or fault is FaultKind.OFFLINE:
            raise AnnotatorUnavailableError(
                f"annotator {annotator_id} is unavailable for object "
                f"{object_id} ({fault.value})",
                object_id=object_id, annotator_id=annotator_id,
            )
        record = self.inner.ask(object_id, annotator_id)
        if fault is FaultKind.CORRUPT:
            record = self._corrupt(record)
        return record

    def ask_batch(self, assignments) -> list[AnswerRecord]:
        """Batch collection with the platform's skip/stop semantics.

        Faults raised by individual requests propagate — resilience is the
        collector's job, not the platform's.
        """
        if self.fault_model.inert:
            return self.inner.ask_batch(assignments)
        collected: list[AnswerRecord] = []
        inner = self.inner
        for object_id, annotator_ids in assignments:
            for annotator_id in annotator_ids:
                if inner.history.has_answered(object_id, annotator_id):
                    continue
                if inner.at_capacity(annotator_id):
                    continue
                if not inner.budget.can_afford(inner.pool[annotator_id].cost):
                    if not inner.budget.can_afford(inner.cheapest_cost()):
                        return collected
                    continue
                collected.append(self.ask(object_id, annotator_id))
        return collected

    # ------------------------------------------------------------------
    def _charge_waste(self, object_id: int, annotator_id: int) -> None:
        """Charge the wasted fraction of a timed-out answer's cost."""
        waste = (self.fault_model.timeout_cost_fraction
                 * self.inner.pool[annotator_id].cost)
        waste = min(waste, max(self.inner.budget.remaining, 0.0))
        if waste > 0.0:
            self.inner.budget.charge(waste, object_id=object_id,
                                     annotator_id=annotator_id)

    def _corrupt(self, record: AnswerRecord) -> AnswerRecord:
        """Replace a delivered answer with transit garbage, everywhere.

        The history matrix and answer log must agree on the corrupted
        value — inference and checkpoint replay both read them.
        """
        bad = self.fault_model.corrupt_answer(self.inner.n_classes)
        self.inner.history.amend(record.object_id, record.annotator_id, bad)
        fixed = AnswerRecord(record.object_id, record.annotator_id, bad,
                             record.cost)
        self.inner.answer_log[-1] = fixed
        return fixed
