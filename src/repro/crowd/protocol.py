"""The ``Platform`` protocol: the answer-collection surface frameworks see.

Every layer of a platform stack — the base :class:`CrowdPlatform`, the
fault-injecting :class:`UnreliablePlatform`, the retrying
:class:`ResilientCollector`, the journalling ``CheckpointRecorder`` and the
serving-layer ``AsyncPlatform`` — exposes the same interface, much of it
through ``PlatformWrapper.__getattr__`` delegation.  :class:`Platform` is
the :func:`typing.runtime_checkable` :class:`typing.Protocol` naming
exactly the surface a :class:`~repro.core.framework.LabellingFramework`
may touch — answer collection (``ask``/``ask_batch``), the affordability
surface (``at_capacity``/``cheapest_cost``), the shared books (``pool``,
``budget``, ``history``) and evaluation-only ground truth.

Wrapper chains are type-checked against it at composition time:
:func:`repro.crowd.wrap` refuses to wrap an object that does not satisfy
the protocol, so a mis-assembled stack fails loudly at construction
instead of deep inside an episode.  The protocol is exported lazily from
the top-level package (``repro.Platform``), like ``repro.StateFeaturizer``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # imported for annotations only; avoids import cycles
    from repro.crowd.cost import BudgetManager
    from repro.crowd.history import LabellingHistory
    from repro.crowd.platform import AnswerRecord
    from repro.crowd.pool import AnnotatorPool


@runtime_checkable
class Platform(Protocol):
    """Structural interface of every answer-collection layer.

    Declared (and tested) by :class:`~repro.crowd.platform.CrowdPlatform`,
    :class:`~repro.crowd.faults.PlatformWrapper` subclasses —
    :class:`~repro.crowd.faults.UnreliablePlatform`,
    :class:`~repro.crowd.resilient.ResilientCollector`,
    :class:`~repro.harness.checkpoint.CheckpointRecorder`,
    :class:`~repro.serve.platform.AsyncPlatform` — and satisfied
    structurally by any future layer that delegates the rest through
    :class:`~repro.crowd.faults.PlatformWrapper`.

    ``isinstance(obj, Platform)`` checks member presence (including the
    ``pool``/``budget``/``history`` attributes, which wrappers surface via
    delegation); it cannot check signatures — the conformance tests in
    ``tests/test_crowd_protocol.py`` pin those.
    """

    #: The shared annotator pool (costs, estimated qualities, capacity).
    pool: "AnnotatorPool"
    #: The budget the run charges every answer to.
    budget: "BudgetManager"
    #: The ``|O| x |W|`` answer matrix recorded so far.
    history: "LabellingHistory"

    def ask(self, object_id: int, annotator_id: int) -> "AnswerRecord":
        """Collect one answer for ``(object_id, annotator_id)``."""
        ...

    def ask_batch(
        self, assignments: Iterable[tuple]
    ) -> "Sequence[AnswerRecord]":
        """Collect answers for ``(object, [annotators])`` assignments."""
        ...

    def at_capacity(self, annotator_id: int) -> bool:
        """Whether the annotator has exhausted its answer capacity."""
        ...

    def cheapest_cost(self) -> float:
        """Cost of the cheapest annotator (the affordability threshold)."""
        ...

    def evaluation_labels(self) -> np.ndarray:
        """Ground truth — for metric computation only, never for learning."""
        ...


def check_platform(obj: object, *, context: str = "platform") -> None:
    """Raise ``ConfigurationError`` unless ``obj`` satisfies :class:`Platform`.

    Used by :func:`repro.crowd.wrap` and the serving layer to fail fast on
    mis-assembled wrapper chains; ``context`` names the argument being
    checked in the error message.
    """
    from repro.exceptions import ConfigurationError

    if not isinstance(obj, Platform):
        missing = sorted(
            name for name in (
                "ask", "ask_batch", "at_capacity", "cheapest_cost",
                "evaluation_labels", "pool", "budget", "history",
            )
            if not hasattr(obj, name)
        )
        raise ConfigurationError(
            f"{context} {type(obj).__name__!r} does not satisfy the "
            f"repro.crowd.Platform protocol (missing: {', '.join(missing)})"
        )


__all__ = ["Platform", "check_platform"]
