"""Exception hierarchy for the CrowdRL reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Sub-classes separate configuration mistakes (caller
error) from runtime conditions (budget exhaustion, injected faults).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied."""


class BudgetExhaustedError(ReproError, RuntimeError):
    """An operation required budget that the budget manager no longer has."""


class DatasetError(ReproError, ValueError):
    """A dataset is malformed or an unknown dataset name was requested."""


class NotFittedError(ReproError, RuntimeError):
    """A model was used for prediction before being fitted."""


class FaultError(ReproError, RuntimeError):
    """Base class for injected crowd-platform faults.

    Raised by :class:`repro.crowd.faults.UnreliablePlatform` when the fault
    model decides a request misbehaves.  The :class:`ResilientCollector`
    catches these and applies its retry/reassign/quarantine policies; bare
    platforms let them propagate, which is the failure mode the resilience
    layer exists to remove.
    """

    def __init__(self, message: str, *, object_id: int = -1,
                 annotator_id: int = -1) -> None:
        super().__init__(message)
        self.object_id = object_id
        self.annotator_id = annotator_id


class AnswerTimeoutError(FaultError):
    """The annotator accepted the task but never delivered in time.

    Work was started, so the fault model may charge a partial (wasted) cost
    even though no answer is recorded.
    """


class AnnotatorUnavailableError(FaultError):
    """The annotator abandoned the task or is offline (burst outage)."""


class CollectionFailedError(FaultError):
    """The resilient collector exhausted retries and reassignment options."""


class CheckpointError(ReproError, RuntimeError):
    """A run checkpoint is missing, malformed, or inconsistent with the run."""


class ShardError(ReproError, RuntimeError):
    """A sharded sweep failed: a shard raised, or its journal is unusable.

    Raised by :class:`repro.harness.parallel.ShardedRunner` when a shard's
    task function raises inside a worker (the remote traceback is carried
    in the message) or when a sweep journal cannot be matched to the sweep
    being (re)run.
    """
