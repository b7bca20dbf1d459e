"""Wrapper-chain composition: one blessed way to assemble a platform stack.

:func:`wrap` is the single composition point for
``ResilientCollector(UnreliablePlatform(platform, model), ...)`` chains:
it validates every layer against the
:class:`~repro.crowd.protocol.Platform` protocol, applies the canonical
ordering (faults innermost, resilience outermost), and owns the seed
defaults.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.crowd.faults import FaultModel, UnreliablePlatform
from repro.crowd.protocol import Platform, check_platform
from repro.crowd.resilient import ResiliencePolicy, ResilientCollector
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike

FaultsLike = Union[None, float, FaultModel]
ResilientLike = Union[None, bool, ResiliencePolicy]


def wrap(
    platform: Platform,
    *,
    faults: FaultsLike = None,
    resilient: ResilientLike = None,
    fault_seed: SeedLike = 0,
    resilience_seed: SeedLike = 0,
) -> Platform:
    """Compose the canonical platform wrapper chain.

    Parameters
    ----------
    platform:
        Any object satisfying the :class:`~repro.crowd.protocol.Platform`
        protocol — typically a bare
        :class:`~repro.crowd.platform.CrowdPlatform`.
    faults:
        ``None`` for a reliable platform, a float total fault rate
        (split per :meth:`FaultModel.from_rate`), or a pre-built
        :class:`FaultModel`.
    resilient:
        ``None`` adds a :class:`ResilientCollector` exactly when faults
        are injected; ``True``/``False`` force it on/off; a
        :class:`ResiliencePolicy` forces it on with that policy.
    fault_seed / resilience_seed:
        Seeds for the fault model built from a float rate and for the
        collector's backoff-jitter stream.

    Returns the outermost layer.  Callers that need a specific layer
    (the harness extracts the collector for checkpointing) walk the
    chain with ``isinstance`` / ``getattr`` rather than re-assembling it.
    """
    check_platform(platform, context="wrap() platform")
    fault_model = _resolve_faults(platform, faults, fault_seed)
    if fault_model is not None:
        platform = UnreliablePlatform(platform, fault_model)
    if resilient is None:
        resilient = fault_model is not None
    if resilient:
        policy = resilient if isinstance(resilient, ResiliencePolicy) else None
        platform = ResilientCollector(
            platform, policy=policy, rng=resilience_seed
        )
    check_platform(platform, context="wrap() result")
    return platform


def _resolve_faults(
    platform: Platform, faults: FaultsLike, fault_seed: SeedLike
) -> Optional[FaultModel]:
    """Normalise the ``faults`` argument to a model (or ``None``)."""
    if faults is None:
        return None
    if isinstance(faults, FaultModel):
        return faults
    if isinstance(faults, bool):  # bool subclasses int; reject explicitly
        raise ConfigurationError(
            f"faults must be None, a rate in [0, 1], or a FaultModel, "
            f"got {faults!r}"
        )
    if isinstance(faults, (int, float)):
        return FaultModel.from_rate(
            len(platform.pool), float(faults), rng=fault_seed
        )
    raise ConfigurationError(
        f"faults must be None, a rate in [0, 1], or a FaultModel, got "
        f"{type(faults).__name__!r}"
    )


__all__ = ["wrap"]
