"""REPRO007 fixture: unseeded construction hidden in one module.

The unseeded-construction hazard hides behind ``default_factory``
references, lambdas and parameter defaults (the shape of a real bug once
fixed in ``repro/crowd/annotator.py``).  Four hits: the factory
reference, the lambda factory (flagged at the factory and at the
construction inside it) and the parameter default.  The clean
counterparts stay silent and the waived factory is suppressed.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class HitFactoryReference:
    """Dataclass whose stream factory is an unseeded constructor (flagged)."""

    _rng: np.random.Generator = field(default_factory=np.random.default_rng)


@dataclass
class HitFactoryLambda:
    """Same hazard, hidden one lambda deep (flagged)."""

    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng()
    )


def hit_parameter_default(rng=np.random.default_rng()):
    """One unseeded stream frozen at import time (flagged)."""
    return rng.random(3)


@dataclass
class CleanExplicitStream:
    """The fix: accept an explicit stream, no hidden construction (silent)."""

    _rng: Optional[np.random.Generator] = field(default=None)


def clean_seeded_factory(seed):
    """A factory that threads its seed is fine (silent)."""
    return np.random.default_rng(seed)


@dataclass
class SuppressedFactory:
    """Unseeded factory with an inline waiver (suppressed)."""

    _rng: np.random.Generator = field(default_factory=np.random.default_rng)  # repro: noqa REPRO007
