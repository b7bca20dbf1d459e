"""Process-local metrics: counters, gauges, histograms and phase timers.

The observability substrate the episode path is instrumented with.  One
:class:`MetricsRegistry` lives per process (installed with
:func:`set_registry` / :func:`use_registry`); instrumented code talks to
whatever registry is active *at call time* through :func:`get_registry`
and :func:`phase_timer`, so libraries carry no registry plumbing.

Determinism: histograms use **fixed bucket edges** chosen at creation, so
two runs observing the same values produce identical snapshots; the
registry clock is injectable (``clock=``), so tests swap the wall clock
for a counting clock and pin *fully* identical snapshots across same-seed
runs.  :meth:`MetricsRegistry.snapshot` sorts every key.

Disabled mode: the default active registry is a :class:`NullRegistry`
whose methods are no-ops and whose :func:`phase_timer` never reads the
clock — the same "off means free" pattern as ``REPRO_CONTRACTS=0``
(``benchmarks/bench_obs.py`` bounds the residual overhead under 5%).
Setting ``REPRO_METRICS=1`` makes :func:`metrics_enabled_by_default`
true, which ``run_experiment`` uses to switch collection on without code
changes.

Not thread-safe: the registry is process-local, like the rest of the
single-process simulation.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

#: Default duration buckets (seconds) for phase histograms: microseconds
#: through tens of seconds, fixed so snapshots are structurally stable.
DEFAULT_TIME_EDGES: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)


def monotonic() -> float:
    """Operational monotonic clock (seconds), for liveness decisions only.

    The sharded experiment engine times heartbeats, shard timeouts and
    retry backoff against this clock.  It lives in ``repro.obs`` — the
    sanctioned home for clocks (REPRO012) — because nothing data-bearing
    may depend on it: a different reading changes *when* a shard is
    retried, never *what* the shard computes.
    """
    return time.monotonic()


def metrics_enabled_by_default() -> bool:
    """Whether ``REPRO_METRICS`` asks for metrics on runs that don't choose."""
    return os.environ.get("REPRO_METRICS", "0").strip().lower() in (
        "1", "true", "on", "yes",
    )


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; got increment {amount}"
            )
        self.value += amount


class Gauge:
    """A last-value-wins float gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level of the tracked quantity."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram (cumulative-free, one count per bucket).

    ``edges`` are the finite upper bounds; observations land in the first
    bucket whose edge is >= the value, or in the implicit overflow bucket,
    so ``counts`` has ``len(edges) + 1`` entries.  Edges are fixed at
    creation — snapshots of two runs observing the same values are
    identical.
    """

    __slots__ = ("edges", "counts", "total", "sum", "min", "max")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram edges must be non-empty and increasing: {edges}"
            )
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        bucket = len(self.edges)
        for index, edge in enumerate(self.edges):
            if value <= edge:
                bucket = index
                break
        self.counts[bucket] += 1
        self.total += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def to_dict(self) -> dict:
        """JSON-safe snapshot of this histogram."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min if self.total else 0.0,
            "max": self.max if self.total else 0.0,
        }


class PhaseStat:
    """Accumulated wall time and call count of one instrumented phase.

    ``total`` is inclusive time; ``self_total`` excludes the time spent
    in phases timed inside this one, so self times of all phases add up
    to the timed work without counting nested phases twice.
    """

    __slots__ = ("calls", "total", "self_total", "histogram")

    def __init__(self, edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.histogram = Histogram(edges)

    def record(self, elapsed: float, self_s: float) -> None:
        """Fold one completed phase execution into the stat."""
        self.calls += 1
        self.total += elapsed
        self.self_total += self_s
        self.histogram.observe(elapsed)

    def to_dict(self) -> dict:
        """JSON-safe snapshot of this phase."""
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_total,
            "histogram": self.histogram.to_dict(),
        }


class MetricsRegistry:
    """Process-local store of counters, gauges, histograms and phase stats.

    ``clock`` is any zero-argument callable returning seconds; the default
    is :func:`time.perf_counter`.  Tests inject a counting clock to make
    timings — and therefore whole snapshots — deterministic.

    ``events`` may be a :class:`repro.obs.events.JsonlEventLog`; every
    completed phase is then also emitted as a ``phase`` event, which is
    what ``python -m repro.obs report`` aggregates.

    :class:`phase_timer` blocks nest (they never span a generator
    yield), so the registry keeps a stack of the open phases: a phase
    that ends inside another charges its time to that parent, and each
    phase records self time as well as inclusive time.
    """

    #: Instrumented code consults this before touching the clock.
    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 *, events=None) -> None:
        self._clock = clock
        self.events = events
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phases: Dict[str, PhaseStat] = {}
        # Child seconds of each open phase_timer, innermost last.
        self._open: List[float] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        counter.inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: float,
                edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        """Observe ``value`` into histogram ``name``.

        ``edges`` only applies on first use; a histogram's buckets are
        fixed for its lifetime.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges)
        histogram.observe(value)

    def record_phase(self, name: str, elapsed: float,
                     self_s: Optional[float] = None) -> None:
        """Fold one completed timed phase into the per-phase stats.

        ``self_s`` defaults to ``elapsed`` (a phase with no timed
        children).
        """
        if self_s is None:
            self_s = elapsed
        stat = self._phases.get(name)
        if stat is None:
            stat = self._phases[name] = PhaseStat()
        stat.record(elapsed, self_s)
        if self.events is not None:
            self.events.emit("phase", name=name, elapsed_s=elapsed,
                             self_s=self_s)

    def _open_phase(self) -> None:
        """Push the child-time counter of a phase that is starting."""
        self._open.append(0.0)

    def _close_phase(self, name: str, elapsed: float) -> None:
        """Pop the innermost phase, charge it to its parent, record it."""
        children = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        self.record_phase(name, elapsed, elapsed - children)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0.0

    def phase_stats(self) -> Dict[str, PhaseStat]:
        """Live view of the per-phase stats (keyed by phase name)."""
        return self._phases

    def snapshot(self) -> dict:
        """JSON-safe, deterministic (sorted-key) snapshot of everything."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
            "phases": {
                name: self._phases[name].to_dict()
                for name in sorted(self._phases)
            },
        }


class NullRegistry(MetricsRegistry):
    """The disabled registry: every operation is a no-op.

    ``enabled`` is False, so :class:`phase_timer` never reads the clock;
    the remaining methods are overridden to plain ``pass`` so instrumented
    counter bumps cost one dynamic dispatch and nothing else.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Discard the increment (disabled registry)."""

    def set_gauge(self, name: str, value: float) -> None:
        """Discard the gauge update (disabled registry)."""

    def observe(self, name: str, value: float,
                edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        """Discard the observation (disabled registry)."""

    def record_phase(self, name: str, elapsed: float,
                     self_s: Optional[float] = None) -> None:
        """Discard the phase record (disabled registry)."""


#: The process-wide disabled registry (shared; carries no state).
NULL_REGISTRY = NullRegistry()

_ACTIVE: MetricsRegistry = NULL_REGISTRY  # repro: process-local — observability sink; each worker wires its own registry at startup and metrics merge by aggregation, not shared state


def get_registry() -> MetricsRegistry:
    """The registry instrumented code should record into right now."""
    return _ACTIVE


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` (``None`` = disable) and return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_REGISTRY
    return previous


class use_registry:
    """Context manager installing a registry for the duration of a block.

    >>> reg = MetricsRegistry()
    >>> with use_registry(reg):
    ...     instrumented_code()
    """

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        """Install the registry, remembering the previously active one."""
        self._previous = set_registry(self._registry)
        return get_registry()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Restore the previously active registry."""
        set_registry(self._previous)


class phase_timer:
    """Times a named phase into the *active* registry.

    Usable as a context manager::

        with phase_timer("featurize"):
            tensor = build()

    or as a decorator::

        @phase_timer("q_forward")
        def q_values(...): ...

    The active registry is resolved at ``__enter__`` time (not at
    decoration time), so one decorated function records into whatever
    registry each call runs under.  Under the :data:`NULL_REGISTRY` the
    clock is never read.
    """

    __slots__ = ("name", "_registry", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: Optional[MetricsRegistry] = None
        self._start = 0.0

    def __enter__(self) -> "phase_timer":
        """Start timing if the active registry is enabled."""
        registry = _ACTIVE
        if registry.enabled:
            self._registry = registry
            registry._open_phase()
            self._start = registry._clock()
        else:
            self._registry = None
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Record the elapsed time (exceptions still count as a call)."""
        registry = self._registry
        if registry is not None:
            registry._close_phase(self.name, registry._clock() - self._start)
            self._registry = None

    def __call__(self, fn: Callable) -> Callable:
        """Decorator form: time every call of ``fn`` under this phase name."""
        import functools

        name = self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with phase_timer(name):
                return fn(*args, **kwargs)

        return wrapper


class CountingClock:
    """A deterministic clock for tests: each reading advances by ``step``.

    Every ``phase_timer`` enter/exit pair therefore measures exactly
    ``step`` seconds, making timing-bearing snapshots reproducible.
    """

    __slots__ = ("step", "now")

    def __init__(self, step: float = 1.0) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        """Return the current reading and advance the clock."""
        self.now += self.step
        return self.now


def make_registry(events=None,
                  clock: Callable[[], float] = time.perf_counter
                  ) -> MetricsRegistry:
    """Convenience constructor used by the harness (`run_experiment`)."""
    return MetricsRegistry(clock, events=events)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseStat",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "CountingClock",
    "DEFAULT_TIME_EDGES",
    "get_registry",
    "set_registry",
    "use_registry",
    "phase_timer",
    "make_registry",
    "metrics_enabled_by_default",
    "monotonic",
]
