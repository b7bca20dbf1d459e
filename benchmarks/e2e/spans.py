"""Per-layer span tracing, done from outside the program.

:class:`Tracer` wraps public methods of the repository's layers at class
level, so every call becomes a span on an in-memory stack.  A span's self
time is its duration minus the time its child spans covered; the root
span (:meth:`Tracer.root`) is the unit the benchmark times, so its self
time is the time spent in no wrapped layer.  Every span opened inside a
root closes inside it, so the self times of all spans add up to the
roots' wall time exactly; :meth:`Tracer.reconcile_error` checks that.

Nothing in ``src/`` is edited: :meth:`Tracer.install` swaps the class
attributes and :meth:`Tracer.uninstall` puts the originals back, so the
untraced units of a run execute the unmodified code.  Tracing inside the
program itself is separate, later work.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from repro.classifiers.base import Classifier
from repro.core.agent import Agent
from repro.core.environment import Environment
from repro.core.featurizer import StateFeaturizer
from repro.core.framework import CrowdRL, LabellingFramework
from repro.crowd.platform import CrowdPlatform
from repro.crowd.pool import AnnotatorPool
from repro.datasets import registry as dataset_registry
from repro.harness import experiment
from repro.inference.base import TruthInference
from repro.inference.joint import JointInference
from repro.inference.pm import PMInference
from repro.rl.dqn import DQNAgent
from repro.serve.clock import VirtualClock
from repro.serve.platform import AsyncPlatform
from repro.serve.session import LabellingSession

#: Name of the root span around each timed unit.
ROOT = "harness"


def _subclasses(base: type) -> list:
    """Every subclass of ``base`` defined so far, in a stable order."""
    found, frontier = [], [base]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            if cls not in found:
                found.append(cls)
                frontier.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def _inference_span(cls: type) -> str:
    if issubclass(cls, JointInference):
        return "inference.joint"
    if issubclass(cls, PMInference):
        return "inference.pm"
    return "inference.other"


class Tracer:
    """In-memory span stack over the repository's public layer methods."""

    def __init__(self) -> None:
        #: Self seconds and call count per span name.
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        #: Work counters recorded at the same boundaries as the spans.
        self.counts: dict = defaultdict(float)
        #: Wall seconds of every root span, by root name.
        self.root_s: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------------
    def _close(self, name: str, elapsed: float) -> None:
        child = self._stack.pop()
        self.self_s[name] += elapsed - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += elapsed

    @contextlib.contextmanager
    def root(self, name: str = ROOT):
        """Open a root span: the unit whose wall time the layers divide."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.root_s[name] += elapsed
            self._close(name, elapsed)

    def _wrap(self, original, name: str, after=None, before=None):
        stack, close = self._stack, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                close(name, perf_counter() - start)
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **hooks))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced layer boundary (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts, calls = self.counts, self.calls

        def count(key, measure):
            def after(args, result, _token):
                counts[key] += measure(args, result)
            return after

        def inferred(_args, result, _token):
            counts["inference.em_sweeps"] += result.iterations
            counts["inference.em_converged"] += int(result.converged)

        def advanced(args, _result, submits_before):
            session = args[0]
            if calls["serve.submit_batch"] > submits_before or session.done:
                counts["serve.advances"] += 1

        boundaries = (
            (Environment, "infer_truths", "core.infer_truths", {}),
            (Environment, "train_and_enrich", "core.enrich",
             {"after": count("core.enrich.labels", lambda a, r: len(r))}),
            (Environment, "classifier_proba", "core.classifier_proba", {}),
            (Agent, "act", "core.act", {}),
            (Agent, "remember_iteration", "core.remember", {}),
            (Agent, "train", "core.train", {}),
            (StateFeaturizer, "features", "core.featurize", {}),
            (DQNAgent, "train", "rl.train",
             {"after": count("rl.train_steps", lambda a, r: len(r))}),
            (DQNAgent, "q_values", "rl.q_values", {}),
            (CrowdPlatform, "ask_batch", "crowd.ask_batch", {}),
            (CrowdPlatform, "ask", "crowd.ask",
             {"after": count("crowd.answers", lambda a, r: 1)}),
            (AnnotatorPool, "set_estimate", "crowd.estimates", {}),
            (AnnotatorPool, "update_estimates", "crowd.estimates", {}),
            (LabellingSession, "deliver", "serve.deliver",
             {"before": lambda a: calls["serve.submit_batch"],
              "after": advanced}),
            (LabellingSession, "start", "serve.start", {}),
            (AsyncPlatform, "submit_batch", "serve.submit_batch", {}),
            (VirtualClock, "pop", "serve.clock_pop", {}),
        )
        for owner, attr, name, hooks in boundaries:
            self._patch(owner, attr, name, **hooks)
        for cls in _subclasses(TruthInference):
            if "infer" in cls.__dict__:
                self._patch(cls, "infer", _inference_span(cls), after=inferred)
        for cls in _subclasses(Classifier):
            if "fit_soft" in cls.__dict__:
                self._patch(cls, "fit_soft", "classifiers.fit_soft",
                            after=count("classifiers.fit_rows",
                                        lambda a, r: len(a[1])))
            if "predict_proba" in cls.__dict__:
                self._patch(cls, "predict_proba", "classifiers.predict_proba")
        for cls in _subclasses(LabellingFramework):
            if "run" in cls.__dict__ and not issubclass(cls, CrowdRL):
                self._patch(cls, "run", "baselines.run")
        # Module-level function: patch it where callers look it up.
        for module in (dataset_registry, experiment):
            self._patch(module, "load_dataset", "datasets.load")

    def uninstall(self) -> None:
        """Restore every original attribute, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    def reconcile_error(self) -> float:
        """``|Σ self − Σ root wall| / Σ root wall`` over every span (0 = exact)."""
        wall = sum(self.root_s.values())
        if wall <= 0.0:
            return 0.0
        return abs(sum(self.self_s.values()) - wall) / wall

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every span named ``<layer>.*``."""
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))
