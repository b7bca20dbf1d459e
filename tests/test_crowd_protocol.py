"""Tests for the Platform protocol and wrap() composition (repro.crowd)."""

import warnings

import pytest

from repro.crowd.compose import wrap
from repro.crowd.cost import BudgetManager
from repro.crowd.faults import FaultModel, UnreliablePlatform
from repro.crowd.platform import CrowdPlatform
from repro.crowd.protocol import Platform, check_platform
from repro.crowd.resilient import ResiliencePolicy, ResilientCollector
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError

from conftest import build_pool


def make_platform(budget=500.0, seed=7):
    dataset = make_blobs(40, 6, separation=3.0, name="t", rng=seed)
    pool = build_pool(seed=seed)
    return CrowdPlatform(dataset.labels, pool, BudgetManager(budget))


class TestProtocolConformance:
    def test_bare_platform_satisfies_protocol(self):
        assert isinstance(make_platform(), Platform)

    def test_every_wrapper_layer_satisfies_protocol(self):
        chain = wrap(make_platform(), faults=0.1, resilient=True)
        layer = chain
        seen = []
        while True:
            assert isinstance(layer, Platform), type(layer).__name__
            seen.append(type(layer).__name__)
            inner = getattr(layer, "inner", None)
            if inner is None:
                break
            layer = inner
        assert seen == [
            "ResilientCollector", "UnreliablePlatform", "CrowdPlatform",
        ]

    def test_async_adapter_satisfies_protocol(self):
        from repro.serve import AsyncPlatform, LatencyModel, VirtualClock

        platform = make_platform()
        adapter = AsyncPlatform(
            platform,
            latency=LatencyModel(len(platform.pool)),
            clock=VirtualClock(),
        )
        assert isinstance(adapter, Platform)
        check_platform(adapter, context="test")

    def test_check_platform_lists_missing_members(self):
        class NotAPlatform:
            pool = ()

        with pytest.raises(ConfigurationError) as exc_info:
            check_platform(NotAPlatform(), context="unit test")
        message = str(exc_info.value)
        assert "unit test" in message
        assert "ask" in message and "budget" in message

    def test_lazy_export_from_repro(self):
        import repro

        assert repro.Platform is Platform
        assert repro.wrap is wrap
        assert "Platform" in dir(repro) and "wrap" in dir(repro)


class TestWrapComposition:
    def test_no_layers_returns_platform_unchanged(self):
        platform = make_platform()
        assert wrap(platform) is platform

    def test_float_rate_builds_fault_model(self):
        chain = wrap(make_platform(), faults=0.2, resilient=False)
        assert isinstance(chain, UnreliablePlatform)
        assert chain.fault_model.inert is False

    def test_faults_imply_resilience(self):
        chain = wrap(make_platform(), faults=0.2)
        assert isinstance(chain, ResilientCollector)
        assert isinstance(chain.inner, UnreliablePlatform)

    def test_resilient_without_faults(self):
        chain = wrap(make_platform(), resilient=True)
        assert isinstance(chain, ResilientCollector)
        assert isinstance(chain.inner, CrowdPlatform)

    def test_policy_as_resilient_argument(self):
        policy = ResiliencePolicy(max_retries=1)
        chain = wrap(make_platform(), faults=0.1, resilient=policy)
        assert chain.policy is policy

    def test_policy_both_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            wrap(make_platform(), resilient=ResiliencePolicy(),
                 policy=ResiliencePolicy())

    def test_policy_with_resilience_disabled_rejected(self):
        with pytest.raises(ConfigurationError):
            wrap(make_platform(), resilient=False,
                 policy=ResiliencePolicy())

    def test_bool_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            wrap(make_platform(), faults=True)

    def test_non_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            wrap(object())

    def test_wrap_emits_no_deprecation_warnings(self, recwarn):
        wrap(make_platform(), faults=0.3, resilient=True)
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations == []

    def test_seeds_reach_the_layers(self):
        a = wrap(make_platform(seed=3), faults=0.5, fault_seed=11,
                 resilience_seed=12)
        b = wrap(make_platform(seed=3), faults=0.5, fault_seed=11,
                 resilience_seed=12)
        ra = a.ask_batch([(i, [0, 1, 2, 3]) for i in range(10)])
        rb = b.ask_batch([(i, [0, 1, 2, 3]) for i in range(10)])
        assert ra == rb
        assert a.stats == b.stats


class TestDirectConstruction:
    def test_unreliable_platform_is_silent(self):
        platform = make_platform()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            UnreliablePlatform(platform, FaultModel(len(platform.pool)))

    def test_resilient_collector_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ResilientCollector(make_platform(), rng=0)
