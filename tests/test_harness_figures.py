"""Structural smoke tests for the per-figure experiment definitions.

Full figure runs live in benchmarks/; these tests validate structure and
bookkeeping at a tiny scale with cheap frameworks, so the test suite stays
fast.
"""

from dataclasses import replace

import pytest

from repro.harness.experiment import (
    ExperimentSetting,
    clear_pretrained_policies,
    run_experiment,
)
from repro.harness.figures import (
    ALL_DATASETS,
    PANEL_DATASETS,
    SPEECH_DATASETS,
    _annotators_for,
    _dataset_scale,
    fig4,
    fig5,
    fig6,
    fig7,
)

FAST_FRAMEWORKS = ("OBA", "DLTA")
TINY = dict(scale=0.015, n_seeds=1, frameworks=FAST_FRAMEWORKS)


class TestHelpers:
    def test_annotators_for(self):
        assert _annotators_for("S12CP") == (3, 2)
        assert _annotators_for("Fashion") == (2, 1)

    def test_dataset_scale_normalises_fashion(self):
        assert _dataset_scale("S12C", 0.1) == 0.1
        assert _dataset_scale("Fashion", 0.1) < 0.1

    def test_dataset_constants(self):
        assert len(SPEECH_DATASETS) == 6
        assert ALL_DATASETS[-1] == "Fashion"
        assert set(PANEL_DATASETS) <= set(ALL_DATASETS)


class TestFigureStructure:
    def test_fig4_panels(self):
        panels = fig4(datasets=("S12C",), **TINY)
        assert [p.metric for p in panels] == ["precision", "recall", "f1"]
        for panel in panels:
            assert set(panel.series) == set(FAST_FRAMEWORKS)
            assert all(len(v) == 1 for v in panel.series.values())
            assert all(0 <= v[0] <= 1 for v in panel.series.values())

    def test_fig5_panel_per_dataset(self):
        panels = fig5(datasets=("S12C",), ratios=(0.5, 1.0), **TINY)
        assert len(panels) == 1
        assert panels[0].x_values == [0.5, 1.0]
        for series in panels[0].series.values():
            assert len(series) == 2

    def test_fig6_pool_sizes(self):
        panels = fig6(datasets=("S12C",), pool_sizes=(3,), **TINY)
        assert panels[0].x_values == [3]

    def test_fig7_alphas(self):
        panels = fig7(datasets=("S12C",), alphas=(0.05,), **TINY)
        assert panels[0].x_values == [0.05]

    def test_seed_reproducibility(self):
        a = fig4(datasets=("S12C",), seed=5, **TINY)
        b = fig4(datasets=("S12C",), seed=5, **TINY)
        assert a[0].series == b[0].series


class TestPolicyCacheAcrossCells:
    """A figure's cells share one process; the policy cache must not leak.

    Fig. 7 varies alpha and Fig. 8 varies the ablation on the same pool,
    so each cell pretrains a different offline policy.  A cell's RL row
    must come out the same whether another cell warmed the cache first
    or not.
    """

    SETTING = ExperimentSetting("S12CP", scale=0.02, seed=0)

    @staticmethod
    def _crowdrl_summary():
        result = run_experiment("CrowdRL", TestPolicyCacheAcrossCells.SETTING)
        return (result.report.accuracy, result.report.f1,
                result.outcome.spent, result.outcome.iterations)

    @pytest.mark.parametrize("warm_framework, warm_alpha", [
        ("M1", 0.05),        # fig8: another ablation on the same pool
        ("CrowdRL", 0.01),   # fig7: another alpha on the same pool
    ])
    def test_warm_cache_gives_cold_result(self, warm_framework, warm_alpha):
        cold = self._crowdrl_summary()
        clear_pretrained_policies()
        run_experiment(warm_framework,
                       replace(self.SETTING, alpha=warm_alpha))
        assert self._crowdrl_summary() == cold
