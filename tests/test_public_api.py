"""Quality gates on the public API: exports resolve, docstrings exist.

These tests enforce the documentation contract: every module under
``repro`` has a module docstring, every name in an ``__all__`` resolves
and carries a docstring, and the top-level convenience surface stays
intact.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
]


def test_modules_discovered():
    assert len(MODULES) > 30


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", [
    "repro", "repro.nn", "repro.rl", "repro.core", "repro.crowd",
    "repro.inference", "repro.classifiers", "repro.datasets",
    "repro.metrics", "repro.active", "repro.baselines", "repro.harness",
    "repro.utils", "repro.serve", "repro.obs", "repro.analysis",
])
def test_all_exports_resolve_and_are_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} exports nothing"
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{module_name}.{name} undocumented"


def test_public_classes_have_documented_public_methods():
    from repro.core.framework import CrowdRL, LabellingFramework
    from repro.crowd.platform import CrowdPlatform
    from repro.inference.base import TruthInference

    for cls in (CrowdRL, LabellingFramework, CrowdPlatform, TruthInference):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


def test_top_level_surface():
    expected = {
        "CrowdRL", "CrowdRLConfig", "LabellingFramework", "LabellingOutcome",
        "LabelSource", "CrowdPlatform", "AnnotatorPool", "BudgetManager",
        "CostModel", "LabelledDataset", "load_dataset", "DATASET_NAMES",
        "ClassificationReport", "evaluate_labels", "make_platform",
    }
    assert expected <= set(repro.__all__)


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


class TestTopLevelSurface:
    def test_public_api_exports(self):
        for name in ("CrowdRL", "CrowdRLConfig", "run_experiment",
                     "ExperimentSpec", "ExperimentSetting", "TruthInference"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_lazy_harness_exports_resolve(self):
        from repro.harness.experiment import ExperimentSpec, run_experiment

        assert repro.run_experiment is run_experiment
        assert repro.ExperimentSpec is ExperimentSpec
        assert "run_experiment" in dir(repro)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name
