"""Smoke tests: every example script runs end to end.

Each example is executed verbatim, so a README user's first contact never
breaks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = [
    "quickstart",
    "medical_triage",
    "truth_inference_comparison",
    "run_trace_analysis",
    "robust_labelling",
    "speech_assessment",
    "budget_planning",
]


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a meaningful report


def test_all_examples_exist_and_have_main():
    scripts = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))
    assert "quickstart" in scripts
    assert len(scripts) >= 5
    for name in scripts:
        module = load_example(name)
        assert callable(getattr(module, "main", None)), name
        assert module.__doc__, f"{name} lacks a docstring"
