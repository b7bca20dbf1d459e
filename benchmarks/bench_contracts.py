"""Contract-overhead micro-benchmarks.

Not a paper figure — these pin the cost model of
:mod:`repro.analysis.contracts`: an *enabled* ``@shaped``/``@row_stochastic``
wrapper reads each checked argument from a position decided at decoration
(no per-call signature bind) and pays one numpy reduction per checked
property — a shape walk, then ``min`` for the sign and one ``max`` over
``|row sums - 1|`` — while a *disabled* decorator (``REPRO_CONTRACTS=0``
or ``enabled=False``) returns the original function object, so the
disabled path must benchmark identically to the undecorated function
(the acceptance bar is a delta under 2%, and identity gives exactly 0%).

Run as a smoke pass (CI's ``bench-smoke`` job)::

    python -m pytest benchmarks/bench_contracts.py --benchmark-disable -q
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.contracts import row_stochastic, shaped


def _em_style_kernel(counts: np.ndarray) -> np.ndarray:
    return counts / counts.sum(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def counts():
    rng = np.random.default_rng(7)
    return rng.random((50, 4, 4)) + 0.1


def test_bench_kernel_undecorated(benchmark, counts):
    """Baseline: the raw normalisation kernel."""
    benchmark(_em_style_kernel, counts)


def test_bench_kernel_contracts_disabled(benchmark, counts):
    """Disabled contracts are the same function object as the baseline."""
    fn = shaped(counts="(n_annotators, n_classes, n_classes)",
                enabled=False)(_em_style_kernel)
    assert fn is _em_style_kernel  # identity, not a pass-through wrapper
    benchmark(fn, counts)


def test_bench_kernel_contracts_enabled(benchmark, counts):
    """Enabled contracts: argument lookup + shape walk + stochasticity check."""
    fn = shaped(counts="(n_annotators, n_classes, n_classes)",
                enabled=True)(
        row_stochastic(result=True, enabled=True)(_em_style_kernel)
    )
    benchmark(fn, counts)
