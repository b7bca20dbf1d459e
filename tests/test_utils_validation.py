"""Tests for repro.utils.validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_probability_matrix


class TestProbabilityMatrix:
    def test_identity_ok(self):
        m = check_probability_matrix(np.eye(3), "m")
        assert m.shape == (3, 3)

    def test_rows_not_stochastic_raises(self):
        with pytest.raises(ConfigurationError):
            check_probability_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]), "m")

    def test_non_square_raises(self):
        with pytest.raises(ConfigurationError):
            check_probability_matrix(np.ones((2, 3)) / 3, "m")

    def test_negative_entry_raises(self):
        with pytest.raises(ConfigurationError):
            check_probability_matrix(np.array([[1.2, -0.2], [0.5, 0.5]]), "m")


def _elementwise_verdict(mat):
    """``check_probability_matrix`` as ``np.any``/``np.allclose``: the oracle."""
    arr = np.asarray(mat, dtype=float)
    if np.any(arr < -1e-6):
        return "negative"
    if not np.allclose(arr.sum(axis=1), 1.0, atol=1e-4):
        return "sums"
    return None


def _verdict(mat):
    try:
        check_probability_matrix(mat, "m")
    except ConfigurationError as err:
        return "negative" if "negative" in str(err) else "sums"
    return None


def _with_sum(total):
    """A 2 x 2 matrix whose first row sums to ``total``, the second to 1."""
    return np.array([[0.25, total - 0.25], [0.5, 0.5]])


@pytest.mark.parametrize("mat", [
    np.eye(2), np.zeros((0, 0)),
    np.array([[np.nan, 1.0], [0.5, 0.5]]),
    np.array([[np.nan, -1.0], [0.5, 0.5]]),
    np.array([[np.inf, 0.0], [0.5, 0.5]]),
    np.array([[-np.inf, 1.0], [0.5, 0.5]]),
    np.array([[-1e-6, 1.0 + 1e-6], [0.5, 0.5]]),
    np.array([[np.nextafter(-1e-6, -1.0), 1.0 + 1e-6], [0.5, 0.5]]),
    _with_sum(1.0 + 1.1e-4), _with_sum(1.0 - 1.1e-4),
    _with_sum(np.nextafter(1.0 + 1.1e-4, 2.0)),
    _with_sum(np.nextafter(1.0 - 1.1e-4, 0.0)),
    _with_sum(1.0 + 1.2e-4), _with_sum(1.0 - 1.2e-4),
], ids=["identity", "empty", "nan", "nan-and-negative", "+inf", "-inf",
        "negative-at-atol", "negative-past-atol", "sum-1+1.1e-4",
        "sum-1-1.1e-4", "sum-past-1+1.1e-4", "sum-past-1-1.1e-4",
        "sum-1+1.2e-4", "sum-1-1.2e-4"])
def test_reductions_match_the_elementwise_check(mat):
    """``min``/``max`` accept and reject exactly what ``np.any`` and
    ``np.allclose`` did at the tolerance edges, NaN and ±inf included."""
    assert _verdict(mat) == _elementwise_verdict(mat)


@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 1e-6, 1.05e-4, 1.1e-4, 1.2e-4]),
       st.sampled_from([-1, 1]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_reductions_match_on_random_matrices(k, seed, offset, sign, negative):
    """Random row-stochastic matrices with one row pushed near each edge."""
    rng = np.random.default_rng(seed)
    mat = rng.dirichlet(np.ones(k), size=k)
    mat[0, -1] += sign * offset
    if negative:
        mat[-1, 0] -= rng.choice([0.5e-6, 1e-6, 2e-6])
    assert _verdict(mat) == _elementwise_verdict(mat)
