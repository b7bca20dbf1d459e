"""Tests for repro.utils.validation."""

import numpy as np
import pytest

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
