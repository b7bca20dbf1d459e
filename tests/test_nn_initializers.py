"""Tests for repro.nn.initializers."""

import numpy as np
import pytest

from repro.nn.initializers import he_init


class TestHe:
    def test_shape(self):
        assert he_init(5, 3, rng=0).shape == (5, 3)

    def test_std_matches_he_formula(self):
        w = he_init(200, 300, rng=0)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 200), rel=0.05)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            he_init(4, 4, rng=3), he_init(4, 4, rng=3)
        )

