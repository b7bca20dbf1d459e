"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.losses import HuberLoss


def numeric_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = f()
        x[idx] = orig - eps
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestHuber:
    def test_quadratic_inside_delta(self):
        loss = HuberLoss()
        pred, target = np.array([[0.5]]), np.array([[0.0]])
        assert loss.value(pred, target) == pytest.approx(0.125)

    def test_linear_outside_delta(self):
        loss = HuberLoss()
        pred, target = np.array([[3.0]]), np.array([[0.0]])
        assert loss.value(pred, target) == pytest.approx(2.5)

    def test_grad_clipped(self):
        loss = HuberLoss()
        grad = loss.grad(np.array([[10.0]]), np.array([[0.0]]))
        assert grad[0, 0] == pytest.approx(1.0)  # clipped to delta, n=1

    def test_grad_matches_numeric(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(scale=2.0, size=(5, 2))
        target = rng.normal(size=(5, 2))
        loss = HuberLoss()
        numeric = numeric_grad(lambda: loss.value(pred, target), pred)
        np.testing.assert_allclose(loss.grad(pred, target), numeric, atol=1e-4)


    def test_value_and_grad_average_over_rows(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(scale=2.0, size=(4, 3))
        target = rng.normal(size=(4, 3))
        loss = HuberLoss()
        rows = [loss.value(pred[i:i + 1], target[i:i + 1]) for i in range(4)]
        assert loss.value(pred, target) == pytest.approx(np.mean(rows))
        row_grads = [loss.grad(pred[i:i + 1], target[i:i + 1]) for i in range(4)]
        np.testing.assert_allclose(loss.grad(pred, target),
                                   np.vstack(row_grads) / 4)
