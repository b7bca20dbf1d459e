"""Tests for repro.nn.layers, including numeric gradient checks."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, ReLU


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
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


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=0)
        assert layer.forward(np.ones((5, 4))).shape == (5, 3)

    def test_forward_is_affine(self):
        layer = Dense(2, 2, rng=0)
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_bad_input_width_raises(self):
        layer = Dense(3, 2, rng=0)
        with pytest.raises(ConfigurationError):
            layer.forward(np.ones((2, 4)))

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2, rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_inference_forward_does_not_cache(self):
        layer = Dense(2, 2, rng=0)
        layer.forward(np.ones((1, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float(layer.forward(x, training=True).sum())

        numeric = numeric_grad(loss, layer.weight)
        layer.forward(x, training=True)
        layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(layer.grads["weight"], numeric, atol=1e-5)

    def test_bias_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float(layer.forward(x, training=True).sum())

        numeric = numeric_grad(loss, layer.bias)
        layer.forward(x, training=True)
        layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(layer.grads["bias"], numeric, atol=1e-5)

    def test_input_gradient(self):
        layer = Dense(3, 2, rng=0)
        x = np.random.default_rng(3).normal(size=(2, 3))
        layer.forward(x, training=True)
        grad_in = layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(grad_in, np.ones((2, 2)) @ layer.weight.T)

    def test_backward_overwrites_grads(self):
        layer = Dense(2, 2, rng=0)
        x = np.ones((1, 2))
        layer.forward(x, training=True)
        layer.backward(np.ones((1, 2)))
        first = {name: g.copy() for name, g in layer.grads.items()}
        layer.forward(x, training=True)
        layer.backward(np.ones((1, 2)))
        for name, grad in layer.grads.items():
            np.testing.assert_array_equal(grad, first[name])
        layer.forward(2 * x, training=True)
        layer.backward(np.zeros((1, 2)))
        assert all(np.all(g == 0) for g in layer.grads.values())

    def test_invalid_sizes_raise(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 2)


def test_relu_forward():
    x = np.linspace(-3, 3, 12).reshape(3, 4)
    np.testing.assert_array_equal(ReLU().forward(x.copy()), np.maximum(x, 0))


def test_relu_forward_is_in_place():
    x = np.linspace(-3, 3, 12).reshape(3, 4)
    out = ReLU().forward(x)
    assert out is x
    assert np.all(x >= 0)


def test_relu_gradient_matches_numeric():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    layer = ReLU()
    weights = rng.normal(size=(3, 4))  # random projection to scalar loss

    def loss():
        return float((layer.forward(x.copy(), training=True) * weights).sum())

    numeric = numeric_grad(loss, x)
    layer.forward(x.copy(), training=True)
    analytic = layer.backward(weights)
    np.testing.assert_allclose(analytic, numeric, atol=1e-5)
