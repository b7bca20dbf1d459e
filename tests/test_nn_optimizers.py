"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.optimizers import Adam


def quadratic_descend(optimizer, steps=200, start=5.0):
    """Minimise f(x) = x^2 with the given optimizer; return final |x|."""
    x = np.array([start])
    for _ in range(steps):
        grad = 2 * x
        optimizer.step([(x, grad)])
    return abs(float(x[0]))


class TestAdam:
    def test_descends_quadratic(self):
        assert quadratic_descend(Adam(learning_rate=0.1), steps=500) < 1e-3

    def test_first_step_magnitude_near_lr(self):
        # With bias correction, Adam's first step is ~learning_rate.
        x = np.array([1.0])
        Adam(learning_rate=0.1).step([(x, np.array([0.5]))])
        assert x[0] == pytest.approx(0.9, abs=1e-6)

    def test_invalid_lr_raises(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0)

    def test_layout_change_raises(self):
        opt = Adam()
        opt.step([(np.zeros(2), np.ones(2)), (np.zeros((2, 3)), np.ones((2, 3)))])
        with pytest.raises(ConfigurationError):
            opt.step([(np.zeros(2), np.ones(2))])
        with pytest.raises(ConfigurationError):
            opt.step([(np.zeros(2), np.ones(2)), (np.zeros((3, 2)), np.ones((3, 2)))])


def test_fused_adam_matches_the_per_parameter_formula_bit_for_bit():
    """50 Q-network training steps through the fused Adam equal, bit for
    bit, the same steps with Adam written out one parameter at a time."""
    from repro.nn.losses import HuberLoss
    from repro.rl.qnetwork import QNetwork

    fused = QNetwork(13, hidden=(64, 32), learning_rate=1e-3, rng=3)
    reference = QNetwork(13, hidden=(64, 32), learning_rate=1e-3, rng=3)
    net, loss = reference.online, HuberLoss()
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
    moments = [(np.zeros_like(p), np.zeros_like(p))
               for p, _ in net.params_and_grads()]
    rng = np.random.default_rng(0)
    for t in range(1, 51):
        x, y = rng.normal(size=(8, 13)), rng.normal(size=8)
        fused.train_on_targets(x, y)
        net.zero_grads()
        pred = net.forward(x, training=True)
        net.backward(loss.grad(pred, y.reshape(-1, 1)))
        for (param, grad), (m, v) in zip(net.params_and_grads(), moments):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad ** 2
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    for got, want in zip(fused.get_weights(), reference.get_weights()):
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
