"""Tests for repro.nn.network: construction, weights and training."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.losses import HuberLoss
from repro.nn.network import Network
from repro.nn.optimizers import Adam


class TestConstruction:
    def test_mlp_layer_count(self):
        net = Network.mlp(4, [8, 8], 2, rng=0)
        # Dense+ReLU per hidden layer, plus the output Dense.
        assert len(net.layers) == 5

    def test_empty_layers_raise(self):
        with pytest.raises(ConfigurationError):
            Network([])


class TestForward:
    def test_1d_input_promoted(self):
        net = Network.mlp(3, [4], 2, rng=0)
        assert net.forward(np.zeros(3)).shape == (1, 2)

    def test_deterministic(self):
        net = Network.mlp(3, [4], 2, rng=0)
        x = np.ones((2, 3))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))


class TestWeights:
    def test_get_set_roundtrip(self):
        net = Network.mlp(3, [4], 2, rng=0)
        other = Network.mlp(3, [4], 2, rng=1)
        x = np.ones((2, 3))
        assert not np.allclose(net.forward(x), other.forward(x))
        other.set_weights(net.get_weights())
        np.testing.assert_allclose(net.forward(x), other.forward(x))

    def test_get_weights_are_copies(self):
        net = Network.mlp(2, [2], 1, rng=0)
        weights = net.get_weights()
        weights[0]["weight"][...] = 0.0
        assert not np.allclose(net.layers[0].weight, 0.0)

    def test_set_weights_shape_mismatch_raises(self):
        net = Network.mlp(2, [2], 1, rng=0)
        bad = net.get_weights()
        bad[0]["weight"] = np.zeros((5, 5))
        with pytest.raises(ConfigurationError):
            net.set_weights(bad)

    def test_set_weights_wrong_layer_count_raises(self):
        net = Network.mlp(2, [2], 1, rng=0)
        with pytest.raises(ConfigurationError):
            net.set_weights(net.get_weights()[:-1])

    def test_clone_is_independent(self):
        net = Network.mlp(2, [2], 1, rng=0)
        clone = net.clone()
        net.layers[0].weight[...] = 0.0
        assert not np.allclose(clone.layers[0].weight, 0.0)
        np.testing.assert_array_equal(clone.params[4:], net.params[4:])
        clone.params[...] = 1.0
        assert np.all(clone.layers[-1].bias == 1.0)


class TestFlatParameters:
    def test_layer_arrays_are_views_of_the_flat_vectors(self):
        net = Network.mlp(3, [4], 2, rng=0)
        # Layer order, each weight then its bias: 3*4 + 4 + 4*2 + 2.
        assert net.params.shape == net.grads.shape == (26,)
        first, last = net.layers[0], net.layers[-1]
        assert np.shares_memory(first.weight, net.params[:12])
        assert np.shares_memory(last.bias, net.params[24:])
        net.params[24:] = 7.0
        np.testing.assert_array_equal(last.bias, [7.0, 7.0])
        net.forward(np.ones((1, 3)), training=True)
        net.backward(np.ones((1, 2)))
        np.testing.assert_array_equal(net.grads[24:], [1.0, 1.0])
        assert np.shares_memory(first.grads["weight"], net.grads[:12])

    def test_set_weights_writes_through_to_the_flat_vector(self):
        net = Network.mlp(3, [4], 2, rng=0)
        other = Network.mlp(3, [4], 2, rng=1)
        net.set_weights(other.get_weights())
        np.testing.assert_array_equal(net.params, other.params)


class TestTraining:
    def test_backward_skips_the_input_gradient(self, monkeypatch):
        """The first layer writes its gradients without forming the input
        gradient, and every gradient equals the layer-by-layer chain's."""
        net = Network.mlp(3, [4], 2, rng=0)
        x = np.random.default_rng(6).normal(size=(5, 3))
        grad_out = np.random.default_rng(7).normal(size=(5, 2))
        net.forward(x, training=True)
        grad = grad_out
        for layer in reversed(net.layers):
            grad = layer.backward(grad)
        expected = net.grads.copy()
        net.grads[:] = 0.0

        def no_input_gradient(grad_out):
            raise AssertionError("the first layer formed its input gradient")

        monkeypatch.setattr(net.layers[0], "backward", no_input_gradient)
        assert net.backward(grad_out) is None
        np.testing.assert_array_equal(net.grads, expected)

    def test_backprop_matches_numeric_gradient(self):
        """Dense/ReLU backprop of the Huber loss, through every parameter."""
        rng = np.random.default_rng(5)
        net = Network.mlp(3, [5, 4], 2, rng=rng)
        x = rng.normal(size=(6, 3))
        target = rng.normal(scale=2.0, size=(6, 2))
        loss = HuberLoss()
        net.backward(loss.grad(net.forward(x, training=True), target))
        param = net.params
        numeric = np.zeros_like(param)
        for i in range(param.size):
            orig = param[i]
            param[i] = orig + 1e-6
            plus = loss.value(net.forward(x), target)
            param[i] = orig - 1e-6
            minus = loss.value(net.forward(x), target)
            param[i] = orig
            numeric[i] = (plus - minus) / 2e-6
        np.testing.assert_allclose(net.grads, numeric, atol=1e-6)

    def test_train_batch_reduces_loss(self):
        rng = np.random.default_rng(0)
        net = Network.mlp(2, [8], 1, rng=rng)
        x = rng.normal(size=(32, 2))
        y = (x.sum(axis=1, keepdims=True) > 0).astype(float)
        loss = HuberLoss()
        opt = Adam(0.01)
        first = net.train_batch(x, y, loss, opt)
        for _ in range(100):
            last = net.train_batch(x, y, loss, opt)
        assert last < first

    def test_train_batch_learns_xor(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        net = Network.mlp(2, [16], 1, rng=3)
        loss, opt = HuberLoss(), Adam(0.05)
        for _ in range(300):
            last = net.train_batch(x, y, loss, opt)
        np.testing.assert_array_equal(net.forward(x) > 0.5, y > 0.5)
        assert last < 1e-3
