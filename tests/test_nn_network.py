"""Tests for repro.nn.network and repro.nn.train."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.nn.optimizers import Adam
from repro.nn.train import train_network


class TestConstruction:
    def test_mlp_layer_count(self):
        net = Network.mlp(4, [8, 8], 2, rng=0)
        # Dense+ReLU per hidden layer, plus the output Dense.
        assert len(net.layers) == 5

    def test_empty_layers_raise(self):
        with pytest.raises(ConfigurationError):
            Network([])

    def test_unknown_activation_raises(self):
        with pytest.raises(ConfigurationError):
            Network.mlp(2, [2], 1, activation="gelu")


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


class TestTraining:
    def test_train_batch_reduces_loss(self):
        rng = np.random.default_rng(0)
        net = Network.mlp(2, [8], 1, rng=rng)
        x = rng.normal(size=(32, 2))
        y = (x.sum(axis=1, keepdims=True) > 0).astype(float)
        loss = MeanSquaredError()
        opt = Adam(0.01)
        first = net.train_batch(x, y, loss, opt)
        for _ in range(100):
            last = net.train_batch(x, y, loss, opt)
        assert last < first

    def test_train_network_learns_xor(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        net = Network.mlp(2, [16], 2, rng=3)
        result = train_network(
            net, x, y, SoftmaxCrossEntropy(), Adam(0.05),
            epochs=300, batch_size=4, rng=0,
        )
        pred = net.forward(x).argmax(axis=1)
        np.testing.assert_array_equal(pred, y)
        assert result.final_loss < 0.1

    def test_early_stopping(self):
        x = np.zeros((8, 2))
        y = np.zeros((8, 1))
        net = Network.mlp(2, [4], 1, rng=0)
        result = train_network(
            net, x, y, MeanSquaredError(), Adam(0.01),
            epochs=500, patience=3, rng=0,
        )
        assert result.stopped_early
        assert result.epochs_run < 500

    def test_loss_history_recorded(self):
        x = np.random.default_rng(0).normal(size=(16, 2))
        y = x[:, :1]
        net = Network.mlp(2, [4], 1, rng=0)
        result = train_network(net, x, y, MeanSquaredError(), Adam(0.01),
                               epochs=5, rng=0)
        assert len(result.loss_history) == 5
        assert result.final_loss == result.loss_history[-1]

    def test_mismatched_lengths_raise(self):
        net = Network.mlp(2, [4], 1, rng=0)
        with pytest.raises(ConfigurationError):
            train_network(net, np.ones((4, 2)), np.ones((3, 1)),
                          MeanSquaredError(), Adam(0.01))

    def test_sample_weights_validated(self):
        net = Network.mlp(2, [4], 1, rng=0)
        with pytest.raises(ConfigurationError):
            train_network(net, np.ones((4, 2)), np.ones((4, 1)),
                          MeanSquaredError(), Adam(0.01),
                          sample_weights=np.ones(5))
