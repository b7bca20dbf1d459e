"""Tests for the CLI and serialization modules."""

import numpy as np
import pytest

from repro.core.result import LabellingOutcome
from repro.exceptions import ConfigurationError
from repro.harness.cli import build_parser, main
from repro.harness.serialization import (
    load_outcome,
    load_policy_weights,
    save_outcome,
    save_policy_weights,
)
from repro.rl.qnetwork import QNetwork


class TestCLI:
    def test_parser_accepts_fig_commands(self):
        parser = build_parser()
        for name in ("fig4", "fig5", "fig6", "fig7", "fig8"):
            args = parser.parse_args([name, "--scale", "0.01"])
            assert args.command == name
            assert args.scale == 0.01

    def test_parser_run_command(self):
        args = build_parser().parse_args(
            ["run", "--framework", "OBA", "--dataset", "S12C"]
        )
        assert args.framework == "OBA"

    def test_run_command_executes(self, capsys):
        code = main([
            "run", "--framework", "OBA", "--dataset", "S12C",
            "--scale", "0.02", "--workers", "2", "--experts", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=" in out
        assert "OBA" in out

    def test_run_serve_reports_the_sync_scores(self, capsys):
        argv = ["run", "--framework", "CrowdRL", "--dataset", "S12CP",
                "--scale", "0.02", "--seed", "1"]
        assert main(argv) == 0
        sync = capsys.readouterr().out
        assert main(argv + ["--serve"]) == 0
        served = capsys.readouterr().out

        def lines(out, prefix):
            return [line for line in out.splitlines()
                    if line.startswith(prefix)]

        assert lines(sync, "serving   :") == []
        assert len(lines(served, "serving   :")) == 1
        assert len(lines(sync, "precision=")) == 1
        assert lines(served, "precision=") == lines(sync, "precision=")

    def test_fig8_command_executes(self, capsys):
        code = main(["fig8", "--scale", "0.015"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CrowdRL" in out and "M3" in out

    def test_unknown_framework_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--framework", "GPT", "--dataset", "S12C"]
            )


class TestOutcomeSerialization:
    def make_outcome(self):
        return LabellingOutcome(
            framework="CrowdRL",
            final_labels=np.array([0, 1, 1]),
            label_sources=np.array([0, 1, 2]),
            spent=12.5,
            budget=100.0,
            iterations=4,
            reward_history=[0.1, -0.2],
            extras={"n_truths": np.int64(3), "qualities": np.array([0.5])},
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "outcome.json"
        outcome = self.make_outcome()
        save_outcome(outcome, path)
        loaded = load_outcome(path)
        np.testing.assert_array_equal(loaded.final_labels, outcome.final_labels)
        np.testing.assert_array_equal(loaded.label_sources,
                                      outcome.label_sources)
        assert loaded.spent == outcome.spent
        assert loaded.reward_history == outcome.reward_history
        assert loaded.extras["n_truths"] == 3

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"framework": "x"}')
        with pytest.raises(ConfigurationError):
            load_outcome(path)


class TestPolicySerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        qnet = QNetwork(5, rng=0)
        path = tmp_path / "policy.npz"
        save_policy_weights(qnet.get_weights(), path)
        loaded = load_policy_weights(path)
        other = QNetwork(5, rng=1)
        other.set_weights(loaded)
        x = np.random.default_rng(2).normal(size=(6, 5))
        np.testing.assert_allclose(qnet.predict(x), other.predict(x))

    def test_layer_structure_preserved(self, tmp_path):
        qnet = QNetwork(4, hidden=(8, 4), rng=0)
        path = tmp_path / "policy.npz"
        weights = qnet.get_weights()
        save_policy_weights(weights, path)
        loaded = load_policy_weights(path)
        assert len(loaded) == len(weights)
        for orig, back in zip(weights, loaded):
            assert set(orig) == set(back)
