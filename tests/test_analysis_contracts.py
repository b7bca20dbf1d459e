"""Tests for the runtime array contracts (repro.analysis.contracts)."""

import numpy as np
import pytest

from repro.analysis.contracts import (
    ContractViolation,
    contract_registry,
    contracts_active,
    parse_shape,
    prob_simplex,
    row_stochastic,
    shaped,
)
from repro.exceptions import ConfigurationError, ReproError


# ----------------------------------------------------------------------
# shaped
# ----------------------------------------------------------------------
def test_shaped_accepts_matching_shapes():
    """A call whose arrays satisfy the spec passes through untouched."""

    @shaped(answers="(n_objects, n_workers)", result="(n_objects,)")
    def label(answers):
        return np.zeros(answers.shape[0])

    assert label(np.zeros((4, 3))).shape == (4,)


def test_shaped_rejects_wrong_ndim():
    """A 1-D array where the spec demands 2-D raises ContractViolation."""

    @shaped(answers="(n_objects, n_workers)")
    def label(answers):
        return answers

    with pytest.raises(ContractViolation, match="must be 2-D"):
        label(np.zeros(4))


def test_shaped_rejects_transposed_matrix():
    """Symbolic bindings are shared, so a transposed matrix is caught."""

    @shaped(answers="(n_objects, n_workers)", proba="(n_objects, n_classes)")
    def combine(answers, proba):
        return answers.shape

    answers = np.zeros((5, 3))
    combine(answers, np.zeros((5, 2)))  # consistent n_objects: fine
    with pytest.raises(ContractViolation, match="transposed"):
        combine(answers.T, np.zeros((5, 2)))


def test_shaped_result_shares_bindings_with_arguments():
    """The return value is checked against symbols bound by the inputs."""

    @shaped(answers="(n_objects, n_workers)", result="(n_objects,)")
    def label(answers):
        return np.zeros(answers.shape[1])  # wrong axis on purpose

    with pytest.raises(ContractViolation, match="return value"):
        label(np.zeros((4, 3)))


def test_shaped_integer_and_wildcard_tokens():
    """Integer tokens pin exact sizes; ``_`` matches anything."""

    @shaped(vec="(_, 3)")
    def f(vec):
        return vec

    f(np.zeros((7, 3)))
    with pytest.raises(ContractViolation):
        f(np.zeros((7, 4)))


def test_shaped_skips_none_arguments():
    """Optional (None) arguments are not shape-checked."""

    @shaped(features="(n, f)")
    def f(features=None):
        return features

    assert f() is None


def test_shaped_unknown_parameter_is_configuration_error():
    """Decorating with a spec for a missing parameter fails fast."""
    with pytest.raises(ConfigurationError, match="no parameter"):

        @shaped(nope="(n,)")
        def f(x):
            return x


def test_parse_shape_rejects_bad_tokens():
    """Malformed dimension tokens are a configuration error."""
    assert parse_shape("(n_objects, n_workers)") == ("n_objects", "n_workers")
    with pytest.raises(ConfigurationError):
        parse_shape("(n-objects,)")


# ----------------------------------------------------------------------
# row_stochastic / prob_simplex
# ----------------------------------------------------------------------
def test_row_stochastic_accepts_confusion_matrix():
    """A row-stochastic matrix (Eq. 7-8 invariant) passes."""

    @row_stochastic
    def use(matrix):
        return matrix

    use(np.array([[0.9, 0.1], [0.2, 0.8]]))


def test_row_stochastic_rejects_bad_row_sums():
    """Rows not summing to one violate the contract."""

    @row_stochastic
    def use(matrix):
        return matrix

    with pytest.raises(ContractViolation, match="sum to 1"):
        use(np.array([[0.9, 0.3], [0.2, 0.8]]))


def test_row_stochastic_rejects_negative_entries():
    """Negative entries can still sum to one; they must be caught too."""

    @row_stochastic
    def use(matrix):
        return matrix

    with pytest.raises(ContractViolation, match="negative"):
        use(np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_row_stochastic_result_form():
    """``result=True`` checks the return value instead of an argument."""

    @row_stochastic(result=True)
    def normalise(counts):
        return counts / counts.sum(axis=-1, keepdims=True)

    normalise(np.ones((2, 3)))

    @row_stochastic(result=True)
    def broken(counts):
        return counts

    with pytest.raises(ContractViolation):
        broken(np.ones((2, 3)))


def test_prob_simplex_vector_and_stack():
    """Vectors and stacks of vectors both live on the simplex."""

    @prob_simplex
    def use(vec):
        return vec

    use(np.array([0.25, 0.75]))
    use(np.full((4, 2), 0.5))
    with pytest.raises(ContractViolation):
        use(np.array([0.25, 0.5]))


# ----------------------------------------------------------------------
# Toggling and registry
# ----------------------------------------------------------------------
def test_disabled_contracts_return_original_function(monkeypatch):
    """With REPRO_CONTRACTS=0 the decorators are identity: zero overhead."""
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    assert not contracts_active()

    def f(matrix):
        return matrix

    assert shaped(matrix="(n, k)")(f) is f
    assert row_stochastic(f) is f
    assert prob_simplex("matrix")(f) is f
    # And the disabled wrapper really skips the check:
    shaped(matrix="(n, k)")(f)(np.zeros(3))


def test_enabled_flag_overrides_environment(monkeypatch):
    """``enabled=`` beats the environment in both directions."""
    monkeypatch.setenv("REPRO_CONTRACTS", "0")

    @shaped(vec="(3,)", enabled=True)
    def f(vec):
        return vec

    with pytest.raises(ContractViolation):
        f(np.zeros(4))

    monkeypatch.delenv("REPRO_CONTRACTS")

    def g(vec):
        return vec

    assert shaped(vec="(3,)", enabled=False)(g) is g


def test_contracts_active_default_and_spellings(monkeypatch):
    """Unset means active; 0/false/off/no (any case) disable."""
    monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
    assert contracts_active()
    for value in ("0", "false", "OFF", "No"):
        monkeypatch.setenv("REPRO_CONTRACTS", value)
        assert not contracts_active()
    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    assert contracts_active()


def test_registry_records_even_when_disabled(monkeypatch):
    """Inactive applications still appear in the contracts report."""
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    before = len(contract_registry())

    @shaped(vec="(n,)")
    def f(vec):
        return vec

    records = contract_registry()
    assert len(records) == before + 1
    assert records[-1].kind == "shaped"
    assert records[-1].active is False
    assert records[-1].to_dict()["function"].endswith("f")


def test_library_contracts_registered_and_active():
    """The joint-EM and DQN paths carry live contracts by default."""
    import repro.inference.joint  # noqa: F401  (registers on import)
    import repro.rl.dqn  # noqa: F401

    names = {r.qualname for r in contract_registry() if r.active}
    assert "_m_step_confusions" in names
    assert "_e_step_posteriors" in names
    assert any(n.endswith("q_values") for n in names)


def test_violation_is_repro_error():
    """ContractViolation folds into the repo's exception hierarchy."""
    assert issubclass(ContractViolation, ReproError)


def test_contracts_report_cli_json(capsys):
    """``contracts-report --format json`` emits the registry as JSON."""
    import json

    from repro.analysis.cli import main as analysis_main

    assert analysis_main(["contracts-report", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["contracts"]) > 0
    kinds = {c["kind"] for c in payload["contracts"]}
    assert {"shaped", "row_stochastic", "prob_simplex"} <= kinds


def test_library_import_does_not_load_the_analyzer():
    """Importing a contract-carrying module leaves the analyzer unloaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, repro.inference.em\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.analysis.lint', 'repro.analysis.flow'))))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
