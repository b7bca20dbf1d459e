"""Tests for the runtime array contracts (repro.analysis.contracts)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import (
    ContractViolation,
    _check_stochastic,
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
    """Importing a contract-carrying module loads the contracts only,
    not the ``python -m repro.analysis`` front end."""
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
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['repro.analysis', 'repro.analysis.contracts']"


# ----------------------------------------------------------------------
# One reduction per property, positions decided at decoration
# ----------------------------------------------------------------------
def _elementwise_check(value, kind, min_ndim, atol, where, label):
    """The probability checks as ``np.any``/``np.allclose``: the oracle."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim < min_ndim:
        raise ContractViolation(
            f"{where}: {label} must be at least {min_ndim}-D for "
            f"{kind}, got shape {arr.shape}"
        )
    if arr.size == 0:
        return
    if np.any(arr < -atol):
        raise ContractViolation(
            f"{where}: {label} has negative entries (min {arr.min():.6g}); "
            f"not a probability {kind}"
        )
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=max(atol, 1e-8)):
        bad = np.asarray(sums).ravel()
        raise ContractViolation(
            f"{where}: {label} rows must sum to 1 ({kind}); got sums in "
            f"[{bad.min():.6g}, {bad.max():.6g}]"
        )


def _verdict(check, value, kind, min_ndim, atol):
    """``None`` if ``check`` accepts ``value``, else its message."""
    try:
        check(value, kind, min_ndim, atol, "where", "label")
    except ContractViolation as exc:
        return str(exc)
    return None


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-4,
                            -1.0001e-4, 1e-4, 0.5, 1.0])


@st.composite
def _stochastic_inputs(draw):
    """Arrays near the simplex, with NaN, ±inf and tolerance-edge sums."""
    shape = draw(st.sampled_from([(0,), (3,), (0, 2), (2, 0), (4, 2),
                                  (3, 3), (2, 2, 3), (1, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arr = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) \
        if shape[-1] else np.zeros(shape)
    if arr.size and draw(st.booleans()):
        flat = arr.reshape(-1)
        for _ in range(draw(st.integers(1, 3))):
            flat[draw(st.integers(0, flat.size - 1))] = draw(_SPECIAL)
    if arr.size and draw(st.booleans()):
        # Push one row's sum to (or one ulp past) the tolerance edge.
        edge = draw(st.sampled_from([1e-4 + 1e-5, 1e-8 + 1e-5]))
        step = draw(st.sampled_from([-1, 0, 1]))
        target = np.nextafter(1.0 + edge, 2.0 if step > 0 else 0.0) \
            if step else 1.0 + edge
        row = arr.reshape(-1, shape[-1])[0]
        with np.errstate(invalid="ignore"):
            row[-1] += target - row.sum()
    return arr


@given(_stochastic_inputs(), st.sampled_from([1e-4, 1e-9, 0.0]),
       st.sampled_from([("row_stochastic", 2), ("prob_simplex", 1)]))
@settings(max_examples=400, deadline=None)
def test_stochastic_checks_match_the_elementwise_form(arr, atol, contract):
    """``min``/``max`` reductions accept, reject and word exactly as
    ``np.any``/``np.allclose`` did, NaN, ±inf and empty arrays included."""
    kind, min_ndim = contract
    assert _verdict(_check_stochastic, arr, kind, min_ndim, atol) == \
        _verdict(_elementwise_check, arr, kind, min_ndim, atol)


def _edge_sum(direction: float) -> float:
    """The sum furthest from 1 (above or below) that ``atol=1e-4`` allows."""
    tol = 1e-4 + 1e-5
    edge = 1.0 + direction * tol
    while abs(edge - 1.0) > tol:
        edge = np.nextafter(edge, 1.0)
    while abs(np.nextafter(edge, 1.0 + direction) - 1.0) <= tol:
        edge = np.nextafter(edge, 1.0 + direction)
    return float(edge)


@pytest.mark.parametrize("values", [
    [0.5, 0.5], [np.nan, 1.0], [np.nan, -1.0], [-np.inf, 1.0],
    [np.inf, 0.0], [_edge_sum(1), 0.0],
    [np.nextafter(_edge_sum(1), 2.0), 0.0], [_edge_sum(-1), 0.0],
    [np.nextafter(_edge_sum(-1), 0.0), 0.0], [-1e-4, 1.0 + 1e-4],
    [-2e-4, 1.0 + 2e-4], [],
], ids=["simplex", "nan", "nan-and-negative", "-inf", "+inf",
        "sum-at-upper-edge", "sum-past-upper-edge", "sum-at-lower-edge",
        "sum-past-lower-edge", "negative-at-atol", "negative-past-atol",
        "empty"])
def test_stochastic_edge_cases_match_the_elementwise_form(values):
    """The named edge cases, through the decorated wrapper too."""
    arr = np.array(values)

    @prob_simplex(enabled=True)
    def use(vec):
        return vec

    expected = _verdict(_elementwise_check, arr, "prob_simplex", 1, 1e-4)
    assert _verdict(_check_stochastic, arr, "prob_simplex", 1, 1e-4) \
        == expected
    if expected is None:
        use(arr)
    else:
        where = f"{use.__module__}.{use.__qualname__}"
        with pytest.raises(ContractViolation) as info:
            use(arr)
        assert str(info.value) == expected.replace("where", where, 1) \
            .replace("label", "argument 'vec'", 1)


def test_violation_messages_are_unchanged():
    """The wording that reports and logs match on stays as it was."""

    @shaped(a="(n, k)", b="(n,)", result="(k,)", enabled=True)
    def f(a, b=None):
        return np.zeros(a.shape[0])

    where = f"{f.__module__}.{f.__qualname__}"
    cases = [
        (lambda: f(np.zeros(3)),
         f"{where}: argument 'a' must be 2-D (n, k), got shape (3,)"),
        (lambda: f(np.zeros((2, 3)), np.zeros(4)),
         f"{where}: argument 'b' binds n=4 but n=2 elsewhere in the call "
         f"(shape (4,)); is the array transposed?"),
        (lambda: f(np.zeros((2, 3))),
         f"{where}: return value binds k=2 but k=3 elsewhere in the call "
         f"(shape (2,)); is the array transposed?"),
    ]

    @row_stochastic(enabled=True)
    def g(matrix):
        return matrix

    where_g = f"{g.__module__}.{g.__qualname__}"
    cases += [
        (lambda: g(np.array([[1.2, -0.2]])),
         f"{where_g}: argument 'matrix' has negative entries (min -0.2); "
         f"not a probability row_stochastic"),
        (lambda: g(np.array([[0.9, 0.3], [0.5, 0.5]])),
         f"{where_g}: argument 'matrix' rows must sum to 1 "
         f"(row_stochastic); got sums in [1, 1.2]"),
        (lambda: g(np.ones(2)),
         f"{where_g}: argument 'matrix' must be at least 2-D for "
         f"row_stochastic, got shape (2,)"),
    ]
    for call, message in cases:
        with pytest.raises(ContractViolation) as info:
            call()
        assert str(info.value) == message


def test_checked_arguments_found_in_every_call_form():
    """Positional, keyword, omitted-default and ``None`` arguments."""
    seen = []

    @shaped(a="(n,)", b="(n,)", c="(n,)", enabled=True)
    def f(a, b=None, *, c=None):
        seen.append((a, b, c))
        return a

    one, two = np.zeros(2), np.zeros(3)
    f(one)                      # b and c omitted: unchecked
    f(one, None, c=None)        # None: unchecked
    f(one, one, c=one)
    f(a=one, b=one)
    with pytest.raises(ContractViolation, match="argument 'b'"):
        f(one, two)             # positional
    with pytest.raises(ContractViolation, match="argument 'b'"):
        f(one, b=two)           # keyword
    with pytest.raises(ContractViolation, match="argument 'c'"):
        f(one, c=two)           # keyword-only
    with pytest.raises(ContractViolation, match="argument 'a'"):
        f(b=one, a=two[None])   # keyword, out of order
    assert len(seen) == 4

    @prob_simplex("vec", enabled=True)
    def g(x, vec=np.array([0.5, 0.5]), /):
        return vec

    g(None)                     # omitted default: unchecked
    with pytest.raises(ContractViolation, match="argument 'vec'"):
        g(None, np.array([0.5, 0.6]))
    with pytest.raises(ContractViolation, match="at least 1-D"):
        g(None, None)           # an explicit None is checked


def test_checked_arguments_found_on_methods():
    """``self`` shifts positions; instance, class and keyword calls agree."""

    class Model:
        @shaped(x="(n, f)", result="(n,)", enabled=True)
        def score(self, x, scale=1.0):
            return x.sum(axis=1) * scale

        @row_stochastic(enabled=True)
        def use(self, matrix):
            return matrix

    model = Model()
    assert model.score(np.ones((2, 3))).shape == (2,)
    assert Model.score(model, x=np.ones((2, 3))).shape == (2,)
    with pytest.raises(ContractViolation, match="argument 'x'"):
        model.score(np.ones(3))
    model.use(np.eye(2))
    with pytest.raises(ContractViolation, match="argument 'matrix'"):
        model.use(matrix=np.ones((2, 2)))


def test_enabled_wrappers_do_not_bind_per_call(monkeypatch):
    """Positions are decided at decoration; a call never binds."""
    import inspect

    from repro.inference.em import (
        _AnswerIndex,
        _e_step_posteriors,
        _m_step_confusions,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("bind_partial called per call")

    @shaped(a="(n, k)", result="(n,)", enabled=True)
    @row_stochastic("a", enabled=True)
    def f(a):
        return a.sum(axis=1)

    monkeypatch.setattr(inspect.Signature, "bind_partial", refuse)
    monkeypatch.setattr(inspect.Signature, "bind", refuse)
    f(np.full((2, 2), 0.5))
    f(a=np.full((2, 2), 0.5))
    index = _AnswerIndex({0: {0: 1}, 1: {0: 0, 1: 1}}, 2, 2)
    confusions = _m_step_confusions(index.soft_counts(index.vote_shares(),
                                                      0.1))
    _e_step_posteriors(index, np.full(2, 0.5), np.zeros((2, 2)), confusions)


@pytest.mark.parametrize("signature", ["*args", "**kwargs"])
def test_variadic_signatures_rejected_at_decoration(signature):
    """Without a fixed parameter list no position can be decided."""
    namespace = {}
    exec(f"def f(a, {signature}):\n    return a\n", namespace)
    for decorate in (shaped(a="(n,)"), row_stochastic("a"),
                     prob_simplex("a", enabled=False)):
        with pytest.raises(ConfigurationError, match="fixed parameter"):
            decorate(namespace["f"])
