"""Toggleable runtime array contracts for hot numerical paths.

The decorators assert the paper's array invariants at function boundaries:

* :func:`shaped` — dimension counts and symbolic dimension consistency
  (``@shaped(answers="(n_objects, n_workers)")``; the same symbol must
  bind to the same size across every checked argument and the result);
* :func:`row_stochastic` — last-axis sums equal one with non-negative
  entries, the Eq. 7-8 confusion-matrix invariant;
* :func:`prob_simplex` — a probability vector (or stack of vectors).

Activation is decided **once, at decoration time**, from the
``REPRO_CONTRACTS`` environment variable (default: active; set
``REPRO_CONTRACTS=0`` before importing ``repro`` to disable).  When
inactive a decorator returns the function object unchanged, so disabled
contracts are literal zero-overhead pass-throughs and benchmarks are
unaffected.  An active wrapper finds each checked argument at a position
fixed at decoration (no per-call signature binding) and checks each
property with one numpy reduction: a shape walk, ``min`` for the sign,
one ``max`` of ``|row sums - 1|``.  Every application is recorded in a registry either way, which
``python -m repro.analysis contracts-report`` renders.

Violations raise :class:`ContractViolation` (a :class:`repro.exceptions.ReproError`).
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, ReproError

_ATOL = 1e-4
_DIM_TOKEN = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_]*|\d+)$")


class ContractViolation(ReproError):
    """A runtime array contract was violated at a function boundary."""


@dataclass(frozen=True)
class ContractRecord:
    """One decorator application, as listed by ``contracts-report``."""

    module: str
    qualname: str
    kind: str
    detail: str
    active: bool

    def to_dict(self) -> dict:
        """JSON-serialisable representation for the report CLI."""
        return {
            "module": self.module,
            "function": self.qualname,
            "kind": self.kind,
            "detail": self.detail,
            "active": self.active,
        }


_REGISTRY: List[ContractRecord] = []  # repro: process-local — append-only decoration registry rebuilt identically by import in every process


def contracts_active() -> bool:
    """Whether contracts are enabled (``REPRO_CONTRACTS`` unset / not 0)."""
    return os.environ.get("REPRO_CONTRACTS", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def contract_registry() -> Tuple[ContractRecord, ...]:
    """Every contract applied so far, in application order."""
    return tuple(_REGISTRY)


def _register(fn: Callable, kind: str, detail: str, active: bool) -> None:
    _REGISTRY.append(
        ContractRecord(
            module=getattr(fn, "__module__", "?") or "?",
            qualname=getattr(fn, "__qualname__", fn.__name__),
            kind=kind,
            detail=detail,
            active=active,
        )
    )


# ----------------------------------------------------------------------
# Shape specs
# ----------------------------------------------------------------------
def parse_shape(spec: str) -> Tuple[str, ...]:
    """Parse ``"(n_objects, n_workers)"`` into dimension tokens.

    Tokens are symbolic names (bound consistently within one call),
    integer literals (exact sizes) or ``_`` (wildcard).
    """
    text = spec.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    tokens = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for token in tokens:
        if not _DIM_TOKEN.match(token):
            raise ConfigurationError(f"bad dimension token {token!r} in {spec!r}")
    return tokens


def _check_shape(value, dims: Tuple[str, ...], bindings: Dict[str, int],
                 where: str, label: str) -> None:
    arr = np.asarray(value)
    if arr.ndim != len(dims):
        raise ContractViolation(
            f"{where}: {label} must be {len(dims)}-D "
            f"({', '.join(dims)}), got shape {arr.shape}"
        )
    for token, actual in zip(dims, arr.shape):
        if token == "_":
            continue
        if token.isdigit():
            if actual != int(token):
                raise ContractViolation(
                    f"{where}: {label} dimension {token} expected, got "
                    f"{actual} (shape {arr.shape})"
                )
            continue
        bound = bindings.setdefault(token, actual)
        if bound != actual:
            raise ContractViolation(
                f"{where}: {label} binds {token}={actual} but {token}="
                f"{bound} elsewhere in the call (shape {arr.shape}); "
                f"is the array transposed?"
            )


def _first_checkable_param(sig: inspect.Signature) -> str:
    for name in sig.parameters:
        if name not in ("self", "cls"):
            return name
    raise ConfigurationError("function has no parameter to apply a contract to")


#: Marks a checked parameter the call left to its default.
_OMITTED = object()


def _locate(fn: Callable, sig: inspect.Signature,
            name: str) -> Tuple[Optional[int], Optional[str]]:
    """Where a call passes parameter ``name``: ``(position, keyword)``.

    ``position`` indexes ``*args`` (``None`` for keyword-only parameters),
    ``keyword`` keys ``**kwargs`` (``None`` for positional-only ones).
    Decided once, at decoration, so a call reads its checked arguments
    straight from ``args``/``kwargs`` instead of binding the signature.
    """
    params = list(sig.parameters.values())
    for param in params:
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            stars = "*" if param.kind is param.VAR_POSITIONAL else "**"
            raise ConfigurationError(
                f"{_where(fn)} takes {stars}{param.name}; a contract "
                f"needs a fixed parameter list to find {name!r}"
            )
    if name not in sig.parameters:
        raise ConfigurationError(
            f"{_where(fn)} has no parameter {name!r} to check"
        )
    param = sig.parameters[name]
    position = None if param.kind is param.KEYWORD_ONLY else params.index(param)
    keyword = None if param.kind is param.POSITIONAL_ONLY else name
    return position, keyword


def _argument(args: tuple, kwargs: dict, position: Optional[int],
              keyword: Optional[str]):
    """The value a call passed for a located parameter, or ``_OMITTED``."""
    if keyword is not None and keyword in kwargs:
        return kwargs[keyword]
    if position is not None and position < len(args):
        return args[position]
    return _OMITTED


def _where(fn: Callable) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', fn.__name__)}"


# ----------------------------------------------------------------------
# Decorators
# ----------------------------------------------------------------------
def shaped(spec: Optional[str] = None, *, result: Optional[str] = None,
           enabled: Optional[bool] = None, **param_specs: str) -> Callable:
    """Assert array shapes of named parameters (and optionally the result).

    ``@shaped("(n, k)")`` checks the first parameter; keyword form checks
    several at once with a shared symbol table, e.g.
    ``@shaped(features="(n, f)", result="(n,)")``.
    """
    active = contracts_active() if enabled is None else bool(enabled)

    def decorate(fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        specs = dict(param_specs)
        if spec is not None:
            specs.setdefault(_first_checkable_param(sig), spec)
        located = {name: _locate(fn, sig, name) for name in specs}
        detail_parts = [f"{name}={shape}" for name, shape in specs.items()]
        if result is not None:
            detail_parts.append(f"result={result}")
        _register(fn, "shaped", ", ".join(detail_parts), active)
        if not active:
            return fn

        checks = [
            (*located[name], parse_shape(shape), f"argument '{name}'")
            for name, shape in specs.items()
        ]
        result_dims = parse_shape(result) if result is not None else None
        where = _where(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bindings: Dict[str, int] = {}
            for position, keyword, dims, label in checks:
                value = _argument(args, kwargs, position, keyword)
                if value is not _OMITTED and value is not None:
                    _check_shape(value, dims, bindings, where, label)
            out = fn(*args, **kwargs)
            if result_dims is not None and out is not None:
                _check_shape(out, result_dims, bindings, where, "return value")
            return out

        return wrapper

    return decorate


def _stochastic_decorator(kind: str, min_ndim: int) -> Callable:
    """Factory for the two probability contracts (shared machinery)."""

    def contract(param: Union[Callable, str, None] = None, *,
                 result: bool = False, atol: float = _ATOL,
                 enabled: Optional[bool] = None) -> Callable:
        # Support bare application: @row_stochastic \n def f(matrix): ...
        if callable(param) and not isinstance(param, str):
            return contract()(param)
        active = contracts_active() if enabled is None else bool(enabled)

        def decorate(fn: Callable) -> Callable:
            sig = inspect.signature(fn)
            target = None if result else (param or _first_checkable_param(sig))
            if target is not None:
                position, keyword = _locate(fn, sig, target)
            detail = "result" if result else f"argument '{target}'"
            _register(fn, kind, detail, active)
            if not active:
                return fn
            where = _where(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if target is not None:
                    value = _argument(args, kwargs, position, keyword)
                    if value is not _OMITTED:
                        _check_stochastic(value, kind, min_ndim, atol,
                                          where, f"argument '{target}'")
                out = fn(*args, **kwargs)
                if result:
                    _check_stochastic(out, kind, min_ndim, atol, where,
                                      "return value")
                return out

            return wrapper

        return decorate

    return contract


def _check_stochastic(value, kind: str, min_ndim: int, atol: float,
                      where: str, label: str) -> None:
    arr = np.asarray(value, dtype=float)
    if arr.ndim < min_ndim:
        raise ContractViolation(
            f"{where}: {label} must be at least {min_ndim}-D for "
            f"{kind}, got shape {arr.shape}"
        )
    if arr.size == 0:
        return
    # One reduction per property.  ``min`` is NaN when any entry is, and
    # NaN compares false, so only then is the elementwise test needed
    # (NaN beside a negative entry is still reported as negative).
    low = arr.min()
    if low < -atol or (low != low and np.any(arr < -atol)):
        raise ContractViolation(
            f"{where}: {label} has negative entries (min {low:.6g}); "
            f"not a probability {kind}"
        )
    # ``np.allclose(sums, 1, atol=a)``'s test, |sums - 1| <= a + 1e-5 * 1,
    # as one max; a NaN or infinite sum fails it.
    sums = arr.sum(axis=-1)
    if not np.abs(sums - 1.0).max() <= max(atol, 1e-8) + 1e-5:
        bad = np.asarray(sums).ravel()
        raise ContractViolation(
            f"{where}: {label} rows must sum to 1 ({kind}); got sums in "
            f"[{bad.min():.6g}, {bad.max():.6g}]"
        )


#: Eq. 7-8 invariant: every row of a confusion matrix (or a stack of
#: confusion matrices) is a probability distribution over answers.
row_stochastic = _stochastic_decorator("row_stochastic", min_ndim=2)
row_stochastic.__doc__ = """Assert that an argument (or the result) is row-stochastic.

The Eq. 7-8 invariant: every row of a confusion matrix, or of each
matrix in a stack, is a probability distribution over answers.  Applied
bare (``@row_stochastic``) it checks the first array-like parameter;
``@row_stochastic("name")`` names the parameter and
``@row_stochastic(result=True)`` checks the return value instead.  The
input must be at least 2-D, non-negative, with rows summing to 1 within
``atol``; a violation raises :class:`ContractViolation`.  ``enabled``
overrides ``REPRO_CONTRACTS`` for this one decoration.
"""

#: A probability vector — or, for >=2-D input, a stack of vectors whose
#: last axis lies on the simplex (e.g. per-object posteriors).
prob_simplex = _stochastic_decorator("prob_simplex", min_ndim=1)
prob_simplex.__doc__ = """Assert that an argument (or the result) lies on the simplex.

A probability vector, or for input of 2 or more dimensions a stack of
vectors whose last axis is a distribution (per-object posteriors, for
instance): non-negative entries summing to 1 within ``atol``.  The
calling forms and ``enabled`` are those of :func:`row_stochastic`; a
violation raises :class:`ContractViolation`.
"""
