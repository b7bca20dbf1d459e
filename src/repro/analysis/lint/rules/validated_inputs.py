"""REPRO003: public inference/rl/core functions must validate array inputs.

The EM-style joint inference (Eqs. 7-8) and the DQN paths consume arrays
whose invariants the type system cannot express: the ``|O| x |W|`` answer
matrix, row-stochastic confusion matrices, finite Q-vectors.  A shape or
probability drift here produces plausible-but-wrong labels rather than a
crash, so every *public entry point* into those packages that accepts an
array-like contract-bearing argument must show evidence of validation:
a ``check_*`` call (:mod:`repro.utils.validation`), a ``_validate*``
helper, an explicit ``raise``, or a :mod:`repro.analysis.contracts`
decorator.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.lint.engine import Finding

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import ModuleInfo
from repro.analysis.lint.rules._ast_utils import (
    all_parameters,
    annotation_text,
    decorator_name,
    is_public,
    iter_functions,
)

#: Packages whose public API carries array contracts.
_SCOPED_PACKAGES = ("inference", "rl", "core")

#: Parameter names that carry an array contract in this codebase.
_ARRAY_PARAM_NAMES = {
    "answers", "features", "action_features", "next_features",
    "matrix", "mat", "counts", "proba", "posteriors", "q_values",
    "confusion", "confusions", "targets", "scores", "vec",
}

#: Annotation fragments that mark a parameter as array-like.
_ARRAY_ANNOTATIONS = ("ndarray", "ArrayLike", "AnswerMap")

#: Decorators that delegate validation to the runtime contract layer.
_CONTRACT_DECORATORS = {"shaped", "row_stochastic", "prob_simplex"}

#: Methods always considered entry points of a public class.
_CONSTRUCTORS = {"__init__", "__post_init__", "__call__"}


def _contract_params(fn) -> list:
    names = []
    for param in all_parameters(fn):
        if param.arg in ("self", "cls"):
            continue
        annotation = annotation_text(param.annotation)
        if param.arg in _ARRAY_PARAM_NAMES or any(
            fragment in annotation for fragment in _ARRAY_ANNOTATIONS
        ):
            names.append(param.arg)
    return names


def _has_validation_evidence(fn) -> bool:
    for deco in fn.decorator_list:
        if decorator_name(deco) in _CONTRACT_DECORATORS:
            return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = ""
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name.startswith(("check_", "validate", "_validate")):
                return True
    return False


def _is_entry_point(fn, cls: Optional[ast.ClassDef]) -> bool:
    if cls is not None and not is_public(cls.name):
        return False
    if is_public(fn.name):
        return True
    return cls is not None and fn.name in _CONSTRUCTORS


def check_validated_inputs(module: ModuleInfo) -> Iterator[Finding]:
    """Flag unvalidated array-contract parameters on public entry points."""
    # Scoped by directory, not dotted name: fixture trees lack __init__.py.
    if not any(name in Path(module.path).parts[:-1]
               for name in _SCOPED_PACKAGES):
        return
    seen_nested = set()
    for fn, cls in iter_functions(module.tree):
        # Skip nested defs: only module/class level defs are entry points.
        if id(fn) in seen_nested:
            continue
        for inner, _ in iter_functions(fn):
            seen_nested.add(id(inner))
        if not _is_entry_point(fn, cls):
            continue
        params = _contract_params(fn)
        if not params or _has_validation_evidence(fn):
            continue
        where = f"{cls.name}.{fn.name}" if cls is not None else fn.name
        yield module.finding(
            "REPRO003", fn,
            f"public function '{where}' takes array-contract parameter(s) "
            f"{', '.join(repr(p) for p in params)} but shows no input "
            f"validation (use repro.utils.validation or a contracts "
            f"decorator)",
        )
