"""REPRO005: no in-place mutation of ``state``/``history``/``answers`` args.

The labelling history matrix and the RL state are shared, long-lived run
structures; frameworks, featurizers and inference all read them.  A
function that receives one as an *argument* and mutates it in place
creates action-at-a-distance between components that the paper's model
treats as independent.  Only :mod:`repro.core.state` — the designated
owner of state transitions — may mutate them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Set

from repro.analysis.lint.engine import Finding

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import ModuleInfo
from repro.analysis.lint.rules._ast_utils import (
    FUNCTION_NODES,
    all_parameters,
    iter_functions,
    root_name,
)

#: Argument names treated as shared run state.
_PROTECTED = {"state", "history", "answers"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "pop", "popitem", "clear", "update",
    "setdefault", "remove", "discard", "add", "sort", "reverse",
    "fill", "resize", "put", "itemset",
}


def _protected_params(fn) -> Set[str]:
    return {p.arg for p in all_parameters(fn) if p.arg in _PROTECTED}


def check_state_mutation(module: ModuleInfo) -> Iterator[Finding]:
    """Flag writes through protected parameters outside core/state.py."""
    if Path(module.path).parts[-2:] == ("core", "state.py"):
        return
    for fn, _cls in iter_functions(module.tree):
        protected = _protected_params(fn)
        if not protected:
            continue
        yield from _check_body(module, fn, protected)


def _check_body(module: ModuleInfo, fn, protected: Set[str]
                ) -> Iterator[Finding]:
    for node in ast.walk(fn):
        # Nested defs that rebind a protected name get their own pass.
        if node is not fn and isinstance(node, FUNCTION_NODES):
            continue
        targets = []
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if not isinstance(target, (ast.Subscript, ast.Attribute)):
                continue
            name = root_name(target)
            if name in protected:
                yield module.finding(
                    "REPRO005", node,
                    f"in-place write to argument '{name}' leaks state "
                    f"outside core/state.py; copy it first",
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                name = root_name(node.func.value)
                if name in protected:
                    yield module.finding(
                        "REPRO005", node,
                        f"call to mutating method '.{node.func.attr}' on "
                        f"argument '{name}'; copy it first",
                    )
