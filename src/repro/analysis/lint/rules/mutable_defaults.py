"""REPRO002: no mutable default arguments.

A mutable default is evaluated once at definition time and then shared by
every call — the classic source of cross-run state leakage, which in this
codebase would silently couple experiment repetitions that must be
independent.  Use ``None`` plus an in-body default instead.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Finding

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import ModuleInfo
from repro.analysis.lint.rules._ast_utils import iter_functions

_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "deque",
    "defaultdict", "OrderedDict", "Counter",
}
_MUTABLE_NP_CALLS = {"zeros", "ones", "empty", "full", "array", "arange"}
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_NP_CALLS:
            return True
    return False


def check_mutable_defaults(module: ModuleInfo) -> Iterator[Finding]:
    """Flag list/dict/set/ndarray literals used as parameter defaults."""
    for fn, _cls in iter_functions(module.tree):
        defaults = list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield module.finding(
                    "REPRO002", default,
                    f"mutable default argument in '{fn.name}' is shared "
                    f"across calls; default to None and create it in the "
                    f"body",
                )
