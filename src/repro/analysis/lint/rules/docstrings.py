"""REPRO006: docstring presence on the public API.

Modules, public classes, public module-level functions and public methods
need a docstring.  Trivial single-statement bodies (delegators, property
getters, ``raise NotImplementedError`` stubs) are exempt: forcing a
docstring onto ``return self._x`` adds noise, not information.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Finding

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import ModuleInfo
from repro.analysis.lint.rules._ast_utils import (
    decorator_name,
    is_public,
    iter_functions,
)


def _effective_body(fn) -> list:
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]  # strip an existing docstring
    return body


def _is_trivial(fn) -> bool:
    return len(_effective_body(fn)) <= 1


def check_public_docstrings(module: ModuleInfo) -> Iterator[Finding]:
    """Flag missing docstrings on modules, public classes and functions."""
    tree = module.tree
    if tree.body and ast.get_docstring(tree) is None:
        yield module.finding("REPRO006", tree.body[0],
                             "module is missing a docstring", "warning")

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_public(node.name):
            if ast.get_docstring(node) is None:
                yield module.finding(
                    "REPRO006", node,
                    f"public class '{node.name}' is missing a docstring",
                    "warning",
                )

    seen_nested = set()
    for fn, cls in iter_functions(tree):
        if id(fn) in seen_nested:
            continue
        for inner, _ in iter_functions(fn):
            seen_nested.add(id(inner))
        if not is_public(fn.name):
            continue
        if cls is not None and not is_public(cls.name):
            continue
        if any(decorator_name(d) == "overload" for d in fn.decorator_list):
            continue
        if ast.get_docstring(fn) is not None or _is_trivial(fn):
            continue
        where = f"{cls.name}.{fn.name}" if cls is not None else fn.name
        yield module.finding(
            "REPRO006", fn, f"public function '{where}' is missing a docstring",
            "warning",
        )
