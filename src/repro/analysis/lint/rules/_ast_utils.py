"""Small AST helpers shared by the REPRO rules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def iter_functions(tree: ast.Module) -> Iterator[Tuple[FunctionNode, Optional[ast.ClassDef]]]:
    """Yield every function in a module with its enclosing class (if any).

    Nested functions are yielded too (with the class of their outermost
    enclosing method); rules that only care about top-level definitions
    skip them themselves.
    """
    def walk(node: ast.AST, cls: Optional[ast.ClassDef]) -> Iterator[
            Tuple[FunctionNode, Optional[ast.ClassDef]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTION_NODES):
                yield child, cls
                yield from walk(child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)


def all_parameters(fn: FunctionNode) -> list:
    """Every parameter node of ``fn`` (positional, keyword-only, *args, **kw)."""
    args = fn.args
    params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        params.append(args.vararg)
    if args.kwarg is not None:
        params.append(args.kwarg)
    return params


def decorator_name(node: ast.expr) -> str:
    """The rightmost name of a decorator expression (``a.b.c()`` -> ``c``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def is_public(name: str) -> bool:
    """Public per PEP 8: no leading underscore (dunders are not public API)."""
    return not name.startswith("_")


def annotation_text(node: Optional[ast.expr]) -> str:
    """Best-effort source text of an annotation (empty when absent)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure is cosmetic
        return ""
