"""REPRO004: no bare ``except:`` and no silently swallowed exceptions.

Swallowing an exception in an EM loop or an experiment harness converts a
crash into a silently wrong number — the worst failure mode for a
reproduction whose outputs are compared against published figures.
Handlers must name the exception class and must *do* something (handle,
log, or re-raise).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Finding

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import ModuleInfo


def _is_noop(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Pass, ast.Continue)):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # bare string/Ellipsis expression
    return False


def check_exception_hygiene(module: ModuleInfo) -> Iterator[Finding]:
    """Flag bare ``except:`` clauses and handlers whose body is a no-op."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield module.finding(
                "REPRO004", node,
                "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                "name the exception class",
            )
            continue
        if all(_is_noop(stmt) for stmt in node.body):
            yield module.finding(
                "REPRO004", node,
                "exception caught and silently swallowed; handle, log, "
                "or re-raise it",
            )
