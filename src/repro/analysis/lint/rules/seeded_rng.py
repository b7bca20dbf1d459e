"""REPRO001: no calls through the global numpy RNG.

Reproducibility end-to-end is a core claim of this reproduction (the
harness seeds one generator and spawns child streams per component), so
``np.random.rand()``-style calls through numpy's *global* state are
forbidden: they make results depend on import order and call count.
Construct or thread a seeded :class:`numpy.random.Generator` instead
(see :func:`repro.utils.rng.as_rng`).

Unseeded *construction* — ``np.random.default_rng()`` called directly,
through a ``default_factory`` or as a parameter default — is the flow
analyzer's REPRO007, which follows it across functions too.

The seed-coercion module :mod:`repro.utils.rng` is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.lint.engine import Finding, LintContext, LintRule, register_rule

#: Attributes of ``numpy.random`` that do NOT touch global RNG state.
_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",  # an explicit legacy *instance* is still seeded state
}


def _numpy_aliases(tree: ast.Module) -> tuple:
    """Names bound to the numpy module and to the numpy.random module."""
    numpy_names: Set[str] = set()
    random_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    random_names.add(alias.asname)
                elif alias.name == "numpy.random":
                    numpy_names.add("numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_names.add(alias.asname or "random")
    return numpy_names, random_names


@register_rule
class GlobalNumpyRandomRule(LintRule):
    """Flag ``np.random.<fn>(...)`` calls and global-state imports."""

    rule_id = "REPRO001"
    severity = "error"
    description = "no global np.random.* calls; thread a seeded Generator"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one parsed module."""
        if ctx.is_module("utils", "rng.py"):
            return  # the blessed seed-coercion point
        yield from self._check_global_calls(ctx)

    def _check_global_calls(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag global numpy RNG calls and global-state imports."""
        numpy_names, random_names = _numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _ALLOWED:
                        yield self.finding(
                            ctx, node,
                            f"'from numpy.random import {alias.name}' binds the "
                            f"global RNG; use a seeded np.random.Generator "
                            f"(repro.utils.rng.as_rng)",
                        )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr in _ALLOWED:
                continue
            value = func.value
            is_np_random = (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in numpy_names
            ) or (
                isinstance(value, ast.Name) and value.id in random_names
            )
            if is_np_random:
                yield self.finding(
                    ctx, node,
                    f"call to global 'np.random.{func.attr}' breaks seeded "
                    f"reproducibility; thread a np.random.Generator instead",
                )
