"""REPRO001: no calls through the global numpy RNG.

Reproducibility end-to-end is a core claim of this reproduction (the
harness seeds one generator and spawns child streams per component), so
``np.random.rand()``-style calls through numpy's *global* state are
forbidden: they make results depend on import order and call count.
Construct or thread a seeded :class:`numpy.random.Generator` instead
(see :func:`repro.utils.rng.as_rng`).

``np.random.seed``/``set_state``/``get_state`` are global calls like any
other.  Unseeded *construction* — ``np.random.default_rng()`` called
directly, through a ``default_factory`` or as a parameter default — is
REPRO007, which follows it across functions too.

The seed-coercion module :mod:`repro.utils.rng` is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Finding

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import ModuleInfo

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


def check_global_numpy_random(module: ModuleInfo) -> Iterator[Finding]:
    """Flag ``np.random.<fn>(...)`` calls and global-state imports."""
    if Path(module.path).parts[-2:] == ("utils", "rng.py"):
        return  # the blessed seed-coercion point
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED:
                    yield module.finding(
                        "REPRO001", node,
                        f"'from numpy.random import {alias.name}' binds the "
                        f"global RNG; use a seeded np.random.Generator "
                        f"(repro.utils.rng.as_rng)",
                    )
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr not in _ALLOWED
                and module.resolve(node.func.value) == "numpy.random"):
            yield module.finding(
                "REPRO001", node,
                f"call to global 'np.random.{node.func.attr}' breaks seeded "
                f"reproducibility; thread a np.random.Generator instead",
            )
