"""The per-module REPRO rules, run inside the one analyzer pass.

Each rule is a function from one parsed
:class:`~repro.analysis.flow.project.ModuleInfo` to its findings;
:func:`check_module_rules` runs them all over a project, next to the
flow engines in :func:`repro.analysis.flow.analyze_project`:

* REPRO001 — no global ``np.random.*`` calls (thread a seeded Generator)
* REPRO002 — no mutable default arguments
* REPRO003 — public inference/rl/core functions must validate array inputs
* REPRO004 — no bare ``except:`` / silently swallowed exceptions
* REPRO005 — no in-place mutation of ``state``/``history``/``answers`` args
* REPRO006 — docstrings on the public API
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Finding
from repro.analysis.lint.rules.docstrings import check_public_docstrings
from repro.analysis.lint.rules.exception_hygiene import check_exception_hygiene
from repro.analysis.lint.rules.mutable_defaults import check_mutable_defaults
from repro.analysis.lint.rules.seeded_rng import check_global_numpy_random
from repro.analysis.lint.rules.state_mutation import check_state_mutation
from repro.analysis.lint.rules.validated_inputs import check_validated_inputs

if TYPE_CHECKING:  # annotations only; the flow package imports this one
    from repro.analysis.flow.project import Project

_MODULE_RULES = (
    check_global_numpy_random,
    check_mutable_defaults,
    check_validated_inputs,
    check_exception_hygiene,
    check_state_mutation,
    check_public_docstrings,
)


def check_module_rules(project: Project) -> Iterator[Finding]:
    """Run REPRO001-006 over every module of the project."""
    for module in project.modules:
        for rule in _MODULE_RULES:
            yield from rule(module)
