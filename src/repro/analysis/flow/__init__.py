"""The REPRO static analyzer for the CrowdRL reproduction.

:meth:`~.project.Project.load` parses every file once into a whole-tree
:class:`~.project.Project`; :func:`analyze_project` then runs the seven
rules over it:

* :mod:`repro.analysis.lint.rules` — one module at a time (REPRO003
  unvalidated array inputs in ``inference``/``rl``/``core``, REPRO004
  swallowed exceptions, REPRO006 public docstrings);
* :mod:`~.determinism` — ordering and clock hazards (REPRO011 unsorted
  filesystem/set enumeration — a ``sorted(key=...)`` whose key is
  itself non-deterministic does not count as ordering, REPRO012
  wall-clock reads outside ``obs/``, REPRO017 order-dependent float
  reductions over sets or merge-built dicts);
* :mod:`~.serve` — REPRO020 blocking calls reachable from the serving
  event loop, following calls across modules.

These are the rules whose defects the tier-1 tests do not catch.  The
ids of rules that tier-1 already enforces, or that found no site in the
tree, were retired and are not reused; DESIGN.md section 9 has the
mutant table behind each verdict.

A file that does not parse is reported as REPRO000 whatever ``select``
says.  Every other finding goes through one path: ``select`` (single
ids and inclusive ranges such as ``REPRO011-REPRO017``), the
``# repro: noqa REPROxxx`` suppression comments, and the committed
baseline of :mod:`~.baseline`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.analysis.lint.engine import (
    Finding,
    _is_suppressed,
    expand_rule_ranges,
)
from repro.analysis.lint.rules import check_module_rules
from repro.analysis.flow.baseline import (
    BASELINE_FILENAME,
    discover_baseline,
    finding_key,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.flow.determinism import check_determinism
from repro.analysis.flow.project import Project
from repro.analysis.flow.serve import check_serve

#: Rule id -> one-line description, in report order: the one rule table
#: behind ``--select``, ``--stats`` and the JSON ``rules`` payload.
FLOW_RULES = {
    "REPRO003": "public inference/rl/core functions must validate array "
                "inputs (repro.utils.validation or repro.analysis.contracts)",
    "REPRO004": "no bare 'except:' or silently swallowed exceptions",
    "REPRO006": "docstrings required on the public API (warning)",
    "REPRO011": "no unsorted filesystem/set enumeration feeding computation",
    "REPRO012": "no wall-clock reads outside repro.obs",
    "REPRO017": "no order-dependent float reduction over sets or "
                "merge-built dicts",
    "REPRO020": "no blocking calls reachable from event-loop-driven code "
                "(annotate '# repro: blocking[<call>]' to justify)",
}

_ENGINES = (check_module_rules, check_determinism, check_serve)


def selected_rules(select: Optional[Iterable[str]]) -> Sequence[str]:
    """The rule ids ``select`` names (ids and ranges), or every rule."""
    if select is None:
        return tuple(FLOW_RULES)
    return tuple(expand_rule_ranges(select, FLOW_RULES))


def analyze_project(project: Project,
                    select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run every selected rule over an already-loaded project.

    The project's REPRO000 syntax errors are always reported; the other
    findings are filtered by ``select`` and by ``# repro: noqa``.
    """
    wanted = set(selected_rules(select))
    by_path = {module.path: module for module in project.modules}
    kept = list(project.syntax_errors)
    for engine in _ENGINES:
        for finding in engine(project):
            module = by_path.get(finding.path)
            suppressions = module.suppressions if module is not None else {}
            if finding.rule_id in wanted and not _is_suppressed(
                    finding, suppressions):
                kept.append(finding)
    return sorted(kept)


def analyze_paths(paths: Iterable[str],
                  select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Load ``paths`` into a project and run every selected rule over it."""
    return analyze_project(Project.load(paths), select=select)


__all__ = [
    "BASELINE_FILENAME",
    "FLOW_RULES",
    "Finding",
    "Project",
    "analyze_paths",
    "analyze_project",
    "discover_baseline",
    "finding_key",
    "load_baseline",
    "selected_rules",
    "split_by_baseline",
    "write_baseline",
]
