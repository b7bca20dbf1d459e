"""The REPRO static analyzer for the CrowdRL reproduction.

:meth:`~.project.Project.load` parses every file once into a whole-tree
:class:`~.project.Project` graph; :func:`analyze_project` then runs the
per-module rules and the five flow engines over it, following
values across function and module boundaries:

* :mod:`repro.analysis.lint.rules` — one module at a time (REPRO001
  global numpy RNG calls, REPRO002 mutable defaults, REPRO003
  unvalidated array inputs in ``inference``/``rl``/``core``, REPRO004
  swallowed exceptions, REPRO005 in-place mutation of shared run
  state, REPRO006 public docstrings);
* :mod:`~.rng` — RNG provenance (REPRO007 unseeded construction,
  REPRO008 global numpy state in dataflow, REPRO009 one stream shared
  across components);
* :mod:`~.shapes` — static verification of the ``@shaped`` runtime
  contracts as interface specs (REPRO010 transposed/ill-arity call
  sites);
* :mod:`~.determinism` — ordering and clock hazards (REPRO011 unsorted
  filesystem/set enumeration — a ``sorted(key=...)`` whose key is
  itself non-deterministic does not count as ordering, REPRO012
  wall-clock reads outside ``obs/``);
* :mod:`~.parallel` — parallel-safety rules guarding the sharded
  experiment engine (REPRO013 module-global mutable state, REPRO014
  parent RNG streams crossing process boundaries, REPRO015 unpicklable
  worker payloads, REPRO016 in-place mutation aliased across
  components, REPRO017 order-dependent reductions over unordered
  containers, REPRO018 environment reads in worker-reachable code);
* :mod:`~.serve` — serve-safety rules certifying the multi-tenant
  event loop (REPRO019 dropped futures, REPRO020 blocking calls in
  event-loop-reachable code, REPRO021 per-session state in shared
  engine slots, REPRO022 completion dispatch off the ``(due, seq)``
  total order, REPRO023 episode-generator protocol misuse, REPRO024
  delivered payloads mutated after delivery).

A file that does not parse is reported as REPRO000 whatever ``select``
says.  Every other finding goes through one path: ``select`` (single
ids and inclusive ranges such as ``REPRO013-REPRO018``), the
``# repro: noqa REPROxxx`` suppression comments, and the committed
baseline of :mod:`~.baseline`.  REPRO013 additionally honours a
``# repro: process-local`` annotation on a global's defining line for
state that is *deliberately* per-process.
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
from repro.analysis.flow.parallel import check_parallel
from repro.analysis.flow.project import Project
from repro.analysis.flow.rng import check_rng
from repro.analysis.flow.serve import check_serve
from repro.analysis.flow.shapes import check_shapes

#: Rule id -> one-line description, in report order: the one rule table
#: behind ``--select``, ``--stats`` and the JSON ``rules`` payload.
FLOW_RULES = {
    "REPRO001": "no global np.random.* calls; thread a seeded Generator",
    "REPRO002": "no mutable default arguments",
    "REPRO003": "public inference/rl/core functions must validate array "
                "inputs (repro.utils.validation or repro.analysis.contracts)",
    "REPRO004": "no bare 'except:' or silently swallowed exceptions",
    "REPRO005": "no in-place mutation of state/history/answers arguments "
                "outside core/state.py",
    "REPRO006": "docstrings required on the public API (warning)",
    "REPRO007": "no unseeded Generator construction (incl. default_factory"
                "/lambda/default-arg indirection)",
    "REPRO008": "global np.random state must not enter dataflow",
    "REPRO009": "no single RNG stream shared across components; spawn "
                "child streams",
    "REPRO010": "call sites must satisfy the @shaped symbolic dimension "
                "contracts",
    "REPRO011": "no unsorted filesystem/set enumeration feeding computation",
    "REPRO012": "no wall-clock reads outside repro.obs",
    "REPRO013": "no module-global mutable state written after import time "
                "(annotate '# repro: process-local' to justify)",
    "REPRO014": "no parent RNG stream crossing a process boundary; spawn "
                "children or pass seeds",
    "REPRO015": "worker payloads must be picklable (no lambdas or closures "
                "over locks/files/generators)",
    "REPRO016": "no in-place parameter mutation read by another component "
                "after the call",
    "REPRO017": "no order-dependent float reduction over sets or "
                "merge-built dicts",
    "REPRO018": "no os.environ/tempfile/cwd reads in worker-reachable "
                "functions",
    "REPRO019": "no dropped futures: every PendingAnswer produced must be "
                "routed to a handler or collected",
    "REPRO020": "no blocking calls reachable from event-loop-driven code "
                "(annotate '# repro: blocking[<call>]' to justify)",
    "REPRO021": "no per-session state written to shared engine slots "
                "reachable from another session",
    "REPRO022": "completion dispatch must key on the (due, seq) total "
                "order — no bare heaps, min() over dicts, or set/dict "
                "iteration",
    "REPRO023": "episode generators must be fed via send and closed on "
                "abort; no yield inside try without finally",
    "REPRO024": "no mutation of a delivered answer payload or records "
                "list after delivery",
}

_ENGINES = (check_module_rules, check_rng, check_shapes, check_determinism,
            check_parallel, check_serve)


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
