"""Determinism hazard rules: REPRO011, REPRO012.

Bit-identical checkpoint/resume (PR 2) and metrics-on == metrics-off
(PR 3) only hold if no data-bearing path depends on filesystem
enumeration order, set iteration order, or the wall clock:

* **REPRO011 — unordered enumeration feeding computation.**
  ``os.listdir`` / ``os.scandir`` / ``glob.glob`` / ``Path.glob`` /
  ``Path.rglob`` / ``Path.iterdir`` return entries in filesystem order,
  and iterating a ``set`` literal/constructor is hash-order; both must
  pass through ``sorted(...)`` before they feed arrays or label streams.
* **REPRO012 — wall-clock reads outside ``obs/``.**  ``time.time`` and
  friends are legitimate inside the observability layer (whose registry
  takes an injectable clock precisely so tests stay deterministic) and
  nowhere else in the library.  A deliberate, audited read elsewhere is
  exempted with a *keyed* annotation naming the exact clock it excuses::

      # repro: wall-clock[time.monotonic] — real-time demo mode only
      self._origin = time.monotonic()

  The key must match the resolved clock name — an annotation for
  ``time.monotonic`` never silences a ``time.time`` read that creeps
  onto the same line — and the annotation holds for the next code line
  when its comment block sits directly above the read (mirroring the
  ``# repro: process-local`` convention of REPRO013).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.lint.engine import Finding
from repro.analysis.flow.project import (
    ModuleInfo,
    Project,
    call_keyword,
    exempted_key,
    keyed_exemptions,
)

#: Fully qualified enumeration calls whose order is filesystem-defined.
_FS_ENUMERATORS = {
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
}

#: Attribute names that enumerate in filesystem order on Path-like objects.
_FS_ATTR_ENUMERATORS = {"glob", "rglob", "iterdir"}

#: Wall-clock reads; allowed only under the observability package.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Dotted sub-packages exempt from the wall-clock rule.
_CLOCK_EXEMPT_PACKAGES = ("obs",)

def _wall_clock_exemptions(module: ModuleInfo) -> Dict[int, str]:
    """Line number -> exempted clock key, from the module's annotations."""
    return keyed_exemptions(module, "wall-clock")


def _clock_exempted(module: ModuleInfo, exemptions: Dict[int, str],
                    lineno: int, resolved: str) -> bool:
    """Whether the read at ``lineno`` carries a matching keyed exemption.

    The annotation counts on the read's own line, or on the comment
    block sitting directly above it (see
    :func:`repro.analysis.flow.project.exempted_key`).  The key must
    equal the resolved clock name exactly.
    """
    return exempted_key(module, exemptions, lineno) == resolved


#: Builtins whose value varies between runs/processes — useless as sort keys.
_NONDET_KEY_BUILTINS = {"id", "hash"}

#: Call prefixes that make a ``key=`` callable non-deterministic.
_NONDET_KEY_PREFIXES = ("random.", "numpy.random.", "time.", "uuid.",
                        "secrets.")


def _nondeterministic_key(module: ModuleInfo, key: ast.expr) -> bool:
    """Whether a ``sorted(key=...)`` argument defeats the ordering.

    ``key=id`` sorts by memory address, ``key=hash`` is
    ``PYTHONHASHSEED``-dependent for strings, and a lambda that draws
    randomness or reads the clock produces a fresh permutation per run —
    the ``sorted(...)`` wrapper then launders an unordered enumeration
    without actually ordering it.
    """
    resolved = module.resolve(key)
    if resolved in _NONDET_KEY_BUILTINS:
        return True
    if resolved is not None and resolved.startswith(_NONDET_KEY_PREFIXES):
        return True  # a bare reference like ``key=random.random``
    if isinstance(key, ast.Lambda):
        for node in ast.walk(key.body):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve(node.func)
            if target in _NONDET_KEY_BUILTINS:
                return True
            if target is not None and target.startswith(
                _NONDET_KEY_PREFIXES
            ):
                return True
    return False


def _ordered_by_ancestor(module: ModuleInfo, node: ast.AST) -> bool:
    """Whether ``node`` flows into a genuine ``sorted(...)`` in its statement.

    Climbs the parent chain so both the direct ``sorted(path.glob(...))``
    and the comprehension form ``sorted(p for p in path.rglob(...))``
    count as ordered.  A ``sorted(..., key=...)`` whose key is itself
    non-deterministic (``key=id``, ``key=lambda _: random()``) does not
    count — it permutes rather than orders.
    """
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.Call):
            func = ancestor.func
            name = func.id if isinstance(func, ast.Name) else None
            if name == "sorted":
                key = call_keyword(ancestor, "key")
                if key is None or not _nondeterministic_key(module, key):
                    return True
        if isinstance(ancestor, ast.stmt):
            return False
    return False


def _enumerator_label(module: ModuleInfo, node: ast.Call) -> Optional[str]:
    resolved = module.resolve(node.func)
    if resolved in _FS_ENUMERATORS:
        return resolved
    if (isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_ATTR_ENUMERATORS):
        # Heuristic: ``.glob``/``.rglob``/``.iterdir`` on anything is a
        # pathlib enumeration unless the receiver resolves to a known
        # non-path module.
        if resolved is None or not resolved.startswith(("re.", "fnmatch.")):
            return f".{node.func.attr}"
    return None


def _check_fs_order(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        label = _enumerator_label(module, node)
        if label is None:
            continue
        if not _ordered_by_ancestor(module, node):
            yield module.finding(
                "REPRO011", node,
                f"'{label}' enumerates in filesystem order; wrap in "
                f"sorted(...) before the entries feed any computation",
            )


def _iter_targets(module: ModuleInfo) -> Iterator[ast.expr]:
    """Every expression some construct iterates over."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter


def _check_set_iteration(module: ModuleInfo) -> Iterator[Finding]:
    for target in _iter_targets(module):
        is_set = isinstance(target, ast.Set) or (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Name)
            and target.func.id in ("set", "frozenset")
        )
        if is_set and not _ordered_by_ancestor(module, target):
            yield module.finding(
                "REPRO011", target,
                "iterating a set is hash-order (PYTHONHASHSEED-dependent "
                "for str keys); iterate sorted(...) instead",
            )


def _check_wall_clock(module: ModuleInfo) -> Iterator[Finding]:
    if module.in_subpackage(*_CLOCK_EXEMPT_PACKAGES):
        return
    exemptions = _wall_clock_exemptions(module)
    for node in ast.walk(module.tree):
        resolved: Optional[str] = None
        if isinstance(node, ast.Call):
            resolved = module.resolve(node.func)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            # A bare reference (e.g. a default argument ``clock=time.time``)
            # smuggles the clock just as effectively as calling it.
            parent = module.parent(node)
            if isinstance(parent, (ast.Call, ast.Attribute)):
                continue  # the enclosing node is the one to judge
            resolved = module.resolve(node)
        if resolved in _WALL_CLOCK:
            lineno = getattr(node, "lineno", 1)
            if _clock_exempted(module, exemptions, lineno, resolved):
                continue
            yield module.finding(
                "REPRO012", node,
                f"wall-clock read '{resolved}' outside repro.obs breaks "
                f"run reproducibility; inject a clock or move the timing "
                f"into the observability layer, or annotate a deliberate "
                f"read with '# repro: wall-clock[{resolved}] — <why>'",
            )


def check_determinism(project: Project) -> Iterator[Finding]:
    """Run the enumeration-order and wall-clock rules over the project."""
    for module in project.modules:
        yield from _check_fs_order(module)
        yield from _check_set_iteration(module)
        yield from _check_wall_clock(module)
