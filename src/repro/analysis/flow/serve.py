"""Blocking calls on the serving event loop: REPRO020.

The multi-tenant serving layer (:mod:`repro.serve`) runs every session
on one single-threaded event loop, so ``time.sleep``, file/socket I/O,
subprocess spawns, and lock acquisition anywhere in the call-graph
closure of the serve layer (the ``serve`` package, ``serve_*`` modules,
and every episode-protocol generator) stall *every* session at once.
The observability sink (:mod:`repro.obs`) is exempt — its atomic flush
is the sanctioned write path — and a deliberate block is excused with a
keyed annotation naming the exact call::

    # repro: blocking[time.sleep] — demo wall-clock mode really waits
    time.sleep(remaining)

(the same key-must-match convention as REPRO012's ``wall-clock[...]``
annotations; see :func:`repro.analysis.flow.project.exempted_key`).

The serve layer's other invariants (every future delivered, tenant
isolation, ``(due, seq)`` dispatch order, the episode-generator
protocol, untouched delivered payloads) are enforced by tier-1 tests
instead; DESIGN.md section 9 names the test that now guards each.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.lint.engine import Finding
from repro.analysis.flow.project import (
    FunctionRecord,
    ModuleInfo,
    Project,
    Reach,
    exempted_key,
    iter_scope_nodes,
    keyed_exemptions,
)

#: Calls that block the event loop's only thread.
_BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.waitpid",
    "socket.socket", "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.delete",
    "requests.head", "requests.request",
    "open", "input",
}

#: Dotted sub-packages exempt from the blocking rule: the observability
#: sink's atomic flush is the sanctioned write path out of the loop.
_BLOCKING_EXEMPT_PACKAGES = ("obs",)

#: Constructors whose result is a lock (its ``acquire`` blocks).
_LOCK_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
}


def _yields_collect_request(record: FunctionRecord) -> bool:
    for node in iter_scope_nodes(record.node):
        if isinstance(node, ast.Yield) and node.value is not None:
            for call in ast.walk(node.value):
                if isinstance(call, ast.Call):
                    resolved = record.module.resolve(call.func)
                    tail = (resolved.rsplit(".", 1)[-1]
                            if resolved is not None else None)
                    if tail is None and isinstance(call.func, ast.Attribute):
                        tail = call.func.attr
                    if tail == "CollectRequest":
                        return True
    return False


def _is_episode_generator(record: FunctionRecord) -> bool:
    """Whether ``record`` implements the stepwise episode protocol."""
    return record.is_generator and (
        record.short_name == "episode" or _yields_collect_request(record))


def _serve_scoped(module: ModuleInfo) -> bool:
    """Whether a module belongs to the serving layer.

    The ``serve`` sub-package, or a standalone ``serve_*`` module (the
    fixture convention) — episode-protocol generators are entry points
    regardless of where they live.
    """
    return module.in_subpackage("serve") \
        or module.name.split(".")[-1].startswith("serve_")


def _serve_entries(project: Project) -> Reach:
    """Event-loop entry points: serve-layer functions and episode generators."""
    entries: Reach = {}
    for record in project.functions:
        if _serve_scoped(record.module) or _is_episode_generator(record):
            entries[id(record)] = (record, record.qualname)
    return entries


def _lock_locals(module: ModuleInfo, scope: ast.AST) -> Set[str]:
    """Names in ``scope`` assigned from a lock constructor."""
    names: Set[str] = set()
    for node in iter_scope_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call) \
                and module.resolve(node.value.func) in _LOCK_CONSTRUCTORS:
            names.add(node.targets[0].id)
    return names


def _blocking_label(module: ModuleInfo, node: ast.Call,
                    locks: Set[str]) -> Optional[str]:
    resolved = module.resolve(node.func)
    if resolved in _BLOCKING_CALLS:
        return resolved
    if isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
        receiver = node.func.value
        if resolved is not None and resolved.startswith(
            ("threading.", "multiprocessing.")
        ):
            return resolved
        if isinstance(receiver, ast.Name) and receiver.id in locks:
            return f"{receiver.id}.acquire"
    return None


def check_serve(project: Project) -> Iterator[Finding]:
    """Run the blocking-call rule over the serve layer's call graph."""
    reached = project.reachable(_serve_entries(project))
    seen: Set[Tuple[str, int, int]] = set()
    exemptions_cache: Dict[int, Dict[int, str]] = {}
    for record, entry in reached.values():
        module = record.module
        if module.in_subpackage(*_BLOCKING_EXEMPT_PACKAGES):
            continue
        if id(module) not in exemptions_cache:
            exemptions_cache[id(module)] = keyed_exemptions(module, "blocking")
        exemptions = exemptions_cache[id(module)]
        locks = _lock_locals(module, record.node)
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            label = _blocking_label(module, node, locks)
            if label is None:
                continue
            key = (module.path, node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            if exempted_key(module, exemptions, node.lineno) == label:
                continue
            yield module.finding(
                "REPRO020", node,
                f"blocking call '{label}' inside '{record.qualname}', "
                f"reachable from event-loop entry '{entry}'; the loop is "
                f"single-threaded, so this stalls every session — move the "
                f"block off the loop or annotate a deliberate one with "
                f"'# repro: blocking[{label}] — <why>'",
            )

