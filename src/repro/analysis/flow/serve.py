"""Serve-safety rules: REPRO019-024.

The multi-tenant serving layer (:mod:`repro.serve`, PR 9) promises four
invariants the type system cannot see: every submitted answer is
eventually delivered (future lifecycle), one session's state never leaks
into another's books (tenant isolation), completions dispatch in the
``(due, seq)`` total order (deterministic scheduling), and the stepwise
``episode()`` generator is driven by its protocol — primed with
``next``, fed with ``send(records)``, ``close()``d on abort.  Each
invariant gets static rules:

* **REPRO019 — dropped futures.**  A ``PendingAnswer`` (or any
  project-defined ``*Future`` type, or a call into a function that
  transitively returns one) whose result is discarded as a bare
  expression statement, or bound to a name that is never read again,
  is an answer the event loop will pop with nobody listening.  Routing
  counts: returning it, appending it to a batch, passing it to any
  call, or reading any of its attributes afterwards.
* **REPRO020 — blocking calls in event-loop-reachable code.**  The loop
  is single-threaded; ``time.sleep``, file/socket I/O, subprocess
  spawns, and lock acquisition anywhere in the call-graph closure of
  the serve layer (the ``serve`` package, ``serve_*`` modules, and
  every episode-protocol generator) stall *every* session at once.
  The observability sink (:mod:`repro.obs`) is exempt — its atomic
  flush is the sanctioned write path — and a deliberate block is
  excused with a keyed annotation naming the exact call::

      # repro: blocking[time.sleep] — demo wall-clock mode really waits
      time.sleep(remaining)

  (the same key-must-match convention as REPRO012's ``wall-clock[...]``
  annotations; see :func:`repro.analysis.flow.project.exempted_key`).
* **REPRO021 — per-session state in shared scope.**  Session state — a
  ``MetricsRegistry``, a ``LabellingHistory``, an RNG stream, anything
  flowing from a ``registry``/``history``/``rng`` parameter or
  attribute — written to a plain attribute of a *shared* class (one
  whose methods take a ``session`` parameter) is reachable from every
  other session on the engine.  Writes keyed by session
  (``self._grants[session] = ...``) preserve isolation and stay silent.
  Session state written to a module global is REPRO013's finding: that
  rule reports every mutated global at its definition.
* **REPRO022 — scheduling off the ``(due, seq)`` total order.**  The
  bit-identity proofs all reduce to one fact: completions dispatch in
  ``(due, submission seq)`` order.  A heap of pending completions
  pushed without a ``seq`` tie-breaker, a ``min()``/``max()`` over a
  pending set/dict whose key ignores ``seq``, or a ``for`` loop
  dispatching straight out of a set/dict of futures all reintroduce
  hash/heap-internal order into delivery.
* **REPRO023 — episode-generator protocol misuse.**  The stepwise
  ``episode()`` generator must be primed with one ``next()``, then fed
  every batch back via ``send(records)`` — iterating it (or calling
  ``next`` in a loop) sends ``None`` and silently starves the episode.
  A generator parked on an attribute with no ``close()`` path anywhere
  in its class leaves a suspended frame (and its platform references)
  alive after an abort; a ``yield`` inside ``try`` without ``finally``
  means ``close()`` during the suspension skips the cleanup the
  ``try`` was written for.
* **REPRO024 — delivered payloads mutated after delivery.**  The
  records handed back at a delivery site (``mark_delivered``/``drain``
  results, ``[p.record for p in ...]`` projections) are the *same*
  objects the session's history and answer log hold — REPRO016's
  aliased-mutation hazard at the serve boundary.  Sorting, item
  assignment, or passing them to a known in-place mutator after
  delivery rewrites the books; copy first.

All six rules resolve conservatively: an ambiguous name or an opaque
receiver stays silent rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.engine import Finding
from repro.analysis.flow.parallel import (
    MUTATING_METHODS,
    _LOCK_CONSTRUCTORS,
    _collect_mutators,
    _function_scopes,
    _reachable,
    _subscript_base,
)
from repro.analysis.flow.project import (
    ClassRecord,
    FunctionRecord,
    ModuleInfo,
    Project,
    bind_arguments,
    call_keyword,
    exempted_key,
    iter_scope_nodes,
    keyed_exemptions,
)
from repro.analysis.flow.rng import _GENERATOR_CONSTRUCTORS

#: Standard-library future constructors (beyond project-defined types).
_STDLIB_FUTURES = {
    "concurrent.futures.Future",
    "asyncio.Future",
    "asyncio.ensure_future",
    "asyncio.create_task",
}

#: Parameter names that mean "this argument is a pending completion".
_FUTURE_PARAM_NAMES = {
    "pending", "pendings", "pending_answer", "pending_answers",
    "future", "futures", "fut", "completion", "completions",
}

#: Container names (underscores stripped) treated as pending-completion
#: stores at scheduling sites even when their contents are opaque.
_PENDING_CONTAINER_HINTS = {
    "pending", "pendings", "pending_answers", "completions", "events",
    "queue", "inflight", "in_flight", "waiting", "futures",
}

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

#: Constructor tails whose result is per-session state.
_SESSION_STATE_CONSTRUCTORS = {
    "MetricsRegistry", "make_registry", "LabellingHistory",
}

#: Parameter names that carry per-session state into a scope.
_SESSION_STATE_PARAMS = {"registry", "history", "rng", "session_rng"}

#: Attribute names whose read is per-session state (``session.registry``).
_SESSION_STATE_ATTRS = {"registry", "history", "rng"}

#: Calls whose assigned result is a delivered payload (REPRO024 sites).
_DELIVERY_CALLS = {"mark_delivered", "drain"}


# ----------------------------------------------------------------------
# Future-flow substrate (REPRO019/022)
# ----------------------------------------------------------------------
def _future_class_shorts(project: Project) -> Set[str]:
    """Short names of project-defined future types, ``PendingAnswer`` in."""
    shorts = {"PendingAnswer"}
    for short in project.classes_by_short:
        if short.endswith(("Future", "Pending")):
            shorts.add(short)
    return shorts


def _future_call_label(project: Project, module: ModuleInfo, call: ast.Call,
                       future_shorts: Set[str],
                       producers: Dict[int, FunctionRecord]) -> Optional[str]:
    """Label of a call that creates/returns a future, or ``None``."""
    resolved = module.resolve(call.func)
    if resolved in _STDLIB_FUTURES:
        return resolved
    tail = resolved.rsplit(".", 1)[-1] if resolved is not None else None
    if tail is None and isinstance(call.func, ast.Attribute):
        tail = call.func.attr
    if tail in future_shorts:
        return tail
    record = project.lookup_function(module, call.func)
    if record is not None and id(record) in producers:
        return record.qualname
    return None


def _expr_holds_future(project: Project, module: ModuleInfo, expr: ast.expr,
                       names: Set[str], future_shorts: Set[str],
                       producers: Dict[int, FunctionRecord]) -> bool:
    """Whether ``expr`` evaluates to a future or a container of futures."""
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Await):
        return _expr_holds_future(project, module, expr.value, names,
                                  future_shorts, producers)
    if isinstance(expr, ast.Call):
        return _future_call_label(project, module, expr, future_shorts,
                                  producers) is not None
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_expr_holds_future(project, module, elt, names,
                                      future_shorts, producers)
                   for elt in expr.elts)
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return _expr_holds_future(project, module, expr.elt, names,
                                  future_shorts, producers)
    if isinstance(expr, ast.IfExp):
        return any(_expr_holds_future(project, module, branch, names,
                                      future_shorts, producers)
                   for branch in (expr.body, expr.orelse))
    return False


def _scope_future_names(project: Project, module: ModuleInfo, scope: ast.AST,
                        future_shorts: Set[str],
                        producers: Dict[int, FunctionRecord]) -> Set[str]:
    """Names in ``scope`` holding a future or a container of futures.

    Fixpoint over single-name assignments and ``append``/``add``/
    ``insert`` feeds, seeded by future-ish parameter names.
    """
    names: Set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg.lstrip("_") in _FUTURE_PARAM_NAMES:
                names.add(arg.arg)
    while True:
        before = len(names)
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                if _expr_holds_future(project, module, node.value, names,
                                      future_shorts, producers):
                    names.add(node.targets[0].id)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "add", "insert")
                    and isinstance(node.func.value, ast.Name)
                    and any(_expr_holds_future(project, module, arg, names,
                                               future_shorts, producers)
                            for arg in node.args)):
                names.add(node.func.value.id)
        if len(names) == before:
            return names


def _future_producers(project: Project,
                      future_shorts: Set[str]) -> Dict[int, FunctionRecord]:
    """Fixpoint of functions whose returns flow futures (transitively)."""
    producers: Dict[int, FunctionRecord] = {}
    changed = True
    while changed:
        changed = False
        for records in project.functions_by_short.values():
            for record in records:
                if id(record) in producers:
                    continue
                names = _scope_future_names(
                    project, record.module, record.node, future_shorts,
                    producers,
                )
                for value in project.return_expressions(record):
                    if _expr_holds_future(project, record.module, value,
                                          names, future_shorts, producers):
                        producers[id(record)] = record
                        changed = True
                        break
    return producers


# ----------------------------------------------------------------------
# REPRO019 — dropped futures
# ----------------------------------------------------------------------
def _used_outside(module: ModuleInfo, scope: ast.AST, statement: ast.stmt,
                  name: str) -> bool:
    """Whether ``name`` is read anywhere in ``scope`` outside ``statement``."""
    for node in iter_scope_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id == name:
            if node is statement or any(
                ancestor is statement for ancestor in module.ancestors(node)
            ):
                continue
            return True
    return False


def _check_dropped_futures(project: Project, module: ModuleInfo,
                           future_shorts: Set[str],
                           producers: Dict[int, FunctionRecord]
                           ) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        for node in iter_scope_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            label = _future_call_label(project, module, node, future_shorts,
                                       producers)
            if label is None:
                continue
            statement = module.enclosing_statement(node)
            if statement is None:
                continue
            if isinstance(statement, ast.Expr):
                value = statement.value
                if isinstance(value, ast.Await):
                    value = value.value
                if value is node:
                    yield module.finding(
                        "REPRO019", node,
                        f"pending answer from '{label}' is created and "
                        f"immediately dropped; the event loop will pop its "
                        f"completion with nobody listening — route it to a "
                        f"completion handler or collect it",
                    )
            elif isinstance(statement, ast.Assign) \
                    and len(statement.targets) == 1 \
                    and isinstance(statement.targets[0], ast.Name):
                value = statement.value
                if isinstance(value, ast.Await):
                    value = value.value
                if value is not node:
                    continue
                name = statement.targets[0].id
                if not _used_outside(module, scope, statement, name):
                    yield module.finding(
                        "REPRO019", node,
                        f"pending answer '{name}' from '{label}' is never "
                        f"routed to a completion handler or collected; the "
                        f"future leaks out of the delivery path",
                    )


# ----------------------------------------------------------------------
# REPRO020 — blocking calls reachable from the event loop
# ----------------------------------------------------------------------
def _serve_scoped(module: ModuleInfo) -> bool:
    """Whether a module belongs to the serving layer.

    The ``serve`` sub-package, or a standalone ``serve_*`` module (the
    fixture convention) — episode-protocol generators are entry points
    regardless of where they live.
    """
    return module.in_subpackage("serve") \
        or module.name.split(".")[-1].startswith("serve_")


def _serve_entries(project: Project, gens: Dict[int, FunctionRecord]
                   ) -> Dict[int, Tuple[FunctionRecord, str]]:
    entries: Dict[int, Tuple[FunctionRecord, str]] = {}
    for module in project.modules:
        if not _serve_scoped(module):
            continue
        for record in _function_scopes(project, module):
            entries.setdefault(id(record), (record, record.qualname))
    for record in gens.values():
        entries.setdefault(id(record), (record, record.qualname))
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


def _check_blocking(project: Project,
                    gens: Dict[int, FunctionRecord]) -> Iterator[Finding]:
    reached = _reachable(project, _serve_entries(project, gens))
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


# ----------------------------------------------------------------------
# REPRO021 — per-session state in shared scope
# ----------------------------------------------------------------------
def _shared_classes(project: Project) -> Set[int]:
    """Ids of :class:`ClassRecord` whose methods take a ``session``."""
    shared: Set[int] = set()
    for class_list in project.classes_by_short.values():
        for cls in class_list:
            for method in cls.methods():
                args = method.node.args
                names = {arg.arg for arg in
                         args.posonlyargs + args.args + args.kwonlyargs}
                if "session" in names - {"self", "cls"}:
                    shared.add(id(cls))
                    break
    return shared


def _enclosing_class(project: Project,
                     record: FunctionRecord) -> Optional[ClassRecord]:
    if record.class_name is None:
        return None
    for cls in project.classes_by_short.get(record.class_name, []):
        if cls.module is record.module \
                and record.qualname.startswith(f"{cls.qualname}."):
            return cls
    return None


def _session_state_names(module: ModuleInfo, scope: ast.AST) -> Set[str]:
    """Names in ``scope`` holding per-session state."""
    names: Set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg.lstrip("_") in _SESSION_STATE_PARAMS:
                names.add(arg.arg)
    for node in iter_scope_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_session_state(module, node.value, names):
            names.add(node.targets[0].id)
    return names


def _is_session_state(module: ModuleInfo, expr: ast.expr,
                      names: Set[str]) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Attribute):
        return expr.attr in _SESSION_STATE_ATTRS
    if isinstance(expr, ast.Call):
        resolved = module.resolve(expr.func)
        if resolved in _GENERATOR_CONSTRUCTORS:
            return True
        tail = resolved.rsplit(".", 1)[-1] if resolved is not None else None
        if tail is None and isinstance(expr.func, ast.Attribute):
            tail = expr.func.attr
        return tail in _SESSION_STATE_CONSTRUCTORS
    return False


def _state_label(module: ModuleInfo, expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f".{expr.attr}"
    if isinstance(expr, ast.Call):
        resolved = module.resolve(expr.func)
        if resolved is not None:
            return f"{resolved.rsplit('.', 1)[-1]}()"
        if isinstance(expr.func, ast.Attribute):
            return f"{expr.func.attr}()"
    return "session state"


def _keyed_by_session(key: ast.expr) -> bool:
    """Whether a subscript key isolates the write per session."""
    for node in ast.walk(key):
        if isinstance(node, ast.Name) and (
            "session" in node.id.lower() or node.id == "name"
        ):
            return True
        if isinstance(node, ast.Attribute) and (
            "session" in node.attr.lower() or node.attr == "name"
        ):
            return True
    return False


def _check_shared_attributes(project: Project, module: ModuleInfo,
                             shared: Set[int]) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        cls = _enclosing_class(project, record)
        if cls is None or id(cls) not in shared:
            continue
        scope = record.node
        state = _session_state_names(module, scope)
        for base, attr, node in record.attribute_writes():
            if base != "self" or isinstance(node, ast.AugAssign):
                continue
            value = getattr(node, "value", None)
            if value is None or not _is_session_state(module, value, state):
                continue
            yield module.finding(
                "REPRO021", node,
                f"per-session state ({_state_label(module, value)}) is "
                f"written to shared slot '{attr}' of '{cls.short_name}'; "
                f"every other session on the engine reads the same slot — "
                f"key it by session or keep it on the session object",
            )
        for node in iter_scope_nodes(scope):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                base_expr = target.value
                while isinstance(base_expr, ast.Subscript):
                    base_expr = base_expr.value
                if not (isinstance(base_expr, ast.Attribute)
                        and isinstance(base_expr.value, ast.Name)
                        and base_expr.value.id == "self"):
                    continue
                if not _is_session_state(module, node.value, state):
                    continue
                if _keyed_by_session(target.slice):
                    continue
                yield module.finding(
                    "REPRO021", node,
                    f"per-session state ({_state_label(module, node.value)}) "
                    f"is stored in shared '{base_expr.attr}' of "
                    f"'{cls.short_name}' under a key that does not isolate "
                    f"the session; key the slot by session",
                )


# ----------------------------------------------------------------------
# REPRO022 — dispatch off the (due, seq) total order
# ----------------------------------------------------------------------
def _class_scopes(project: Project, record: FunctionRecord) -> List[ast.AST]:
    """Method scopes of ``record``'s class (its own scope included)."""
    if record.class_name is None:
        return [record.node]
    prefix = record.qualname.rsplit(".", 1)[0]
    return [
        sibling.node
        for sibling in _function_scopes(project, record.module)
        if sibling.class_name == record.class_name
        and sibling.qualname.rsplit(".", 1)[0] == prefix
    ]


def _container_kind(value: ast.expr) -> Optional[str]:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in ("set", "frozenset"):
            return "set"
        if value.func.id in ("dict", "list"):
            return value.func.id
    return None


def _slot_label(target: ast.expr, own_scope: bool) -> Optional[str]:
    """A trackable container slot: a local name or a ``self.X`` attribute."""
    if isinstance(target, ast.Name):
        return target.id if own_scope else None
    if isinstance(target, ast.Attribute) \
            and isinstance(target.value, ast.Name) \
            and target.value.id == "self":
        return f"self.{target.attr}"
    return None


def _dispatch_facts(project: Project, module: ModuleInfo,
                    record: FunctionRecord, future_shorts: Set[str],
                    producers: Dict[int, FunctionRecord]
                    ) -> Tuple[Dict[str, str], Set[str]]:
    """Container kinds and future-holding slots visible to ``record``.

    Local names come from ``record``'s own scope; ``self.X`` slots are
    gathered class-wide (a dict initialised in ``__init__`` and filled
    in ``track()`` is still a future store at the dispatch site).
    """
    kinds: Dict[str, str] = {}
    futures: Set[str] = set()
    for scope in _class_scopes(project, record):
        own = scope is record.node
        names = _scope_future_names(project, module, scope, future_shorts,
                                    producers)

        def holds(expr: ast.expr) -> bool:
            return _expr_holds_future(project, module, expr, names,
                                      future_shorts, producers)

        for node in iter_scope_nodes(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                if value is None:
                    continue
                kind = _container_kind(value)
                for target in targets:
                    slot = _slot_label(target, own)
                    if slot is None:
                        if isinstance(target, ast.Subscript):
                            slot = _slot_label(_subscript_base(target), own)
                            if slot is not None and holds(value):
                                futures.add(slot)
                        continue
                    if kind is not None:
                        kinds.setdefault(slot, kind)
                    if holds(value):
                        futures.add(slot)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("add", "append", "insert",
                                           "setdefault")):
                slot = _slot_label(node.func.value, own)
                if slot is not None and any(holds(arg) for arg in node.args):
                    futures.add(slot)
    return kinds, futures


def _seq_keyed(expr: ast.expr) -> bool:
    """Whether ``expr`` references a submission-sequence component."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "seq" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "seq" in node.attr.lower():
            return True
    return False


def _pending_slot(expr: ast.expr, kinds: Dict[str, str], futures: Set[str],
                  own_names: bool = True) -> Optional[str]:
    """The pending-container slot an expression names, or ``None``."""
    slot = _slot_label(expr, own_names)
    if slot is None:
        return None
    normalized = slot.split(".")[-1].lstrip("_")
    if slot in futures:
        return slot
    if normalized in _PENDING_CONTAINER_HINTS and slot in kinds:
        return slot
    return None


def _iterated_exprs(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter


def _unwrap_view(expr: ast.expr) -> ast.expr:
    """Strip a ``.values()``/``.keys()``/``.items()`` view call."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in ("values", "keys", "items") \
            and not expr.args:
        return expr.func.value
    return expr


def _check_scheduling(project: Project, module: ModuleInfo,
                      future_shorts: Set[str],
                      producers: Dict[int, FunctionRecord]
                      ) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        kinds, futures = _dispatch_facts(project, module, record,
                                         future_shorts, producers)
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Call):
                resolved = module.resolve(node.func)
                if resolved in ("heapq.heappush", "heapq.heapreplace") \
                        and len(node.args) >= 2:
                    names = _scope_future_names(project, module, scope,
                                                future_shorts, producers)
                    slot = _pending_slot(node.args[0], kinds, futures)
                    item = node.args[1]
                    item_is_future = _expr_holds_future(
                        project, module, item, names, future_shorts,
                        producers,
                    )
                    if slot is None and not item_is_future:
                        continue
                    ordered = isinstance(item, ast.Tuple) \
                        and len(item.elts) >= 2 \
                        and any(_seq_keyed(elt) for elt in item.elts)
                    if not ordered:
                        label = slot if slot is not None else "heap"
                        yield module.finding(
                            "REPRO022", node,
                            f"completion heap '{label}' is pushed without "
                            f"the (due, seq) total-order key; ties on due "
                            f"break by heap-internal order — push "
                            f"(due, seq, event) tuples",
                        )
                elif isinstance(node.func, ast.Name) \
                        and node.func.id in ("min", "max") and node.args:
                    container = _unwrap_view(node.args[0])
                    slot = _pending_slot(container, kinds, futures)
                    if slot is None:
                        continue
                    key = call_keyword(node, "key")
                    if key is not None and _seq_keyed(key):
                        continue
                    yield module.finding(
                        "REPRO022", node,
                        f"{node.func.id}() over pending completions "
                        f"'{slot}' dispatches outside the (due, seq) total "
                        f"order; pop a (due, seq)-keyed heap (or key by "
                        f"(due, seq)) instead",
                    )
            for iter_expr in _iterated_exprs(node):
                container = _unwrap_view(iter_expr)
                slot = _slot_label(container, True)
                if slot is None:
                    continue
                if kinds.get(slot) not in ("set", "dict") \
                        or slot not in futures:
                    continue
                yield module.finding(
                    "REPRO022", node,
                    f"dispatching pending completions by iterating "
                    f"{kinds[slot]} '{slot}' is {kinds[slot]}-order, not "
                    f"the (due, seq) total order; pop a (due, seq)-keyed "
                    f"heap instead",
                )


# ----------------------------------------------------------------------
# REPRO023 — episode-generator protocol
# ----------------------------------------------------------------------
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


def _episode_generators(project: Project) -> Dict[int, FunctionRecord]:
    """Generator functions implementing the stepwise episode protocol."""
    gens: Dict[int, FunctionRecord] = {}
    for records in project.functions_by_short.values():
        for record in records:
            if not record.is_generator:
                continue
            if record.short_name == "episode" \
                    or _yields_collect_request(record):
                gens[id(record)] = record
    return gens


def _is_episode_call(project: Project, module: ModuleInfo,
                     call: ast.Call, gens: Dict[int, FunctionRecord]) -> bool:
    record = project.lookup_function(module, call.func)
    if record is not None and id(record) in gens:
        return True
    return isinstance(call.func, ast.Attribute) and call.func.attr == "episode"


def _episode_values(project: Project, module: ModuleInfo,
                    record: FunctionRecord, gens: Dict[int, FunctionRecord]
                    ) -> Tuple[Set[str], Set[str]]:
    """Local names / class-wide ``self.X`` slots holding an episode frame."""
    names: Set[str] = set()
    attrs: Set[str] = set()
    args = getattr(record.node, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == "episode":
                names.add(arg.arg)
    for scope in _class_scopes(project, record):
        own = scope is record.node
        for node in iter_scope_nodes(scope):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)
                    and _is_episode_call(project, module, node.value, gens)):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and own:
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                resolved = module.resolve(target)
                if resolved is not None:
                    attrs.add(resolved)
    return names, attrs


def _matches_episode(module: ModuleInfo, expr: ast.expr, names: Set[str],
                     attrs: Set[str]) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Attribute):
        return module.resolve(expr) in attrs
    return False


def _in_loop(module: ModuleInfo, node: ast.AST, scope: ast.AST) -> bool:
    for ancestor in module.ancestors(node):
        if ancestor is scope:
            return False
        if isinstance(ancestor, (ast.While, ast.For, ast.AsyncFor)):
            return True
    return False


def _class_closes(project: Project, record: FunctionRecord,
                  attr: str) -> bool:
    """Whether any method of ``record``'s class calls ``self.<attr>.close()``."""
    wanted = f"self.{attr}"
    for scope in _class_scopes(project, record):
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "close" \
                    and record.module.resolve(node.func.value) == wanted:
                return True
    return False


def _check_yield_in_try(gens: Dict[int, FunctionRecord]) -> Iterator[Finding]:
    for record in gens.values():
        module = record.module
        for node in iter_scope_nodes(record.node):
            if not isinstance(node, (ast.Yield, ast.YieldFrom)):
                continue
            for ancestor in module.ancestors(node):
                if ancestor is record.node:
                    break
                if isinstance(ancestor, ast.Try):
                    if not ancestor.finalbody:
                        yield module.finding(
                            "REPRO023", node,
                            f"yield inside try without finally in episode "
                            f"generator '{record.qualname}': a close() "
                            f"during the suspension skips the handler's "
                            f"cleanup — add finally or move the yield out",
                        )
                    break  # judge the innermost try only


def _check_generator_protocol(project: Project, module: ModuleInfo,
                              gens: Dict[int, FunctionRecord]
                              ) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        names, attrs = _episode_values(project, module, record, gens)
        if names or attrs:
            nexts = []
            sends = []
            for node in iter_scope_nodes(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)) \
                        and _matches_episode(module, node.iter, names, attrs):
                    label = (node.iter.id if isinstance(node.iter, ast.Name)
                             else module.resolve(node.iter))
                    yield module.finding(
                        "REPRO023", node,
                        f"episode generator '{label}' is advanced by "
                        f"iteration, which sends None each step — the "
                        f"collected records never reach the episode; drive "
                        f"it with send(records) after a priming next()",
                    )
                elif isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Name) \
                            and node.func.id == "next" and node.args \
                            and _matches_episode(module, node.args[0],
                                                 names, attrs):
                        nexts.append(node)
                    elif isinstance(node.func, ast.Attribute) \
                            and node.func.attr == "send" \
                            and _matches_episode(module, node.func.value,
                                                 names, attrs):
                        sends.append(node)
            if nexts and not sends and (
                len(nexts) >= 2
                or any(_in_loop(module, n, scope) for n in nexts)
            ):
                yield module.finding(
                    "REPRO023", nexts[0],
                    f"episode generator in '{record.qualname}' is advanced "
                    f"with next() but never handed records via send(); the "
                    f"protocol is one priming next(), then send(records) "
                    f"for every batch",
                )
        if record.is_method:
            for base, attr, node in record.attribute_writes():
                if base != "self":
                    continue
                value = getattr(node, "value", None)
                if not isinstance(value, ast.Call) \
                        or not _is_episode_call(project, module, value, gens):
                    continue
                if _class_closes(project, record, attr):
                    continue
                yield module.finding(
                    "REPRO023", node,
                    f"episode generator parked on 'self.{attr}' with no "
                    f"close() path anywhere in the class; an abort or "
                    f"fault leaves a suspended generator frame (and its "
                    f"platform references) alive — add a close() path",
                )


# ----------------------------------------------------------------------
# REPRO024 — delivered payloads mutated after delivery
# ----------------------------------------------------------------------
def _is_delivery_assignment(module: ModuleInfo, value: ast.expr) -> bool:
    if isinstance(value, ast.Call):
        resolved = module.resolve(value.func)
        tail = resolved.rsplit(".", 1)[-1] if resolved is not None else None
        if tail is None and isinstance(value.func, ast.Attribute):
            tail = value.func.attr
        return tail in _DELIVERY_CALLS
    return isinstance(value, ast.ListComp) \
        and isinstance(value.elt, ast.Attribute) \
        and value.elt.attr == "record"


def _mutation_of(project: Project, module: ModuleInfo, node: ast.AST,
                 name: str, mutators: Dict[int, Set[str]]) -> Optional[str]:
    """How ``node`` mutates ``name`` in place, or ``None``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATING_METHODS \
            and isinstance(node.func.value, ast.Name) \
            and node.func.value.id == name:
        return f"via .{node.func.attr}()"
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if not isinstance(target, (ast.Subscript, ast.Attribute)):
                continue
            base: ast.expr = target
            if isinstance(base, ast.Attribute):
                base = base.value
            base = _subscript_base(base)
            if isinstance(base, ast.Name) and base.id == name:
                return "via item/attribute assignment"
    if isinstance(node, ast.Call):
        callee = project.lookup_function(module, node.func)
        if callee is not None and id(callee) in mutators:
            for param, arg in bind_arguments(callee, node):
                if param in mutators[id(callee)] \
                        and isinstance(arg, ast.Name) and arg.id == name:
                    return (f"via {callee.qualname}(), which mutates "
                            f"'{param}' in place")
    return None


def _check_delivery_alias(project: Project, module: ModuleInfo,
                          mutators: Dict[int, Set[str]]) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        delivered: List[Tuple[str, ast.stmt]] = []
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and _is_delivery_assignment(module, node.value):
                delivered.append((node.targets[0].id, node))
        for name, statement in delivered:
            end = getattr(statement, "end_lineno", statement.lineno)
            for node in iter_scope_nodes(scope):
                if getattr(node, "lineno", 0) <= end:
                    continue
                how = _mutation_of(project, module, node, name, mutators)
                if how is None:
                    continue
                yield module.finding(
                    "REPRO024", node,
                    f"delivered records '{name}' are mutated after "
                    f"delivery ({how}); the session's history and answer "
                    f"log alias the same objects, so the books are "
                    f"rewritten — copy before mutating",
                )
                break


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_serve(project: Project) -> Iterator[Finding]:
    """Run the six serve-safety rules over the whole project."""
    future_shorts = _future_class_shorts(project)
    producers = _future_producers(project, future_shorts)
    gens = _episode_generators(project)
    mutators = _collect_mutators(project)
    shared = _shared_classes(project)
    yield from _check_blocking(project, gens)
    yield from _check_yield_in_try(gens)
    for module in project.modules:
        yield from _check_dropped_futures(project, module, future_shorts,
                                          producers)
        yield from _check_shared_attributes(project, module, shared)
        yield from _check_scheduling(project, module, future_shorts,
                                     producers)
        yield from _check_generator_protocol(project, module, gens)
        yield from _check_delivery_alias(project, module, mutators)
