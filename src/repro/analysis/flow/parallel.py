"""Parallel-safety rules: REPRO013-018.

The sharded experiment engine (ROADMAP: ``repro bench --parallel N``)
fans sweep points out over ``multiprocessing`` workers and promises
bit-identical per-shard results.  Everything that silently breaks that
promise is *shared state the type system cannot see*: module globals a
forked child inherits, a parent RNG stream pickled into two workers,
closures that only explode inside the pool, in-place mutation aliased
across a shard boundary, float reductions whose value depends on merge
order, and workers that read their environment instead of their
payload.  Each hazard gets a static rule:

* **REPRO013 — module-global mutable state written after import time.**
  A dict/list/set/array bound at module scope and mutated (or rebound
  via ``global``) from a function body is per-process state: a fork
  clones it, a spawn resets it, and either way shards diverge from the
  serial run.  Deliberate per-process state is annotated on its
  defining line with ``# repro: process-local — <why it is safe>``;
  anything unannotated is a finding.
* **REPRO014 — a parent RNG stream crossing a process boundary.**
  Handing one ``Generator`` to a worker (captured by the payload,
  passed as an argument, or pickled) forks its state: parent and child
  then replay the same draws.  Derive children (``spawn_rngs`` /
  ``Generator.spawn``) or pass plain seeds; both forms stay silent.
* **REPRO015 — unpicklable worker payloads.**  Lambdas, and closures
  over locks, open files, or generator expressions, reach the submit
  call site fine and explode only inside the worker.  Flagged at the
  submission, where the fix (a module-level function taking explicit
  arguments) is decided.
* **REPRO016 — in-place mutation read by another component.**  A callee
  that mutates a parameter (``+=``, ``x[...] = v``, ``.sort()``,
  ``x.attr = v``) while the caller hands the same object to a
  *different* component afterwards aliases state across what the
  sharded engine assumes are independent inputs.  Out-parameter
  accumulators handed repeatedly to one component stay silent.
* **REPRO017 — order-dependent reductions over unordered containers.**
  Float addition is not associative: accumulating over a set (hash
  order) or over a dict assembled by ``.update`` merges (merge order)
  yields shard-count-dependent results.  ``sorted(...)`` at the use
  site or ``math.fsum`` (exact, order-independent) are the recognised
  fixes.
* **REPRO018 — environment reads inside worker-reachable code.**
  ``os.environ``/``os.getenv``/``tempfile``/``os.getcwd`` inside any
  function reachable from a worker entry point makes the shard's result
  depend on the worker's inherited environment; thread explicit
  settings and paths through the payload instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.engine import Finding
from repro.analysis.flow.project import (
    FunctionRecord,
    ModuleInfo,
    Project,
    bind_arguments,
    bound_names,
    call_keyword,
    enclosing_scopes,
    free_loads,
    iter_scope_nodes,
)
from repro.analysis.flow.rng import _GENERATOR_CONSTRUCTORS

#: Methods that mutate their receiver in place (list/set/dict/ndarray).
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "add", "discard", "setdefault", "popitem",
    "fill", "put", "resize", "itemset", "partition", "byteswap",
}

#: Parameter names that mean "this argument is a Generator" (note:
#: ``seed`` is deliberately absent — passing a plain seed across a
#: process boundary is the sanctioned pattern REPRO014 points at).
_GEN_PARAM_NAMES = {"rng", "_rng", "generator", "random_state"}

#: Attribute calls that hand work to another process.
_SUBMIT_METHODS = {
    "submit", "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "apply", "apply_async",
}

#: Constructors whose ``target=`` runs in a child process.
_PROCESS_CONSTRUCTORS = {
    "multiprocessing.Process",
    "multiprocessing.context.Process",
}

#: Serialisation entry points a payload must survive.
_PICKLERS = {
    "pickle.dumps", "pickle.dump",
    "cloudpickle.dumps", "cloudpickle.dump",
    "dill.dumps", "dill.dump",
}

#: Constructors whose result cannot cross a pickle boundary.
_LOCK_CONSTRUCTORS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
}

#: Environment/cwd/tempfile reads that make a worker's result depend on
#: its inherited process environment.
_ENV_READ_CALLS = {
    "os.getenv", "os.getcwd", "os.getcwdb",
    "os.environ.get", "os.environ.setdefault", "os.environ.copy",
    "tempfile.gettempdir", "tempfile.gettempprefix",
    "tempfile.mkstemp", "tempfile.mkdtemp",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
    "tempfile.SpooledTemporaryFile", "tempfile.TemporaryDirectory",
    "pathlib.Path.cwd",
}


def _subscript_base(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _function_scopes(project: Project,
                     module: ModuleInfo) -> Iterator[FunctionRecord]:
    """Every function record defined in ``module``."""
    for records in project.functions_by_short.values():
        for record in records:
            if record.module is module and isinstance(
                record.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield record


# ----------------------------------------------------------------------
# REPRO013 — module-global mutable state written after import time
# ----------------------------------------------------------------------
def _global_mutations(project: Project) -> Dict[str, Set[str]]:
    """Map each mutated module-global key to the functions mutating it."""
    mutations: Dict[str, Set[str]] = {}

    def note(module: ModuleInfo, name: str, local: Set[str],
             qualname: str) -> None:
        if name in local:
            return  # a shadowing local, not the module global
        record = project.resolve_global(module, name)
        if record is not None:
            mutations.setdefault(record.key(), set()).add(qualname)

    for module in project.modules:
        for record in _function_scopes(project, module):
            scope = record.node
            local = bound_names(scope)
            declared_global: Set[str] = set()
            for node in iter_scope_nodes(scope):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in iter_scope_nodes(scope):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        base = _subscript_base(target)
                        if not isinstance(base, ast.Name):
                            continue
                        is_item_write = isinstance(target, ast.Subscript)
                        is_rebinding = base.id in declared_global
                        if is_item_write or is_rebinding:
                            note(module, base.id, local, record.qualname)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        base = _subscript_base(target)
                        if isinstance(base, ast.Name) and isinstance(
                            target, ast.Subscript
                        ):
                            note(module, base.id, local, record.qualname)
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in MUTATING_METHODS
                        and isinstance(node.func.value, ast.Name)):
                    note(module, node.func.value.id, local, record.qualname)
    return mutations


def _check_module_globals(project: Project) -> Iterator[Finding]:
    mutations = _global_mutations(project)
    for key in sorted(mutations):
        record = project.module_globals[key]
        if record.process_local:
            continue  # deliberately per-process, justified at the definition
        writers = ", ".join(sorted(mutations[key]))
        yield record.module.finding(
            "REPRO013", record.node,
            f"module-global '{record.name}' is written after import time "
            f"by {writers}; forked workers clone it and spawned workers "
            f"reset it, so shards diverge — refactor to explicit ownership "
            f"or annotate the definition '# repro: process-local — <why>'",
        )


# ----------------------------------------------------------------------
# Process-boundary submissions (shared by REPRO014/015/018)
# ----------------------------------------------------------------------
class Submission:
    """One call site that ships a payload to another process (or pickle)."""

    def __init__(self, call: ast.Call, payload: Optional[ast.expr],
                 extras: Sequence[ast.expr], label: str) -> None:
        self.call = call
        self.payload = payload
        self.extras = list(extras)
        self.label = label


def find_submissions(module: ModuleInfo, scope: ast.AST) -> List[Submission]:
    """Submission sites in ``scope``'s own scope (nested defs excluded)."""
    submissions: List[Submission] = []
    for node in iter_scope_nodes(scope):
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve(node.func)
        if resolved in _PICKLERS:
            if node.args:
                submissions.append(Submission(
                    node, node.args[0], node.args[1:],
                    resolved.rsplit(".", 1)[-1] + "()",
                ))
        elif resolved in _PROCESS_CONSTRUCTORS:
            target = call_keyword(node, "target")
            extras = [call_keyword(node, "args"),
                      call_keyword(node, "kwargs")]
            submissions.append(Submission(
                node, target, [e for e in extras if e is not None],
                "Process(target=...)",
            ))
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
                and node.args
                and isinstance(node.args[0],
                               (ast.Name, ast.Attribute, ast.Lambda))):
            submissions.append(Submission(
                node, node.args[0],
                list(node.args[1:]) + [k.value for k in node.keywords],
                f".{node.func.attr}()",
            ))
    return submissions


def _payload_record(project: Project, module: ModuleInfo, scope: ast.AST,
                    payload: ast.expr) -> Optional[Tuple[ast.AST, str]]:
    """The payload's definition node and label, preferring nested defs.

    A nested ``def`` submitted by name is looked up in the submitting
    scope first (that is the closure case); otherwise the project-wide
    function table resolves it.
    """
    if isinstance(payload, ast.Lambda):
        return payload, "<lambda>"
    if isinstance(payload, ast.Name):
        for node in iter_scope_nodes(scope):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == payload.id):
                return node, node.name
    record = project.lookup_function(module, payload)
    if record is not None:
        return record.node, record.qualname
    return None


# ----------------------------------------------------------------------
# REPRO014 — a parent Generator crossing the process boundary
# ----------------------------------------------------------------------
def _generator_locals(module: ModuleInfo, scope: ast.AST) -> Set[str]:
    """Names in ``scope`` that hold a *parent* Generator stream.

    Parameters named like a generator, and locals assigned from a
    generator constructor.  Spawn derivations (``spawn_rngs``,
    ``Generator.spawn``) are excluded — their children are exactly what
    should cross the boundary.  Unlike REPRO009's stream set, ``seed``
    is not generator-like here: passing a seed to a worker is the fix.
    """
    names: Set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in _GEN_PARAM_NAMES:
                names.add(arg.arg)
    for node in iter_scope_nodes(scope):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            resolved = module.resolve(value.func)
            if resolved in _GENERATOR_CONSTRUCTORS:
                names.add(target.id)
            elif resolved == "repro.utils.rng.spawn_rngs" or (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "spawn"
            ):
                names.discard(target.id)
        elif isinstance(value, ast.Name) and value.id in names:
            names.add(target.id)
    return names


def _visible_generators(module: ModuleInfo, scope: ast.AST) -> Set[str]:
    """Generator names usable in ``scope``: its own plus captured ones."""
    names = _generator_locals(module, scope)
    shadowed = bound_names(scope)
    for enclosing in enclosing_scopes(module, scope):
        names |= _generator_locals(module, enclosing) - shadowed
    return names


def _names_in(expr: ast.expr) -> Set[str]:
    return {node.id for node in ast.walk(expr)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _check_rng_boundary(project: Project,
                        module: ModuleInfo) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        generators = _visible_generators(module, scope)
        if not generators:
            continue
        for submission in find_submissions(module, scope):
            payload = submission.payload
            if payload is None:
                continue
            if isinstance(payload, ast.Name) and payload.id in generators:
                yield module.finding(
                    "REPRO014", payload,
                    f"Generator '{payload.id}' crosses a process boundary "
                    f"via {submission.label}; parent and worker then replay "
                    f"the same draws — derive a child via spawn_rngs/"
                    f"Generator.spawn or pass a seed",
                )
                continue
            resolved = _payload_record(project, module, scope, payload)
            if resolved is not None:
                node, label = resolved
                captured = sorted(free_loads(node) & generators)
                if captured:
                    yield module.finding(
                        "REPRO014", payload,
                        f"worker payload '{label}' closes over parent "
                        f"Generator '{captured[0]}'; every worker forks the "
                        f"same stream state — derive child streams or pass "
                        f"seeds through the payload arguments",
                    )
            for extra in submission.extras:
                for name in sorted(_names_in(extra) & generators):
                    yield module.finding(
                        "REPRO014", extra,
                        f"parent Generator '{name}' is passed into "
                        f"{submission.label}; shards sharing one stream "
                        f"cannot be bit-identical — spawn a child per "
                        f"worker or send seeds",
                    )


# ----------------------------------------------------------------------
# REPRO015 — unpicklable worker payloads
# ----------------------------------------------------------------------
def _unpicklable_locals(module: ModuleInfo, scope: ast.AST) -> Dict[str, str]:
    """Local name -> human label of an unpicklable value it holds."""
    kinds: Dict[str, str] = {}

    def classify(value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.GeneratorExp):
            return "generator expression"
        if isinstance(value, ast.Call):
            resolved = module.resolve(value.func)
            if resolved == "open" or (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "open"
            ):
                return "open file handle"
            if resolved in _LOCK_CONSTRUCTORS:
                return "thread lock"
        return None

    for node in iter_scope_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            kind = classify(node.value)
            if kind is not None:
                kinds[node.targets[0].id] = kind
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    kind = classify(item.context_expr)
                    if kind is not None:
                        kinds[item.optional_vars.id] = kind
    return kinds


def _check_picklability(project: Project,
                        module: ModuleInfo) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        submissions = find_submissions(module, scope)
        if not submissions:
            continue
        unpicklable = _unpicklable_locals(module, scope)
        for enclosing in enclosing_scopes(module, scope):
            shadowed = bound_names(scope)
            for name, kind in _unpicklable_locals(module, enclosing).items():
                if name not in shadowed:
                    unpicklable.setdefault(name, kind)
        for submission in submissions:
            payload = submission.payload
            if payload is None:
                continue
            if isinstance(payload, ast.Lambda):
                yield module.finding(
                    "REPRO015", payload,
                    f"lambda payload reaches {submission.label} but cannot "
                    f"be pickled into a worker process; define a "
                    f"module-level function instead",
                )
            elif isinstance(payload, ast.Name) and payload.id in unpicklable:
                yield module.finding(
                    "REPRO015", payload,
                    f"payload '{payload.id}' holds a "
                    f"{unpicklable[payload.id]}, which cannot be pickled "
                    f"into a worker process",
                )
            else:
                resolved = _payload_record(project, module, scope, payload)
                if resolved is not None:
                    node, label = resolved
                    captured = sorted(
                        free_loads(node) & set(unpicklable)
                    )
                    if captured:
                        kind = unpicklable[captured[0]]
                        yield module.finding(
                            "REPRO015", payload,
                            f"worker payload '{label}' closes over "
                            f"{kind} '{captured[0]}' and will fail to "
                            f"pickle at {submission.label}; pass explicit "
                            f"picklable arguments instead",
                        )
            for extra in submission.extras:
                if isinstance(extra, ast.Lambda):
                    yield module.finding(
                        "REPRO015", extra,
                        f"lambda argument reaches {submission.label} but "
                        f"cannot be pickled into a worker process",
                    )
                    continue
                for name in sorted(_names_in(extra) & set(unpicklable)):
                    yield module.finding(
                        "REPRO015", extra,
                        f"{unpicklable[name]} '{name}' is shipped to "
                        f"{submission.label} but cannot be pickled into a "
                        f"worker process",
                    )


# ----------------------------------------------------------------------
# REPRO016 — in-place mutation read by another component afterwards
# ----------------------------------------------------------------------
def _mutated_parameters(record: FunctionRecord) -> Set[str]:
    """Parameters ``record`` mutates in place in its own scope."""
    params = set(record.parameters())
    if not params:
        return set()
    mutated: Set[str] = set()
    for node in iter_scope_nodes(record.node):
        if isinstance(node, ast.AugAssign):
            base = _subscript_base(node.target)
            if isinstance(base, ast.Name) and base.id in params:
                mutated.add(base.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    base = _subscript_base(target)
                    if isinstance(base, ast.Name) and base.id in params:
                        mutated.add(base.id)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in params):
            mutated.add(node.func.value.id)
    for base, _attr, _node in record.attribute_writes():
        if base in params:
            mutated.add(base)
    return mutated


def _call_label(module: ModuleInfo, call: ast.Call) -> str:
    resolved = module.resolve(call.func)
    if resolved is not None:
        return resolved
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return getattr(call.func, "id", "<call>")


def _collect_mutators(project: Project) -> Dict[int, Set[str]]:
    """``id(record)`` -> the parameters that record mutates in place."""
    mutators: Dict[int, Set[str]] = {}
    for records in project.functions_by_short.values():
        for record in records:
            mutated = _mutated_parameters(record)
            if mutated:
                mutators[id(record)] = mutated
    return mutators


def _check_aliased_mutation(project: Project, module: ModuleInfo,
                            mutators: Dict[int, Set[str]]
                            ) -> Iterator[Finding]:
    if not mutators:
        return
    for caller in _function_scopes(project, module):
        scope = caller.node
        calls = [node for node in iter_scope_nodes(scope)
                 if isinstance(node, ast.Call)]
        for call in calls:
            callee = project.lookup_function(module, call.func)
            if callee is None or id(callee) not in mutators:
                continue
            mutated = mutators[id(callee)]
            statement = module.enclosing_statement(call)
            if statement is None:
                continue
            end = getattr(statement, "end_lineno", statement.lineno)
            mutating_label = _call_label(module, call)
            for param, arg in bind_arguments(callee, call):
                if param not in mutated or not isinstance(arg, ast.Name):
                    continue
                for later in calls:
                    if later.lineno <= end or later is call:
                        continue
                    if _call_label(module, later) == mutating_label:
                        continue  # same component: an out-param accumulator
                    later_args = list(later.args) + [
                        k.value for k in later.keywords
                    ]
                    if any(arg.id in _names_in(a) for a in later_args):
                        yield module.finding(
                            "REPRO016", call,
                            f"{callee.qualname}() mutates parameter "
                            f"'{param}' in place, and '{arg.id}' is read "
                            f"by {_call_label(module, later)} afterwards; "
                            f"the mutation aliases across components — "
                            f"pass a copy or return the new value",
                        )
                        break
                else:
                    continue
                break


# ----------------------------------------------------------------------
# REPRO017 — order-dependent reductions over unordered containers
# ----------------------------------------------------------------------
def _is_set_expr(module: ModuleInfo, node: ast.expr,
                 set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return _is_set_expr(module, node.func.value, set_locals)
    return False


def _merged_dict_locals(module: ModuleInfo, scope: ast.AST) -> Set[str]:
    """Names of dicts assembled by ``.update(...)`` / ``|=`` merges.

    These are the shard-merge accumulators whose insertion order depends
    on merge order; iterating them into a float reduction is the
    REPRO017 hazard even though a single-process dict is
    insertion-ordered.
    """
    merged: Set[str] = set()
    for node in iter_scope_nodes(scope):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Name)):
            merged.add(node.func.value.id)
        elif (isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.BitOr)
                and isinstance(node.target, ast.Name)):
            merged.add(node.target.id)
    return merged


def _unordered_iter_label(module: ModuleInfo, node: ast.expr,
                          set_locals: Set[str],
                          merged: Set[str]) -> Optional[str]:
    if _is_set_expr(module, node, set_locals):
        return "a set"
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "items", "keys")
            and not node.args
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in merged):
        return f"merge-built dict '{node.func.value.id}'"
    return None


def _check_reductions(project: Project,
                      module: ModuleInfo) -> Iterator[Finding]:
    for record in _function_scopes(project, module):
        scope = record.node
        set_locals = {
            node.targets[0].id
            for node in iter_scope_nodes(scope)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_set_expr(module, node.value, set())
        }
        merged = _merged_dict_locals(module, scope)

        for node in iter_scope_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                label = _unordered_iter_label(
                    module, node.iter, set_locals, merged)
                if label is None:
                    continue
                for child in node.body:
                    accumulations = [
                        inner for inner in ast.walk(child)
                        if isinstance(inner, ast.AugAssign)
                        and isinstance(inner.op, (ast.Add, ast.Sub, ast.Mult))
                    ]
                    if accumulations:
                        yield module.finding(
                            "REPRO017", accumulations[0],
                            f"accumulating while iterating {label}: float "
                            f"addition is not associative, so the result "
                            f"depends on iteration/merge order — iterate "
                            f"sorted(...) or use math.fsum",
                        )
                        break
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ) and node.func.id == "sum" and node.args:
                argument = node.args[0]
                iters: List[ast.expr] = []
                if isinstance(argument,
                              (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    iters = [gen.iter for gen in argument.generators]
                else:
                    iters = [argument]
                for it in iters:
                    label = _unordered_iter_label(
                        module, it, set_locals, merged)
                    if label is not None:
                        yield module.finding(
                            "REPRO017", node,
                            f"sum() over {label} depends on iteration/"
                            f"merge order; use math.fsum (exact and "
                            f"order-independent) or sum over sorted(...)",
                        )
                        break


# ----------------------------------------------------------------------
# REPRO018 — environment reads in worker-reachable functions
# ----------------------------------------------------------------------
def _worker_entries(project: Project) -> Dict[int, Tuple[FunctionRecord, str]]:
    """Function records submitted as worker payloads anywhere in the project."""
    entries: Dict[int, Tuple[FunctionRecord, str]] = {}
    for module in project.modules:
        for caller in _function_scopes(project, module):
            for submission in find_submissions(module, caller.node):
                payload = submission.payload
                if payload is None:
                    continue
                if isinstance(payload, ast.Lambda):
                    for node in ast.walk(payload):
                        if isinstance(node, ast.Call):
                            target = project.lookup_function(
                                module, node.func)
                            if target is not None:
                                entries.setdefault(
                                    id(target), (target, target.qualname))
                    continue
                target = project.lookup_function(module, payload)
                if target is not None:
                    entries.setdefault(id(target), (target, target.qualname))
    return entries


def _reachable(project: Project,
               entries: Dict[int, Tuple[FunctionRecord, str]]
               ) -> Dict[int, Tuple[FunctionRecord, str]]:
    """Transitive closure of the call graph from the worker entries."""
    reached = dict(entries)
    frontier = list(entries.values())
    while frontier:
        record, entry = frontier.pop()
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            callee = project.lookup_function(record.module, node.func)
            if callee is not None and id(callee) not in reached:
                reached[id(callee)] = (callee, entry)
                frontier.append((callee, entry))
    return reached


def _check_worker_env(project: Project) -> Iterator[Finding]:
    reached = _reachable(project, _worker_entries(project))
    seen: Set[Tuple[str, int, int]] = set()
    for record, entry in reached.values():
        module = record.module
        for node in ast.walk(record.node):
            resolved: Optional[str] = None
            if isinstance(node, ast.Call):
                resolved = module.resolve(node.func)
                if resolved not in _ENV_READ_CALLS:
                    resolved = None
            elif isinstance(node, ast.Subscript):
                if module.resolve(node.value) == "os.environ":
                    resolved = "os.environ"
            elif isinstance(node, ast.Attribute):
                parent = module.parent(node)
                if not isinstance(parent, (ast.Attribute, ast.Call,
                                           ast.Subscript)):
                    if module.resolve(node) == "os.environ":
                        resolved = "os.environ"
            if resolved is None:
                continue
            key = (module.path, node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield module.finding(
                "REPRO018", node,
                f"'{resolved}' read inside '{record.qualname}', which is "
                f"reachable from worker entry '{entry}'; the shard's "
                f"result then depends on the worker's inherited "
                f"environment — pass explicit settings/paths through the "
                f"payload",
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_parallel(project: Project) -> Iterator[Finding]:
    """Run the six parallel-safety rules over the whole project."""
    yield from _check_module_globals(project)
    mutators = _collect_mutators(project)
    for module in project.modules:
        yield from _check_rng_boundary(project, module)
        yield from _check_picklability(project, module)
        yield from _check_aliased_mutation(project, module, mutators)
        yield from _check_reductions(project, module)
    yield from _check_worker_env(project)
