"""RNG provenance engine: REPRO007, REPRO008, REPRO009.

Reproducibility in this codebase rests on one convention: every
stochastic draw comes from a :class:`numpy.random.Generator` that traces
back to an explicit seed through ``repro.utils.rng.as_rng`` /
``spawn_rngs`` / ``Generator.spawn``.  Three things silently break that
chain, and each gets a rule:

* **REPRO007 — unseeded generator construction.**  ``default_rng()``
  with no argument (or a literal ``None``) mints a fresh OS-entropy
  stream, so two identical runs diverge.  The flow pass follows the
  indirect forms the single-module linter cannot: a dataclass
  ``field(default_factory=...)`` whose factory — directly, via a lambda,
  or via a project helper function — bottoms out in an unseeded
  constructor, and call/parameter defaults resolved through imports.
* **REPRO008 — global numpy RNG state escaping into dataflow.**
  Binding the ``np.random`` *module object* to a variable, passing it as
  an argument, or returning it reintroduces process-global state that
  REPRO001 only catches at direct call sites (REPRO001 also reports
  ``np.random.seed``/``set_state``/``get_state`` calls).
* **REPRO009 — one stream shared across phases.**  Handing the *same*
  generator variable to two or more distinct components couples their
  draw sequences: adding one draw in component A silently perturbs
  component B.  Derive child streams with ``spawn_rngs`` /
  ``Generator.spawn`` instead.

The blessed coercion point ``repro.utils.rng`` is exempt from REPRO007 —
``as_rng(None)`` *is* the documented "give me an arbitrary stream"
escape hatch, and flagging its implementation would flag the cure.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.lint.engine import Finding
from repro.analysis.flow.project import (
    ModuleInfo,
    Project,
    bound_names,
    call_keyword,
    enclosing_scopes,
    iter_scope_nodes,
)

#: Fully qualified constructors that mint a generator from a seed argument.
_GENERATOR_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "repro.utils.rng.as_rng",
}

#: Callables that legitimately *receive* a stream without "consuming a phase".
_COERCION_FUNCTIONS = {
    "repro.utils.rng.as_rng",
    "repro.utils.rng.spawn_rngs",
    "isinstance",
    "id",
    "repr",
    "str",
}

#: Parameter names that mean "this argument is an RNG stream".
RNG_PARAM_NAMES = {"rng", "_rng", "seed", "generator", "random_state"}

#: The module whose job is to construct generators from loose seeds.
_EXEMPT_MODULES = {"repro.utils.rng"}


def _is_none(node: Optional[ast.expr]) -> bool:
    return node is None or (
        isinstance(node, ast.Constant) and node.value is None
    )


# ----------------------------------------------------------------------
# REPRO007 — unseeded generator construction
# ----------------------------------------------------------------------
def _unseeded_call(module: ModuleInfo, node: ast.expr) -> Optional[str]:
    """Constructor name if ``node`` is an unseeded generator call."""
    if not isinstance(node, ast.Call):
        return None
    target = module.resolve(node.func)
    if target not in _GENERATOR_CONSTRUCTORS:
        return None
    seed = node.args[0] if node.args else call_keyword(node, "seed")
    if seed is None:
        for keyword in node.keywords:  # as_rng's parameter is named 'seed'
            if keyword.arg in RNG_PARAM_NAMES:
                seed = keyword.value
    if _is_none(seed):
        return target
    return None


def _factory_is_unseeded(project: Project, module: ModuleInfo,
                         factory: ast.expr,
                         _seen: Optional[Set[str]] = None) -> Optional[str]:
    """Whether a ``default_factory`` expression yields an unseeded stream.

    Handles the three indirections: a bare reference to a constructor
    (called with zero arguments by the dataclass machinery), a lambda
    whose body constructs unseeded, and a project function whose return
    expressions do.  The walk is unbounded in depth but cycle-guarded:
    each project function is followed at most once per chain, so
    mutually recursive factories terminate quietly.
    """
    seen = set() if _seen is None else _seen

    def follow(record) -> Optional[str]:
        name = record.full_name()
        if name in seen:
            return None
        seen.add(name)
        for expr in project.return_expressions(record):
            verdict = _factory_is_unseeded(project, record.module, expr, seen)
            if verdict is None and isinstance(expr, ast.Call):
                verdict = _unseeded_call(record.module, expr)
            if verdict is not None:
                return verdict
        return None

    # Bare reference: dataclasses call it with no arguments.
    if isinstance(factory, (ast.Name, ast.Attribute)):
        target = module.resolve(factory)
        if target in _GENERATOR_CONSTRUCTORS:
            return target
        record = project.lookup_function(module, factory)
        if record is not None and not record.parameters():
            return follow(record)
        return None
    if isinstance(factory, ast.Lambda):
        return _factory_is_unseeded(project, module, factory.body, seen)
    if isinstance(factory, ast.Call):
        direct = _unseeded_call(module, factory)
        if direct is not None:
            return direct
        record = project.lookup_function(module, factory.func)
        if record is not None and not factory.args and not factory.keywords:
            return follow(record)
    return None


def _check_unseeded(project: Project, module: ModuleInfo) -> Iterator[Finding]:
    if module.name in _EXEMPT_MODULES:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _unseeded_call(module, node)
        if target is not None:
            yield module.finding(
                "REPRO007", node,
                f"unseeded '{target.rsplit('.', 1)[-1]}()' mints a fresh "
                f"entropy stream; thread a seed via repro.utils.rng.as_rng "
                f"or spawn_rngs",
            )
            continue
        # field(default_factory=...) resolving to an unseeded factory.
        if module.resolve(node.func) in ("dataclasses.field", "field"):
            factory = call_keyword(node, "default_factory")
            if factory is None:
                continue
            verdict = _factory_is_unseeded(project, module, factory)
            if verdict is not None:
                yield module.finding(
                    "REPRO007", node,
                    f"default_factory resolves to unseeded "
                    f"'{verdict.rsplit('.', 1)[-1]}'; construction order "
                    f"then decides the stream — accept an explicit "
                    f"Generator instead",
                )


# ----------------------------------------------------------------------
# REPRO008 — the np.random module object escaping into dataflow
# ----------------------------------------------------------------------
def _is_np_random_module(module: ModuleInfo, node: ast.expr) -> bool:
    return module.resolve(node) == "numpy.random"


def _check_global_state(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if _is_np_random_module(module, arg):
                    yield module.finding(
                        "REPRO008", arg,
                        "the global 'np.random' module object is passed as "
                        "an argument; pass a seeded np.random.Generator",
                    )
        elif isinstance(node, ast.Assign):
            if _is_np_random_module(module, node.value):
                # ``import numpy.random`` style aliases are import nodes,
                # not assigns, so anything here is a real rebinding.
                yield module.finding(
                    "REPRO008", node,
                    "binding the global 'np.random' module as a value "
                    "smuggles process-global state past the linter; bind "
                    "a seeded Generator instead",
                )
        elif isinstance(node, ast.Return) and node.value is not None:
            if _is_np_random_module(module, node.value):
                yield module.finding(
                    "REPRO008", node,
                    "returning the global 'np.random' module hands callers "
                    "process-global state; return a seeded Generator",
                )


# ----------------------------------------------------------------------
# REPRO009 — one stream handed to several components
# ----------------------------------------------------------------------
def _rng_locals(module: ModuleInfo, fn: ast.AST) -> Set[str]:
    """Names in ``fn``'s own scope that (likely) hold a generator stream.

    A parameter named like an RNG, or a local assigned from a generator
    constructor.  Children of ``spawn_rngs``/``.spawn`` are *distinct*
    streams, so subscripted/unpacked spawn results are excluded — handing
    two different children to two components is the sanctioned pattern.
    Nested defs/lambdas track their own locals (and capture this scope's
    via :func:`_visible_streams`).
    """
    names: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in RNG_PARAM_NAMES:
                names.add(arg.arg)
    for node in iter_scope_nodes(fn):
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
                names.discard(target.id)  # a *list* of independent children
        elif isinstance(value, ast.Name) and value.id in names:
            names.add(target.id)
    return names


def _visible_streams(module: ModuleInfo, fn: ast.AST) -> Set[str]:
    """Streams ``fn`` can hand off: its own plus ones captured by closure.

    A nested def/lambda that closes over an enclosing function's stream
    shares that *one* stream with whatever else uses it — exactly the
    hand-off the PR 5 analyzer could not see.  Names the nested scope
    re-binds locally shadow the capture and are excluded.
    """
    names = _rng_locals(module, fn)
    shadowed = bound_names(fn) - names
    for enclosing in enclosing_scopes(module, fn):
        names |= _rng_locals(module, enclosing) - shadowed
    return names


def _in_nested_scope(module: ModuleInfo, node: ast.AST, fn: ast.AST) -> bool:
    """Whether ``node`` sits inside a lambda/def nested under ``fn``.

    Hand-offs inside a nested scope (e.g. a dispatch table of lambdas,
    of which one is called per invocation) execute under that scope's
    own control flow, so the enclosing function's scan skips them.
    """
    for ancestor in module.ancestors(node):
        if ancestor is fn:
            return False
        if isinstance(ancestor, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            return True
    return False


def _branch_arms(module: ModuleInfo, node: ast.AST,
                 fn: ast.AST) -> Dict[int, str]:
    """Map each ``if`` ancestor of ``node`` (within ``fn``) to its arm."""
    arms: Dict[int, str] = {}
    child = node
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.If):
            in_body = any(
                child is stmt or any(child is d for d in ast.walk(stmt))
                for stmt in ancestor.body
            )
            arms[id(ancestor)] = "body" if in_body else "orelse"
        if ancestor is fn:
            break
        child = ancestor
    return arms


def _in_return(module: ModuleInfo, node: ast.AST, fn: ast.AST) -> bool:
    """Whether ``node`` is part of a ``return`` statement inside ``fn``."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.Return):
            return True
        if ancestor is fn:
            break
    return False


def _mutually_exclusive(a: "_Consumer", b: "_Consumer") -> bool:
    """Whether at most one of the two hand-offs can run per invocation."""
    for if_id, arm in a.arms.items():
        other = b.arms.get(if_id)
        if other is not None and other != arm:
            return True  # different arms of one if/elif/else
    # Two returns: the first one taken ends the function.
    return a.in_return and b.in_return


class _Consumer:
    """One call site receiving a stream, with its control-flow context."""

    def __init__(self, module: ModuleInfo, fn: ast.AST, call: ast.Call,
                 label: str) -> None:
        self.call = call
        self.label = label
        self.arms = _branch_arms(module, call, fn)
        self.in_return = _in_return(module, call, fn)


def _consumers(module: ModuleInfo, project: Project, fn: ast.AST,
               name: str) -> List[_Consumer]:
    """Call sites inside ``fn`` that receive local ``name`` as an RNG.

    A consumer is a call taking the variable as a keyword named like an
    RNG, or positionally where the resolved project callee's parameter
    at that position is named like an RNG.  Calls to the coercion
    helpers and methods *on* the stream itself (``rng.integers``) are
    draws by the owner, not hand-offs.
    """
    consumers: List[_Consumer] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if _in_nested_scope(module, node, fn):
            continue
        resolved = module.resolve(node.func)
        if resolved in _COERCION_FUNCTIONS:
            continue
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name) and base.id == name:
                continue  # a draw on the stream, not a hand-off
        callee_label = resolved or (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", "<call>")
        )
        matched = False
        for keyword in node.keywords:
            if (keyword.arg in RNG_PARAM_NAMES
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == name):
                matched = True
        if not matched:
            record = project.lookup_function(module, node.func)
            if record is not None:
                params = record.parameters()
                for index, arg in enumerate(node.args):
                    if (index < len(params)
                            and params[index] in RNG_PARAM_NAMES
                            and isinstance(arg, ast.Name)
                            and arg.id == name):
                        matched = True
        if matched:
            consumers.append(_Consumer(module, fn, node, callee_label))
    return consumers


def _shared_in_scope(project: Project, module: ModuleInfo, fn: ast.AST,
                     where: str) -> Iterator[Finding]:
    """Findings for one scope, captured streams included."""
    for name in sorted(_visible_streams(module, fn)):
        consumers = _consumers(module, project, fn, name)
        shared: Dict[str, ast.Call] = {}
        for i, first in enumerate(consumers):
            for second in consumers[i + 1:]:
                if first.label == second.label:
                    continue  # one component, e.g. called in a loop
                if _mutually_exclusive(first, second):
                    continue  # dispatch arms; only one runs
                shared.setdefault(first.label, first.call)
                shared.setdefault(second.label, second.call)
        if len(shared) >= 2:
            labels = ", ".join(sorted(shared))
            anchor = min(shared.values(), key=lambda c: c.lineno)
            yield module.finding(
                "REPRO009", anchor,
                f"in {where}: stream '{name}' is handed to "
                f"{len(shared)} components ({labels}); adding a draw "
                f"in one perturbs the others — derive children via "
                f"spawn_rngs/Generator.spawn",
            )


def _check_shared_stream(project: Project,
                         module: ModuleInfo) -> Iterator[Finding]:
    for record in (r for rs in project.functions_by_short.values()
                   for r in rs if r.module is module):
        fn = record.node
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from _shared_in_scope(project, module, fn, record.qualname)
    # Lambdas are scopes of their own; a dispatch-table lambda that
    # closes over one stream and feeds it to two components is a
    # hand-off the function scan above deliberately skips.
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Lambda):
            enclosing = enclosing_scopes(module, node)
            owner = next(
                (getattr(scope, "name", "<lambda>") for scope in enclosing
                 if not isinstance(scope, ast.Lambda)),
                "<module>",
            )
            yield from _shared_in_scope(
                project, module, node, f"{owner}.<lambda>"
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_rng(project: Project) -> Iterator[Finding]:
    """Run the three RNG provenance rules over the whole project."""
    for module in project.modules:
        yield from _check_unseeded(project, module)
        yield from _check_global_state(module)
        yield from _check_shared_stream(project, module)
