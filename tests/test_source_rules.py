"""The REPRO source rules: static checks over ``src/repro``.

These guard invariants whose defects no behavioural test notices: the
labels come out the same, but the code is less safe to change.  Each
rule is a plain function from parsed modules to ``(path, line,
message)`` findings, and the shipped tree must yield none:

* REPRO000 -- every file parses;
* REPRO003 -- public ``inference``/``rl``/``core`` entry points that
  take an array-contract parameter show input validation;
* REPRO004 -- no bare or silently swallowing ``except``;
* REPRO006 -- docstrings on the public API;
* REPRO011 -- no unsorted filesystem or set enumeration;
* REPRO012 -- no wall-clock reads outside ``repro.obs``;
* REPRO017 -- no order-dependent float reduction over a set or a
  merge-built dict;
* REPRO020 -- no blocking call reachable from the serving event loop.

DESIGN.md section 9 has the mutant behind each rule.  The tree is
parsed once per run.  There is no suppression comment: a deliberate
exception is written here as a named entry of the rule it excuses.
Each rule also runs on an inline hit snippet, whose ``# hit`` lines
must be exactly its findings, and on a clean snippet that must yield
none, so no rule passes the shipped tree vacuously.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

SRC = Path(__file__).parents[1] / "src"

#: ``(path relative to src/, line, message)``.
Finding = Tuple[str, int, str]

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


# ----------------------------------------------------------------------
# The parsed tree
# ----------------------------------------------------------------------
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully qualified name, from the module's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class Module:
    """One parsed file, named by its path under ``src/``."""

    path: str
    tree: ast.Module

    def __post_init__(self) -> None:
        parts = PurePosixPath(self.path).with_suffix("").parts
        #: the directories the file sits in, e.g. ``("repro", "serve")``
        self.dirs = parts[:-1]
        #: the dotted module name, e.g. ``repro.serve.engine``
        self.name = ".".join(self.dirs if parts[-1] == "__init__" else parts)
        self.aliases = _import_aliases(self.tree)
        self.parents = {id(child): node for node in ast.walk(self.tree)
                        for child in ast.iter_child_nodes(node)}

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """From ``node``'s parent up to the module root."""
        while (node := self.parents.get(id(node))) is not None:
            yield node

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted name of ``a.b.c`` through the import aliases, or None."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        return ".".join([self.aliases.get(node.id, node.id)] + chain)

    def at(self, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``."""
        return (self.path, getattr(node, "lineno", 1), message)


def load(sources: Dict[str, str]) -> Tuple[List[Module], List[Finding]]:
    """Parse ``{path: source}``; a file that does not parse is REPRO000."""
    modules: List[Module] = []
    errors: List[Finding] = []
    for path, source in sources.items():
        try:
            modules.append(Module(path, ast.parse(source, filename=path)))
        except SyntaxError as err:
            errors.append((path, err.lineno or 1, f"syntax error: {err.msg}"))
    return modules, errors


@pytest.fixture(scope="module")
def shipped() -> Tuple[List[Module], List[Finding]]:
    """``src/repro``, parsed once for every rule."""
    return load({
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((SRC / "repro").rglob("*.py"))
    })


def _scope(node: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``node``'s own scope: nested defs and lambdas are
    yielded but not entered; comprehensions are transparent."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, FUNCTIONS + (ast.Lambda,)):
            stack.extend(ast.iter_child_nodes(child))


def _defs(node: ast.AST, cls: Optional[ast.ClassDef] = None):
    """Functions outside any function body, each with its class (or None)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            yield child, cls
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, child)
        else:
            yield from _defs(child, cls)


def _tail_name(node: ast.expr) -> str:
    """The rightmost name of ``a.b.c`` or ``a.b.c(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _public(name: str) -> bool:
    return not name.startswith("_")


def _where(fn: ast.AST, cls: Optional[ast.ClassDef]) -> str:
    return f"{cls.name}.{fn.name}" if cls is not None else fn.name


# ----------------------------------------------------------------------
# REPRO003, 004, 006: one module at a time
# ----------------------------------------------------------------------
#: Packages whose public API carries array contracts.
_CONTRACT_PACKAGES = ("inference", "rl", "core")

#: Parameter names that carry an array contract in this codebase.
_ARRAY_PARAMS = {
    "answers", "features", "action_features", "next_features",
    "matrix", "mat", "counts", "proba", "posteriors", "q_values",
    "confusion", "confusions", "targets", "scores", "vec",
}

#: Annotation fragments that mark a parameter as array-like.
_ARRAY_ANNOTATIONS = ("ndarray", "ArrayLike", "AnswerMap")

#: Runtime-contract decorators (``repro.analysis.contracts``).
_CONTRACT_DECORATORS = {"shaped", "row_stochastic", "prob_simplex"}


def _array_params(fn: ast.AST) -> List[str]:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    names = []
    for param in params:
        annotation = ast.unparse(param.annotation) if param.annotation else ""
        if param.arg not in ("self", "cls") and (
                param.arg in _ARRAY_PARAMS
                or any(part in annotation for part in _ARRAY_ANNOTATIONS)):
            names.append(param.arg)
    return names


def _validates(fn: ast.AST) -> bool:
    """A contract decorator, a ``raise``, or a ``check_*``/``validate*``/
    ``_validate*`` call anywhere in the body."""
    if any(_tail_name(d) in _CONTRACT_DECORATORS
           for d in fn.decorator_list):
        return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and _tail_name(node.func).startswith(
                ("check_", "validate", "_validate")):
            return True
    return False


def repro003(modules: List[Module]) -> Iterator[Finding]:
    """Public entry points of ``inference``/``rl``/``core`` validate arrays."""
    for module in modules:
        if not any(name in module.dirs for name in _CONTRACT_PACKAGES):
            continue
        for fn, cls in _defs(module.tree):
            if cls is not None and not _public(cls.name):
                continue
            if not (_public(fn.name) or (cls is not None and fn.name in (
                    "__init__", "__post_init__", "__call__"))):
                continue
            params = _array_params(fn)
            if params and not _validates(fn):
                yield module.at(fn, (
                    f"public function '{_where(fn, cls)}' takes array-contract "
                    f"parameter(s) {', '.join(map(repr, params))} but shows no "
                    f"input validation (use repro.utils.validation or a "
                    f"contracts decorator)"))


def _is_noop(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Pass, ast.Continue)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def repro004(modules: List[Module]) -> Iterator[Finding]:
    """No bare ``except:`` and no handler whose body does nothing."""
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.at(node, "bare 'except:' catches SystemExit and "
                                      "KeyboardInterrupt too; name the class")
            elif all(_is_noop(stmt) for stmt in node.body):
                yield module.at(node, "exception caught and silently "
                                      "swallowed; handle, log or re-raise it")


def repro006(modules: List[Module]) -> Iterator[Finding]:
    """Docstrings on modules, public classes and public functions.

    A function whose body (docstring aside) is one statement is exempt:
    a docstring on ``return self._x`` adds noise, not information.
    """
    for module in modules:
        tree = module.tree
        if tree.body and ast.get_docstring(tree) is None:
            yield module.at(tree.body[0], "module is missing a docstring")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _public(node.name) \
                    and ast.get_docstring(node) is None:
                yield module.at(node, f"public class '{node.name}' is "
                                      f"missing a docstring")
        for fn, cls in _defs(tree):
            if not _public(fn.name) or (cls is not None and not _public(cls.name)):
                continue
            if any(_tail_name(d) == "overload" for d in fn.decorator_list):
                continue
            if ast.get_docstring(fn) is None and len(fn.body) > 1:
                yield module.at(fn, f"public function '{_where(fn, cls)}' is "
                                    f"missing a docstring")


# ----------------------------------------------------------------------
# REPRO011, 012, 017: determinism
# ----------------------------------------------------------------------
#: Calls that enumerate in filesystem order.
_FS_ENUMERATORS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}

#: Methods that enumerate in filesystem order on a ``Path``.
_FS_METHODS = {"glob", "rglob", "iterdir"}

#: Builtins, and call prefixes, that make a ``sorted`` key a permutation.
_NONDET_KEYS = {"id", "hash"}
_NONDET_KEY_PREFIXES = ("random.", "numpy.random.", "time.", "uuid.", "secrets.")

_WALL_CLOCKS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


def _nondet_name(name: Optional[str]) -> bool:
    return name is not None and (
        name in _NONDET_KEYS or name.startswith(_NONDET_KEY_PREFIXES))


def _nondeterministic_key(module: Module, key: ast.expr) -> bool:
    """``key=id``, ``key=hash``, or a key that draws randomness or reads
    the clock: the ``sorted`` then permutes rather than orders."""
    if _nondet_name(module.resolve(key)):
        return True
    return isinstance(key, ast.Lambda) and any(
        isinstance(node, ast.Call) and _nondet_name(module.resolve(node.func))
        for node in ast.walk(key.body))


def _sorted_in_statement(module: Module, node: ast.AST) -> bool:
    """Whether ``node`` flows into a genuine ``sorted(...)`` in its statement."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.Call) and isinstance(ancestor.func, ast.Name) \
                and ancestor.func.id == "sorted":
            key = next((kw.value for kw in ancestor.keywords
                        if kw.arg == "key"), None)
            if key is None or not _nondeterministic_key(module, key):
                return True
        if isinstance(ancestor, ast.stmt):
            return False
    return False


def _is_set_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "frozenset")


def repro011(modules: List[Module]) -> Iterator[Finding]:
    """Filesystem listings and sets pass through ``sorted`` before use."""
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                label = module.resolve(node.func)
                if label not in _FS_ENUMERATORS:
                    is_method = isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _FS_METHODS \
                        and not (label or "").startswith(("re.", "fnmatch."))
                    label = f".{node.func.attr}" if is_method else None
                if label is not None and not _sorted_in_statement(module, node):
                    yield module.at(node, f"'{label}' enumerates in filesystem "
                                          f"order; wrap it in sorted(...)")
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for target in iters:
                if (isinstance(target, ast.Set) or _is_set_call(target)) \
                        and not _sorted_in_statement(module, target):
                    yield module.at(target, "iterating a set is hash order; "
                                            "iterate sorted(...) instead")


def repro012(modules: List[Module]) -> Iterator[Finding]:
    """No wall-clock read, call or bare reference, outside ``repro.obs``.

    The observability layer times phases as metadata; anywhere else a
    clock makes results depend on when they ran.
    """
    for module in modules:
        if "obs" in module.dirs:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = module.resolve(node.func)
            elif isinstance(node, (ast.Attribute, ast.Name)) and not isinstance(
                    module.parents.get(id(node)), (ast.Call, ast.Attribute)):
                name = module.resolve(node)  # e.g. ``clock=time.time``
            else:
                continue
            if name in _WALL_CLOCKS:
                yield module.at(node, f"wall-clock read '{name}' outside "
                                      f"repro.obs; inject a clock instead")


def _is_set_expr(node: ast.expr, set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)) or _is_set_call(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr in ("union", "intersection", "difference",
                               "symmetric_difference") \
        and _is_set_expr(node.func.value, set_locals)


def _unordered(node: ast.expr, set_locals: Set[str],
               merged: Set[str]) -> Optional[str]:
    """What makes iterating ``node`` order-dependent, or None."""
    if _is_set_expr(node, set_locals):
        return "a set"
    if isinstance(node, ast.Call) and not node.args \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("values", "items", "keys") \
            and isinstance(node.func.value, ast.Name) \
            and node.func.value.id in merged:
        return f"merge-built dict '{node.func.value.id}'"
    return None


def repro017(modules: List[Module]) -> Iterator[Finding]:
    """No float accumulation or ``sum()`` over a set or a merge-built dict.

    Float addition is not associative, so such a total depends on hash
    or merge order; ``sorted(...)`` or ``math.fsum`` fixes it.
    """
    for module in modules:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, FUNCTIONS):
                continue
            scope = list(_scope(fn))
            set_locals = {
                node.targets[0].id for node in scope
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_set_expr(node.value, set())
            }
            merged = {  # dicts built by ``.update`` or ``|=`` merges
                node.func.value.id for node in scope
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Name)
            } | {
                node.target.id for node in scope
                if isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.BitOr)
                and isinstance(node.target, ast.Name)
            }
            for node in scope:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    label = _unordered(node.iter, set_locals, merged)
                    sums = [inner for child in node.body for inner in ast.walk(child)
                            if isinstance(inner, ast.AugAssign)
                            and isinstance(inner.op, (ast.Add, ast.Sub, ast.Mult))]
                    if label is not None and sums:
                        yield module.at(sums[0], f"accumulating while iterating "
                                                 f"{label} depends on its order")
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "sum" and node.args:
                    arg = node.args[0]
                    iters = [gen.iter for gen in arg.generators] if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)) else [arg]
                    label = next(filter(None, (_unordered(it, set_locals, merged)
                                              for it in iters)), None)
                    if label is not None:
                        yield module.at(node, f"sum() over {label} depends on "
                                              f"its order; use math.fsum")


# ----------------------------------------------------------------------
# REPRO020: the serving event loop's call graph
# ----------------------------------------------------------------------
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

#: Constructors whose result is a lock (its ``acquire`` blocks).
_LOCKS = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
}


@dataclass
class Function:
    """One function or method definition anywhere in the tree."""

    module: Module
    node: ast.AST
    qualname: str
    is_method: bool

    @property
    def name(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    @property
    def is_entry(self) -> bool:
        """Run by the event loop: in the serving layer, or an episode
        generator (named ``episode``, or yielding a ``CollectRequest``)."""
        module = self.module
        if "serve" in module.dirs:
            return True
        yields = [node for node in _scope(self.node)
                  if isinstance(node, (ast.Yield, ast.YieldFrom))]
        if not yields:
            return False
        if self.qualname.rsplit(".", 1)[-1] == "episode":
            return True
        for node in yields:
            for call in ast.walk(node.value) if node.value is not None else ():
                if isinstance(call, ast.Call):
                    name = module.resolve(call.func) or getattr(call.func, "attr", "")
                    if name.rsplit(".", 1)[-1] == "CollectRequest":
                        return True
        return False


def _functions(module: Module, node: ast.AST, prefix: str = "",
               in_class: bool = False) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            qualname = prefix + child.name
            yield Function(module, child, qualname, in_class)
            yield from _functions(module, child, f"{qualname}.<locals>.", in_class)
        elif isinstance(child, ast.ClassDef):
            yield from _functions(module, child, f"{prefix}{child.name}.", True)
        else:
            yield from _functions(module, child, prefix, in_class)


def serve_reach(modules: List[Module]) -> Dict[int, Tuple[Function, str]]:
    """Every function the event loop can call, with the entry reaching it.

    A call resolves by its dotted name through the module's imports; a
    method call on an opaque receiver (``self.agent.q_matrix()``)
    resolves when exactly one definition in the tree, a method, has that
    name.  A call that resolves to nothing is not followed.
    """
    functions = [fn for module in modules for fn in _functions(module, module.tree)]
    by_name = {fn.name: fn for fn in functions}
    by_short: Dict[str, List[Function]] = {}
    for fn in functions:
        by_short.setdefault(fn.qualname.rsplit(".", 1)[-1], []).append(fn)

    def callee(module: Module, func: ast.expr) -> Optional[Function]:
        full = module.resolve(func)
        if full is not None:
            found = by_name.get(full) or by_name.get(f"{module.name}.{full}")
            if found is not None:
                return found
            tail = by_short.get(full.rsplit(".", 1)[-1], [])
            matches = [fn for fn in tail if full.endswith(fn.name)]
            if len(matches) == 1:
                return matches[0]
        if isinstance(func, ast.Attribute):
            matches = by_short.get(func.attr, [])
            if len(matches) == 1 and matches[0].is_method:
                return matches[0]
        return None

    reached = {id(fn): (fn, fn.qualname) for fn in functions if fn.is_entry}
    frontier = list(reached.values())
    while frontier:
        fn, entry = frontier.pop()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                target = callee(fn.module, node.func)
                if target is not None and id(target) not in reached:
                    reached[id(target)] = (target, entry)
                    frontier.append((target, entry))
    return reached


def _blocking_label(module: Module, node: ast.Call, locks: Set[str]) -> Optional[str]:
    name = module.resolve(node.func)
    if name in _BLOCKING_CALLS:
        return name
    if isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
        if name is not None and name.startswith(("threading.", "multiprocessing.")):
            return name
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id in locks:
            return f"{receiver.id}.acquire"
    return None


def repro020(modules: List[Module]) -> Iterator[Finding]:
    """No sleep, I/O, subprocess or lock wait reachable from the loop.

    The loop is one thread shared by every session, so a block stalls
    them all.  ``repro.obs`` is exempt: its atomic flush is the
    sanctioned write path.
    """
    seen: Set[Tuple[str, int, int]] = set()
    for fn, entry in serve_reach(modules).values():
        module = fn.module
        if "obs" in module.dirs:
            continue
        locks = {
            node.targets[0].id for node in _scope(fn.node)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and module.resolve(node.value.func) in _LOCKS
        }
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            label = _blocking_label(module, node, locks)
            key = (module.path, node.lineno, node.col_offset)
            if label is None or key in seen:
                continue
            seen.add(key)
            yield module.at(node, f"blocking call '{label}' in '{fn.qualname}', "
                                  f"reachable from event-loop entry '{entry}'")


RULES = (repro003, repro004, repro006, repro011, repro012, repro017, repro020)


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------
def _report(findings: List[Finding]) -> str:
    return "\n".join(f"{path}:{line}: {message}" for path, line, message in findings)


def test_repro000_every_file_parses(shipped):
    _, errors = shipped
    assert not errors, _report(errors)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_shipped_tree_is_clean(shipped, rule):
    modules, _ = shipped
    findings = sorted(rule(modules))
    assert not findings, _report(findings)


def test_repro020_reaches_through_the_episode(shipped):
    """The closure follows the loop into every layer a served episode runs.

    The floor is this tree's closure when the rule became a test; lower
    it only when reachable functions are deleted.
    """
    modules, _ = shipped
    reached = {fn.name for fn, _ in serve_reach(modules).values()}
    assert len(reached) >= 108
    assert {
        "repro.serve.engine.ServeEngine.run.<locals>.admit",
        "repro.serve.session.LabellingSession.deliver",
        "repro.core.framework.CrowdRL.episode",
        "repro.core.agent.Agent.act",
        "repro.core.environment.Environment.train_and_enrich",
        "repro.rl.dqn.DQNAgent.q_values",
        "repro.crowd.platform.collect_batch",
        "repro.classifiers.base.Classifier.fit",
        "repro.metrics.classification.evaluate_labels",
        "repro.obs.events.JsonlEventLog.flush",
        "repro.utils.topk.top_k_indices",
    } <= reached


# ----------------------------------------------------------------------
# Every rule fires: a hit snippet and a clean snippet each
# ----------------------------------------------------------------------
CASES = {
    repro003: ({"repro/inference/snippet.py": """\
        def infer(answers, n_classes):  # hit
            return len(answers) * n_classes

        class Model:
            def __init__(self, features):  # hit
                self.features = features
        """}, {"repro/inference/snippet.py": """\
        def infer(answers, n_classes):
            check_answers(answers, n_classes)
            return len(answers)

        def count(items):
            return len(items)
        """, "repro/harness/snippet.py": """\
        def infer(answers, n_classes):
            return len(answers) * n_classes
        """}),
    repro004: ({"repro/crowd/snippet.py": """\
        def bare():
            try:
                return 1 / 0
            except:  # hit
                return None

        def swallowed():
            try:
                return 1 / 0
            except ZeroDivisionError:  # hit
                pass
        """}, {"repro/crowd/snippet.py": """\
        def handled():
            try:
                return 1 / 0
            except ZeroDivisionError as exc:
                raise ValueError("no division") from exc
        """}),
    repro006: ({"repro/core/snippet.py": """\
        import math  # hit

        def area(radius):  # hit
            squared = radius * radius
            return math.pi * squared

        class Circle:  # hit
            def scaled(self, factor):  # hit
                radius = self.radius * factor
                return radius
        """}, {"repro/core/snippet.py": '''\
        """A documented module."""

        def area(radius):
            """Documented."""
            squared = radius * radius
            return squared

        def radius_of(circle):
            return circle.radius

        class _Private:
            def helper(self, x):
                y = x + 1
                return y
        '''}),
    repro011: ({"repro/harness/snippet.py": """\
        import os
        from pathlib import Path

        def names(path):
            return [name.upper() for name in os.listdir(path)]  # hit

        def stems(path):
            return [p.stem for p in Path(path).glob("*.npy")]  # hit

        def unique(items):
            return [item for item in set(items)]  # hit
        """}, {"repro/harness/snippet.py": """\
        import os
        from pathlib import Path

        def names(path):
            return [name.upper() for name in sorted(os.listdir(path))]

        def stems(path):
            return sorted(p.stem for p in Path(path).glob("*.npy"))

        def unique(items):
            return [item for item in sorted(set(items))]
        """}),
    # A clock read inside repro/obs is the sanctioned timing path.
    repro012: ({"repro/core/snippet.py": """\
        import time
        from datetime import datetime

        def stamp():
            return time.time()  # hit

        def today():
            return datetime.now().isoformat()  # hit

        def timed(clock=time.perf_counter):  # hit
            return clock()
        """}, {"repro/core/snippet.py": """\
        def timed(clock):
            return clock()
        """, "repro/obs/snippet.py": """\
        import time

        def stamp():
            return time.perf_counter()
        """}),
    # A dict built by ``.update`` merges iterates in merge order.
    repro017: ({"repro/harness/snippet.py": """\
        def set_total(values):
            pending = set(values)
            total = 0.0
            for value in pending:
                total += value  # hit
            return total

        def merged_total(shards):
            merged = {}
            for shard in shards:
                merged.update(shard)
            return sum(merged.values())  # hit
        """}, {"repro/harness/snippet.py": """\
        import math

        def set_total(values):
            pending = set(values)
            total = 0.0
            for value in sorted(pending):
                total += value
            return total

        def merged_total(shards):
            merged = {}
            for shard in shards:
                merged.update(shard)
            return math.fsum(merged.values())
        """}),
    # Blocks found across modules, through an imported function, a
    # uniquely named method and an episode generator; repro/obs and code
    # the loop cannot reach stay silent.
    repro020: ({"repro/serve/snippet.py": """\
        import threading
        import time

        from repro.crowd.snippet import load_answers

        def pause(delay):
            time.sleep(delay)  # hit

        def guarded(values):
            guard = threading.Lock()
            guard.acquire()  # hit
            return len(values)

        def fetch(path, sink, record):
            sink.write_record(record)
            return load_answers(path)
        """, "repro/crowd/snippet.py": """\
        def load_answers(path):
            with open(path) as handle:  # hit
                return handle.read()

        class Sink:
            def write_record(self, record):
                print(record, file=open(self.path, "a"))  # hit
        """, "repro/core/snippet.py": """\
        import time

        def episode(budget):
            yield budget
            time.sleep(0)  # hit
        """}, {"repro/serve/snippet.py": """\
        from repro.obs.snippet import flush

        def step(values):
            flush(values)
            return [value * 2 for value in values]
        """, "repro/obs/snippet.py": """\
        def flush(values):
            with open("events.jsonl", "a") as handle:
                handle.write(str(values))
        """, "repro/harness/snippet.py": """\
        import time

        def main():
            time.sleep(1)
        """}),
}


def _marked(sources: Dict[str, str]) -> List[Tuple[str, int]]:
    return sorted((path, lineno) for path, source in sources.items()
                  for lineno, line in enumerate(source.splitlines(), 1)
                  if line.endswith("# hit"))


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_fires_on_its_hits_only(rule):
    hit, clean = ({path: textwrap.dedent(source) for path, source in case.items()}
                  for case in CASES[rule])
    modules, errors = load(hit)
    assert errors == []
    assert [(path, line) for path, line, _ in sorted(rule(modules))] == _marked(hit)
    modules, errors = load(clean)
    assert errors == []
    assert list(rule(modules)) == []


def test_repro000_reports_a_file_that_does_not_parse():
    modules, errors = load({"repro/broken.py": "def broken(:\n",
                            "repro/fine.py": "def fine():\n    return 1\n"})
    assert [module.path for module in modules] == ["repro/fine.py"]
    assert [(path, line) for path, line, _ in errors] == [("repro/broken.py", 1)]
    assert errors[0][2].startswith("syntax error")


def test_repro000_is_a_finding_not_an_exception():
    modules, errors = load({"repro/broken.py": "def broken(:\n"})
    assert modules == []
    assert [path for path, _, _ in errors] == ["repro/broken.py"]


# ``sorted`` with a key of ``id`` or a random draw does not order.
_SORT_KEYS = {"repro/harness/snippet.py": textwrap.dedent("""\
    import glob
    import os
    import random

    def by_address(path):
        return sorted(os.listdir(path), key=id)  # hit

    def shuffled(pattern):
        return sorted(glob.glob(pattern), key=lambda _: random.random())  # hit

    def by_name(path):
        return sorted(os.listdir(path), key=str.lower)

    def plain(path):
        return sorted(os.listdir(path))
    """)}


def test_repro011_sort_keys_that_do_not_order():
    modules, _ = load(_SORT_KEYS)
    assert [(path, line) for path, line, _ in sorted(repro011(modules))] \
        == _marked(_SORT_KEYS)


def test_repro011_names_the_listing_a_sort_key_leaves_unordered():
    modules, _ = load(_SORT_KEYS)
    labels = sorted(message.split("'")[1] for _, _, message in repro011(modules))
    assert labels == ["glob.glob", "os.listdir"]


def test_repro020_names_the_blocking_call():
    modules, _ = load({"repro/serve/snippet.py": textwrap.dedent("""\
        import time

        def pause(delay):
            time.sleep(delay)
            return delay
        """)})
    findings = list(repro020(modules))
    assert [(path, line) for path, line, _ in findings] \
        == [("repro/serve/snippet.py", 4)]
    assert "'time.sleep'" in findings[0][2]
