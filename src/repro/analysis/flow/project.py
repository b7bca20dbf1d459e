"""Whole-project model for the REPRO analyzer.

Each file is parsed once.  The per-module rules (REPRO001-006) read one
:class:`ModuleInfo` at a time; the flow engines follow values *across*
modules — a ``default_factory`` in ``crowd/`` resolving to a helper in
``utils/``, a ``@shaped`` declaration in ``rl/`` constraining a call
site in ``core/``.  This module builds that shared substrate once per
run:

* :class:`ModuleInfo` — one parsed module with its dotted name, import
  alias table, per-line suppression map and the :meth:`ModuleInfo.finding`
  constructor every rule reports through (a file that does not parse
  becomes a REPRO000 finding in :attr:`Project.syntax_errors`);
* :class:`FunctionRecord` — one function/method definition, indexed both
  by qualified and by short name so attribute calls (``agent.q_matrix``)
  resolve to their unique project definition when the short name is
  unambiguous;
* :class:`Project` — the loaded module set plus name-resolution helpers
  (:meth:`Project.resolve`, :meth:`Project.lookup_function`) and parent
  links (:meth:`ModuleInfo.parent`) for context-sensitive checks;
* :class:`GlobalRecord` and :attr:`Project.module_globals` — every
  module-scope binding, so the parallel-safety rules can see shared
  state a worker process would fork-inherit;
* the scope machinery (:func:`iter_scope_nodes`, :func:`bound_names`,
  :func:`free_loads`, :func:`enclosing_scopes`) — a closure-capture
  view of nested lambdas/defs that both the REPRO009 shared-stream rule
  and the process-boundary rules (REPRO014/015) walk;
* :class:`ClassRecord` and :attr:`Project.classes_by_short` — class
  definitions indexed by short name, so the serve-safety rules can
  recognise project-defined future types (``PendingAnswer``) at their
  construction sites;
* generator-frame support (:attr:`FunctionRecord.is_generator`) and the
  keyed-exemption machinery (:func:`keyed_exemptions`,
  :func:`exempted_key`) shared by the REPRO012 wall-clock and REPRO020
  blocking-call annotations.

Resolution is deliberately conservative: a name that cannot be traced to
a unique definition resolves to ``None`` and downstream rules stay quiet
rather than guess.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.engine import Finding, iter_python_files, suppressed_rules

#: Annotation that declares a module-global as deliberate per-process
#: state (REPRO013); place it on the global's defining line together
#: with a justification, e.g. ``_CACHE: dict = {}  # repro: process-local
#: — rebuilt identically by every worker import``.
_PROCESS_LOCAL_RE = re.compile(r"#\s*repro:\s*process-local", re.IGNORECASE)

#: Scope-introducing AST nodes (comprehensions stay transparent: their
#: bodies run under the enclosing scope's control flow).
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def module_dotted_name(path: Path) -> str:
    """Dotted module name inferred from the ``__init__.py`` package chain.

    ``src/repro/crowd/pool.py`` -> ``repro.crowd.pool``; a file outside
    any package keeps just its stem (fixtures analyze fine that way).
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully qualified name, from the module's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports are not used in this project
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class FunctionRecord:
    """One function or method definition somewhere in the project."""

    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def short_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def parameters(self) -> List[str]:
        """Positional parameter names, ``self``/``cls`` stripped for methods."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def full_name(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    @property
    def is_generator(self) -> bool:
        """Whether this function's own scope contains a ``yield``.

        Nested defs/lambdas are excluded (their yields belong to their
        own frames), so this matches Python's definition of a generator
        function.
        """
        return any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in iter_scope_nodes(self.node)
        )

    def attribute_writes(self) -> List[Tuple[str, str, ast.AST]]:
        """``(base_name, attribute, node)`` for every ``name.attr = ...``.

        Only writes in this function's own scope (nested defs track their
        own), with the base resolved through subscripts so
        ``grid[i].total = v`` reports base ``grid``.
        """
        writes: List[Tuple[str, str, ast.AST]] = []
        for node in iter_scope_nodes(self.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    base = target.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if isinstance(base, ast.Name):
                        writes.append((base.id, target.attr, node))
        return writes


@dataclass
class ClassRecord:
    """One class definition somewhere in the project."""

    module: "ModuleInfo"
    node: ast.ClassDef
    qualname: str

    @property
    def short_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def full_name(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    def methods(self) -> List["FunctionRecord"]:
        """The class's method records, in definition order."""
        return [
            record
            for record in _collect_functions(self.module)
            if record.class_name == self.short_name
            and record.qualname.startswith(f"{self.qualname}.")
        ]


@dataclass
class GlobalRecord:
    """One module-scope binding (the state a forked worker inherits)."""

    module: "ModuleInfo"
    name: str
    node: ast.stmt
    mutable_literal: bool  #: initialiser is a known mutable container

    def key(self) -> str:
        return f"{self.module.name}.{self.name}"

    @property
    def process_local(self) -> bool:
        """Whether the defining line carries ``# repro: process-local``."""
        return self.node.lineno in self.module.process_local_lines


#: Call targets whose result is a mutable container.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray", "collections.defaultdict",
    "collections.OrderedDict", "collections.Counter", "collections.deque",
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full", "numpy.array",
}


def _is_mutable_literal(module: "ModuleInfo", value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return module.resolve(value.func) in _MUTABLE_CONSTRUCTORS
    return False


def _collect_globals(module: "ModuleInfo") -> Iterator[GlobalRecord]:
    """Module-scope name bindings, including ones under top-level if/try."""

    def walk(statements: Iterable[ast.stmt]) -> Iterator[GlobalRecord]:
        for statement in statements:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        yield GlobalRecord(
                            module=module, name=target.id, node=statement,
                            mutable_literal=_is_mutable_literal(
                                module, statement.value),
                        )
            elif (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and statement.value is not None):
                yield GlobalRecord(
                    module=module, name=statement.target.id, node=statement,
                    mutable_literal=_is_mutable_literal(
                        module, statement.value),
                )
            elif isinstance(statement, ast.If):
                yield from walk(statement.body)
                yield from walk(statement.orelse)
            elif isinstance(statement, ast.Try):
                yield from walk(statement.body)
                yield from walk(statement.orelse)
                yield from walk(statement.finalbody)
                for handler in statement.handlers:
                    yield from walk(handler.body)

    return walk(module.tree.body)


@dataclass
class ModuleInfo:
    """One parsed module plus everything resolution needs about it."""

    path: str
    name: str
    tree: ast.Module
    source: str
    aliases: Dict[str, str] = field(default_factory=dict)
    suppressions: dict = field(default_factory=dict)
    process_local_lines: Set[int] = field(default_factory=set)
    _parents: Dict[int, ast.AST] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.aliases:
            self.aliases = _import_aliases(self.tree)
        if not self.suppressions:
            self.suppressions = suppressed_rules(self.source.splitlines())
        if not self.process_local_lines:
            self.process_local_lines = {
                lineno
                for lineno, text in enumerate(self.source.splitlines(), 1)
                if _PROCESS_LOCAL_RE.search(text)
            }
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None at the module root)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_statement(self, node: ast.AST) -> Optional[ast.stmt]:
        """The innermost statement containing ``node`` (None at the root)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return ancestor
        return None

    def finding(self, rule_id: str, node: ast.AST, message: str,
                severity: str = "error") -> Finding:
        """A finding of ``rule_id`` anchored at ``node`` in this module."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            severity=severity,
        )

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully qualified dotted name of an expression, or ``None``.

        ``np.random.default_rng`` resolves through the ``import numpy as
        np`` alias to ``numpy.random.default_rng``; a plain name imported
        with ``from x import y`` resolves to ``x.y``.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        return ".".join([base] + chain)

    def in_subpackage(self, *names: str) -> bool:
        """Whether this module lives under any dotted component in ``names``."""
        parts = self.name.split(".")[:-1]
        return any(name in parts for name in names)


# ----------------------------------------------------------------------
# Scope walking (the closure-capture substrate)
# ----------------------------------------------------------------------
def iter_scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``scope``'s own execution scope, nested scopes excluded.

    Nested ``def``/``lambda`` nodes are yielded (so a scan can *see* the
    hand-off of a closure) but not descended into — their bodies run
    under their own control flow and get their own scan.  Comprehensions
    are transparent: their bodies execute eagerly under ``scope``.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


def bound_names(scope: ast.AST) -> Set[str]:
    """Names bound directly in ``scope``: parameters, stores, imports.

    Names declared ``global``/``nonlocal`` are *not* local bindings and
    are excluded, so an assignment under a ``global`` declaration still
    reads as a module-global write.
    """
    bound: Set[str] = set()
    escaped: Set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            bound.add(arg.arg)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                bound.add(arg.arg)
    for node in iter_scope_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            escaped.update(node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
    return bound - escaped


def free_loads(scope: ast.AST) -> Set[str]:
    """Names ``scope`` reads but does not bind itself — its captures.

    The walk descends into nested scopes (a doubly nested lambda still
    captures the outermost variable), so this over-approximates: a name
    a nested scope re-binds locally still counts as free here.  Rules
    using this stay conservative by only *intersecting* the result with
    names they already track in the enclosing scope.
    """
    loads: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
    return loads - bound_names(scope)


def enclosing_scopes(module: ModuleInfo, node: ast.AST) -> List[ast.AST]:
    """Function/lambda ancestors of ``node``, innermost first."""
    return [ancestor for ancestor in module.ancestors(node)
            if isinstance(ancestor, SCOPE_NODES)]


class Project:
    """The parsed module set with cross-module name resolution."""

    def __init__(self, modules: Sequence[ModuleInfo],
                 syntax_errors: Sequence[Finding] = ()) -> None:
        self.modules = list(modules)
        #: one REPRO000 finding per file that does not parse
        self.syntax_errors = list(syntax_errors)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        #: short function name -> every project definition with that name
        self.functions_by_short: Dict[str, List[FunctionRecord]] = {}
        #: fully qualified name -> definition
        self.functions_by_full: Dict[str, FunctionRecord] = {}
        #: ``module.NAME`` -> module-scope binding record
        self.module_globals: Dict[str, GlobalRecord] = {}
        #: short class name -> every project definition with that name
        self.classes_by_short: Dict[str, List[ClassRecord]] = {}
        for module in self.modules:
            for record in _collect_functions(module):
                self.functions_by_short.setdefault(
                    record.short_name, []
                ).append(record)
                self.functions_by_full[record.full_name()] = record
            for class_record in _collect_classes(module):
                self.classes_by_short.setdefault(
                    class_record.short_name, []
                ).append(class_record)
            for global_record in _collect_globals(module):
                self.module_globals[global_record.key()] = global_record

    @classmethod
    def load(cls, paths: Iterable[str]) -> "Project":
        """Parse every ``*.py`` file under ``paths`` into a project.

        A file that does not parse becomes a REPRO000 finding in
        :attr:`syntax_errors` instead of a module.
        """
        modules: List[ModuleInfo] = []
        syntax_errors: List[Finding] = []
        seen: Set[str] = set()
        for file_path in iter_python_files(paths):
            resolved = str(Path(file_path).resolve())
            if resolved in seen:
                continue
            seen.add(resolved)
            source = Path(file_path).read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(file_path))
            except SyntaxError as err:
                syntax_errors.append(Finding(
                    path=str(file_path),
                    line=err.lineno or 1,
                    col=(err.offset or 0) + 1,
                    rule_id="REPRO000",
                    message=f"syntax error: {err.msg}",
                ))
                continue
            modules.append(
                ModuleInfo(
                    path=str(file_path),
                    name=module_dotted_name(Path(file_path)),
                    tree=tree,
                    source=source,
                )
            )
        return cls(modules, syntax_errors)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def lookup_function(self, module: ModuleInfo,
                        callee: ast.expr) -> Optional[FunctionRecord]:
        """Resolve a call target expression to a project definition.

        Tries the fully qualified resolution first (free functions and
        imported names); attribute calls whose base is opaque
        (``self.agent.q_matrix``) fall back to the short method name when
        exactly one project definition carries it.
        """
        full = module.resolve(callee)
        if full is not None:
            # Module-local names resolve to themselves; qualify them.
            record = self.functions_by_full.get(full) \
                or self.functions_by_full.get(f"{module.name}.{full}")
            if record is not None:
                return record
            # ``module.func`` where ``module`` was imported as a module
            tail = full.rsplit(".", 1)[-1]
            candidates = [
                r for r in self.functions_by_short.get(tail, [])
                if r.full_name() == full or full.endswith(
                    f"{r.module.name}.{r.qualname}"
                )
            ]
            if len(candidates) == 1:
                return candidates[0]
        if isinstance(callee, ast.Attribute):
            candidates = self.functions_by_short.get(callee.attr, [])
            methods = [r for r in candidates if r.is_method]
            if len(methods) == 1 and len(candidates) == 1:
                return methods[0]
        return None

    def resolve_global(self, module: ModuleInfo,
                       name: str) -> Optional[GlobalRecord]:
        """The module-scope binding a bare name refers to, if any.

        A name imported via ``from m import NAME`` resolves to ``m``'s
        record; an unimported name resolves within ``module`` itself.
        """
        target = module.aliases.get(name)
        if target is not None:
            return self.module_globals.get(target)
        return self.module_globals.get(f"{module.name}.{name}")

    def return_expressions(self, record: FunctionRecord) -> List[ast.expr]:
        """Every non-``None`` returned expression of a function body."""
        returns: List[ast.expr] = []
        for node in ast.walk(record.node):
            if isinstance(node, ast.Return) and node.value is not None:
                returns.append(node.value)
        return returns


def _collect_classes(module: ModuleInfo) -> Iterable[ClassRecord]:
    """Yield every class definition in a module, nested ones qualified."""

    def walk(node: ast.AST, prefix: str) -> Iterable[ClassRecord]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                yield ClassRecord(module=module, node=child, qualname=qualname)
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                yield from walk(child, prefix)

    return walk(module.tree, "")


def _collect_functions(module: ModuleInfo) -> Iterable[FunctionRecord]:
    """Yield every function definition in a module with its class context."""

    def walk(node: ast.AST, prefix: str,
             class_name: Optional[str]) -> Iterable[FunctionRecord]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield FunctionRecord(
                    module=module, node=child, qualname=qualname,
                    class_name=class_name,
                )
                yield from walk(child, f"{qualname}.<locals>.", class_name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child.name)
            else:
                yield from walk(child, prefix, class_name)

    return walk(module.tree, "", None)


# ----------------------------------------------------------------------
# Keyed exemption annotations (shared by REPRO012 and REPRO020)
# ----------------------------------------------------------------------
#: ``# repro: <kind>[<key>] — <why>``; the key names exactly what the
#: annotation excuses and the justification after the dash is mandatory.
_KEYED_EXEMPT_TEMPLATE = r"#\s*repro:\s*{kind}\[([^\]]+)\]\s*[-—–]+\s*\S"


def keyed_exemptions(module: ModuleInfo, kind: str) -> Dict[int, str]:
    """Line number -> exempted key, for ``# repro: <kind>[...]`` comments."""
    pattern = re.compile(
        _KEYED_EXEMPT_TEMPLATE.format(kind=re.escape(kind)), re.IGNORECASE
    )
    return {
        lineno: match.group(1).strip()
        for lineno, text in enumerate(module.source.splitlines(), 1)
        if (match := pattern.search(text)) is not None
    }


def exempted_key(module: ModuleInfo, exemptions: Dict[int, str],
                 lineno: int) -> Optional[str]:
    """The exemption key covering ``lineno``, or ``None``.

    An annotation counts on the line itself, or on the contiguous
    comment block sitting directly above it (scanning up through
    comment-only lines, so a long justification can wrap).  Callers
    compare the returned key against the resolved call they are judging
    — a key never silences a different call that creeps onto the line.
    """
    lines = module.source.splitlines()
    line = lineno
    while line >= 1:
        key = exemptions.get(line)
        if key is not None:
            return key
        if line != lineno:
            text = lines[line - 1].strip()
            if not text.startswith("#"):
                return None
        line -= 1
    return None


def call_keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword argument ``name`` on ``call``, if present."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def bind_arguments(record: FunctionRecord,
                   call: ast.Call) -> List[Tuple[str, ast.expr]]:
    """Pair call arguments with the callee's parameter names.

    Starred arguments stop positional binding (conservative); unknown
    keywords are dropped.
    """
    params = record.parameters()
    bound: List[Tuple[str, ast.expr]] = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or index >= len(params):
            break
        bound.append((params[index], arg))
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in params:
            bound.append((keyword.arg, keyword.value))
        elif keyword.arg is not None:
            # dataclass synthetic __init__: fields are not in the AST of
            # any def, so keyword binding by name is still meaningful.
            bound.append((keyword.arg, keyword.value))
    return bound
