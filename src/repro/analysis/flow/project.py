"""Whole-project model for the REPRO analyzer.

Each file is parsed once.  The per-module rules (REPRO004, REPRO006) and
the determinism rules read one :class:`ModuleInfo` at a time; the
blocking-call rule (REPRO020) follows calls *across* modules, from the
serving layer into whatever it reaches.  This module builds that shared
substrate once per run:

* :class:`ModuleInfo` — one parsed module with its dotted name, import
  alias table, per-line suppression map and the :meth:`ModuleInfo.finding`
  constructor every rule reports through (a file that does not parse
  becomes a REPRO000 finding in :attr:`Project.syntax_errors`);
* :class:`FunctionRecord` — one function/method definition, indexed both
  by qualified and by short name so attribute calls (``agent.q_matrix``)
  resolve to their unique project definition when the short name is
  unambiguous;
* :class:`Project` — the loaded module set plus call resolution
  (:meth:`Project.lookup_function`) and the call-graph closure
  (:meth:`Project.reachable`);
* the keyed-exemption machinery (:func:`keyed_exemptions`,
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


@dataclass
class ModuleInfo:
    """One parsed module plus everything resolution needs about it."""

    path: str
    name: str
    tree: ast.Module
    source: str
    aliases: Dict[str, str] = field(default_factory=dict)
    suppressions: dict = field(default_factory=dict)
    _parents: Dict[int, ast.AST] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.aliases:
            self.aliases = _import_aliases(self.tree)
        if not self.suppressions:
            self.suppressions = suppressed_rules(self.source.splitlines())
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


#: ``id(record) -> (record, entry qualname)``: a call-graph traversal
#: remembers which entry point first reached each function.
Reach = Dict[int, Tuple[FunctionRecord, str]]


class Project:
    """The parsed module set with cross-module call resolution."""

    def __init__(self, modules: Sequence[ModuleInfo],
                 syntax_errors: Sequence[Finding] = ()) -> None:
        self.modules = list(modules)
        #: one REPRO000 finding per file that does not parse
        self.syntax_errors = list(syntax_errors)
        #: every function definition, in module then source order
        self.functions: List[FunctionRecord] = []
        #: short function name -> every project definition with that name
        self.functions_by_short: Dict[str, List[FunctionRecord]] = {}
        #: fully qualified name -> definition
        self.functions_by_full: Dict[str, FunctionRecord] = {}
        for module in self.modules:
            for record in _collect_functions(module):
                self.functions.append(record)
                self.functions_by_short.setdefault(
                    record.short_name, []
                ).append(record)
                self.functions_by_full[record.full_name()] = record

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

    def functions_in(self, module: ModuleInfo) -> Iterator[FunctionRecord]:
        """Every function record defined in ``module``."""
        return (record for record in self.functions if record.module is module)

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

    def reachable(self, entries: Reach) -> Reach:
        """Transitive closure of the call graph from ``entries``."""
        reached = dict(entries)
        frontier = list(entries.values())
        while frontier:
            record, entry = frontier.pop()
            for node in ast.walk(record.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self.lookup_function(record.module, node.func)
                if callee is not None and id(callee) not in reached:
                    reached[id(callee)] = (callee, entry)
                    frontier.append((callee, entry))
        return reached


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
