"""Static shape-contract verification: REPRO010.

PR 1's ``@shaped`` decorators assert the paper's array orientations at
*runtime*.  This pass promotes those decorations to **interface specs**
and verifies them *statically*: the symbolic dimension names
(``n_objects``, ``n_workers``, ``n_actions``, ...) declared in ``nn/``,
``rl/`` and ``inference/`` are propagated through assignments and call
sites, and a call that passes an array whose known symbolic shape is a
*permutation* of the declared one — the classic transposed
``(n_workers, n_objects)`` where ``(n_objects, n_workers)`` is declared
— is rejected before any test runs.

The propagation is deliberately modest and sound-by-silence:

* a variable assigned from a call to a ``@shaped(result=...)`` function
  adopts the declared result dims;
* a parameter of a ``@shaped``-decorated function adopts its declared
  dims inside that function's body;
* ``x.T`` / ``np.transpose(x)`` reverse known dims; plain name
  assignment copies them; elementwise arithmetic (``x + y``, ``x * 2``)
  preserves them; tuple unpacking (``a, b = f(x)``, ``a, b = x, y.T``)
  propagates elementwise through the callee's return tuples;
* container round-trips keep dims alive: ``list(x)`` / ``tuple(x)``
  preserve the element structure numpy sees when the value is consumed
  as an array again, and storing under a *constant* subscript key
  (``cache["w"] = x.T`` ... ``f(cache["w"])``) is tracked like a named
  binding — as is building the container in one literal
  (``cache = {"w": x.T}``, ``pair = [x, y.T]``), whose constant-keyed
  entries land in the same slots; rebinding the container wholesale
  forgets its entries;
* anything else forgets them.

A mismatch is only reported when *both* sides are known and definitely
incompatible: different arity, or the same symbol multiset in a
different order.  Two functions naming the same dimension differently
(``n`` vs ``n_samples``) stay silent — there is no cross-naming oracle.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.contracts import parse_shape
from repro.analysis.lint.engine import Finding
from repro.exceptions import ConfigurationError
from repro.analysis.flow.project import (
    FunctionRecord,
    ModuleInfo,
    Project,
)

Dims = Tuple[str, ...]

#: Resolutions of the decorator that declares a shape contract.
_SHAPED_NAMES = {
    "repro.analysis.contracts.shaped",
    "repro.analysis.shaped",
    "shaped",
}


@dataclass
class ShapeSpec:
    """The declared shape interface of one decorated function."""

    record: FunctionRecord
    params: Dict[str, Dims] = field(default_factory=dict)
    result: Optional[Dims] = None

    def full_name(self) -> str:
        return self.record.full_name()


def _parse_spec_string(node: ast.expr) -> Optional[Dims]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return parse_shape(node.value)
        except ConfigurationError:
            return None
    return None


def _first_checkable_param(record: FunctionRecord) -> Optional[str]:
    params = record.parameters()
    return params[0] if params else None


def collect_specs(project: Project) -> Dict[str, List[ShapeSpec]]:
    """Scan every module for ``@shaped`` decorations, keyed by short name."""
    specs: Dict[str, List[ShapeSpec]] = {}
    for records in project.functions_by_short.values():
        for record in records:
            node = record.node
            for decorator in getattr(node, "decorator_list", []):
                if not isinstance(decorator, ast.Call):
                    continue
                resolved = record.module.resolve(decorator.func)
                if resolved not in _SHAPED_NAMES:
                    continue
                spec = ShapeSpec(record=record)
                if decorator.args:
                    dims = _parse_spec_string(decorator.args[0])
                    first = _first_checkable_param(record)
                    if dims is not None and first is not None:
                        spec.params[first] = dims
                for keyword in decorator.keywords:
                    dims = _parse_spec_string(keyword.value)
                    if dims is None or keyword.arg is None:
                        continue
                    if keyword.arg == "result":
                        spec.result = dims
                    elif keyword.arg != "enabled":
                        spec.params[keyword.arg] = dims
                if spec.params or spec.result is not None:
                    specs.setdefault(record.short_name, []).append(spec)
    return specs


def _lookup_spec(specs: Dict[str, List[ShapeSpec]], module: ModuleInfo,
                 func: ast.expr) -> Optional[ShapeSpec]:
    """The unique spec a call target resolves to, else ``None``."""
    if isinstance(func, ast.Attribute):
        short = func.attr
    elif isinstance(func, ast.Name):
        short = func.id
    else:
        return None
    candidates = specs.get(short, [])
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        return None
    full = module.resolve(func)
    for candidate in candidates:
        if full is not None and candidate.full_name().endswith(full):
            return candidate
    return None


# ----------------------------------------------------------------------
# Per-function symbolic propagation
# ----------------------------------------------------------------------
def _transposed(dims: Dims) -> Dims:
    return tuple(reversed(dims))


#: Builtin container constructors that preserve the element structure an
#: array regains when the value is consumed as an array again:
#: ``np.asarray(list(x))`` has exactly ``x``'s shape, so a transposed
#: matrix laundered through ``list(...)`` is still transposed.
_SHAPE_PRESERVING_CONTAINERS = ("list", "tuple")


def _const_subscript_key(node: ast.expr) -> Optional[str]:
    """The environment key for ``name[<constant>]``, else ``None``.

    Constant-key subscripts (``cache["w"]``, ``weights[0]``) behave like
    named slots, so their dims are tracked under a composite key; the
    bracket in the key keeps it disjoint from every plain variable name.
    """
    if not isinstance(node, ast.Subscript):
        return None
    base = node.value
    if not isinstance(base, ast.Name):
        return None
    key = node.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, (str, int)) \
            and not isinstance(key.value, bool):
        return f"{base.id}[{key.value!r}]"
    return None


def _forget_container_entries(env: Dict[str, Dims], name: str) -> None:
    """Drop every tracked ``name[...]`` slot when ``name`` is rebound."""
    prefix = f"{name}["
    for key in [k for k in env if k.startswith(prefix)]:
        del env[key]


def _container_literal_entries(
    module: ModuleInfo, specs: Dict[str, List[ShapeSpec]],
    env: Dict[str, Dims], name: str, value: ast.expr,
) -> Optional[Dict[str, Dims]]:
    """Tracked slots for ``name = {literal}`` / ``name = [literal]``.

    A dict literal with constant string/int keys and a list/tuple literal
    both store their elements under the same constant-subscript keys a
    later ``name["w"]`` / ``name[0]`` read resolves through, so dims flow
    through literal construction exactly as through per-slot assignment.
    Returns ``None`` when ``value`` is not a trackable container literal;
    entries whose dims are unknown are simply absent (sound-by-silence).
    """
    entries: Dict[str, Dims] = {}
    if isinstance(value, ast.Dict):
        for key, elt in zip(value.keys, value.values):
            if key is None:  # ``**spread`` — contents unknown
                continue
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, (str, int))
                    and not isinstance(key.value, bool)):
                continue
            dims = _expr_dims(module, specs, env, elt)
            if dims is not None:
                entries[f"{name}[{key.value!r}]"] = dims
        return entries
    if isinstance(value, (ast.List, ast.Tuple)):
        for index, elt in enumerate(value.elts):
            if isinstance(elt, ast.Starred):
                return entries  # later indices shift by an unknown amount
            dims = _expr_dims(module, specs, env, elt)
            if dims is not None:
                entries[f"{name}[{index!r}]"] = dims
        return entries
    return None


def _is_scalar_expr(node: ast.expr) -> bool:
    """A literal number (possibly signed): broadcasts without reshaping."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, complex)) \
            and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        return _is_scalar_expr(node.operand)
    return False


def _expr_dims(module: ModuleInfo, specs: Dict[str, List[ShapeSpec]],
               env: Dict[str, Dims], node: ast.expr) -> Optional[Dims]:
    """Known symbolic dims of an expression, or ``None``."""
    if isinstance(node, ast.Name):
        return env.get(node.id)
    subscript_key = _const_subscript_key(node)
    if subscript_key is not None:
        return env.get(subscript_key)
    if isinstance(node, ast.Attribute) and node.attr == "T":
        inner = _expr_dims(module, specs, env, node.value)
        return _transposed(inner) if inner is not None else None
    if isinstance(node, ast.BinOp) and not isinstance(node.op, ast.MatMult):
        # Elementwise arithmetic preserves shape; scalars broadcast.
        left = _expr_dims(module, specs, env, node.left)
        right = _expr_dims(module, specs, env, node.right)
        if left is not None and (left == right or _is_scalar_expr(node.right)):
            return left
        if right is not None and left is None \
                and _is_scalar_expr(node.left):
            return right
        return None
    if isinstance(node, ast.Call):
        resolved = module.resolve(node.func)
        if resolved in ("numpy.transpose", "numpy.matrix_transpose"):
            if node.args:
                inner = _expr_dims(module, specs, env, node.args[0])
                return _transposed(inner) if inner is not None else None
            return None
        if resolved in ("numpy.ascontiguousarray", "numpy.asarray",
                        "numpy.array", "numpy.copy"):
            if len(node.args) == 1:
                return _expr_dims(module, specs, env, node.args[0])
            return None
        if (isinstance(node.func, ast.Name)
                and node.func.id in _SHAPE_PRESERVING_CONTAINERS
                and resolved in (None, node.func.id)):
            if len(node.args) == 1 and not node.keywords:
                return _expr_dims(module, specs, env, node.args[0])
            return None
        spec = _lookup_spec(specs, module, node.func)
        if spec is not None:
            return spec.result
    return None


def _incompatible(passed: Dims, declared: Dims) -> Optional[str]:
    """A human-readable clash between two known dim tuples, or ``None``."""
    if len(passed) != len(declared):
        return (
            f"{len(passed)}-D ({', '.join(passed)}) passed where "
            f"{len(declared)}-D ({', '.join(declared)}) is declared"
        )
    symbolic_passed = [d for d in passed if not d.isdigit() and d != "_"]
    symbolic_declared = [d for d in declared if not d.isdigit() and d != "_"]
    if (passed != declared
            and sorted(symbolic_passed) == sorted(symbolic_declared)
            and len(set(symbolic_passed)) > 1
            and len(symbolic_passed) == len(passed)):
        return (
            f"({', '.join(passed)}) passed where ({', '.join(declared)}) is "
            f"declared — the array is transposed"
        )
    return None


def _tuple_element_dims(project: Project, module: ModuleInfo,
                        specs: Dict[str, List[ShapeSpec]],
                        env: Dict[str, Dims], value: ast.expr,
                        n: int) -> Optional[List[Optional[Dims]]]:
    """Per-element dims of a tuple-valued expression, or ``None``.

    Handles the literal form ``a, b = x, y.T`` directly and the call
    form ``a, b = f(x)`` by evaluating every return tuple of the
    resolved callee under the callee's own declared parameter dims;
    disagreeing returns degrade elementwise to unknown.
    """
    if isinstance(value, ast.Tuple):
        if len(value.elts) != n:
            return None
        return [_expr_dims(module, specs, env, elt) for elt in value.elts]
    if isinstance(value, ast.Call):
        record = project.lookup_function(module, value.func)
        if record is None:
            return None
        callee_env: Dict[str, Dims] = {}
        for spec in specs.get(record.short_name, []):
            if spec.record is record:
                callee_env = dict(spec.params)
        returns = project.return_expressions(record)
        if not returns:
            return None
        dims: Optional[List[Optional[Dims]]] = None
        for ret in returns:
            if not (isinstance(ret, ast.Tuple) and len(ret.elts) == n):
                return None
            these = [_expr_dims(record.module, specs, callee_env, elt)
                     for elt in ret.elts]
            if dims is None:
                dims = these
            else:
                dims = [a if a == b else None for a, b in zip(dims, these)]
        return dims
    return None


def _check_function(project: Project, module: ModuleInfo,
                    record: FunctionRecord,
                    specs: Dict[str, List[ShapeSpec]]) -> Iterator[Finding]:
    fn = record.node
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    env: Dict[str, Dims] = {}
    own = [s for s in specs.get(record.short_name, []) if s.record is record]
    if own:
        env.update(own[0].params)

    class _Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.findings: List[Finding] = []

        def visit_Assign(self, node: ast.Assign) -> None:
            self.generic_visit(node)
            if len(node.targets) != 1:
                return
            target = node.targets[0]
            if isinstance(target, ast.Name):
                _forget_container_entries(env, target.id)
                entries = _container_literal_entries(
                    module, specs, env, target.id, node.value
                )
                if entries is not None:
                    env.pop(target.id, None)
                    env.update(entries)
                    return
                dims = _expr_dims(module, specs, env, node.value)
                if dims is not None:
                    env[target.id] = dims
                else:
                    env.pop(target.id, None)
            elif (subscript_key := _const_subscript_key(target)) is not None:
                dims = _expr_dims(module, specs, env, node.value)
                if dims is not None:
                    env[subscript_key] = dims
                else:
                    env.pop(subscript_key, None)
            elif isinstance(target, ast.Tuple) and all(
                isinstance(elt, ast.Name) for elt in target.elts
            ):
                elements = _tuple_element_dims(
                    project, module, specs, env, node.value, len(target.elts)
                ) or [None] * len(target.elts)
                for elt, dims in zip(target.elts, elements):
                    if dims is not None:
                        env[elt.id] = dims
                    else:
                        env.pop(elt.id, None)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            self.generic_visit(node)
            if isinstance(node.target, ast.Name) and node.value is not None:
                _forget_container_entries(env, node.target.id)
                entries = _container_literal_entries(
                    module, specs, env, node.target.id, node.value
                )
                if entries is not None:
                    env.pop(node.target.id, None)
                    env.update(entries)
                    return
                dims = _expr_dims(module, specs, env, node.value)
                if dims is not None:
                    env[node.target.id] = dims
                else:
                    env.pop(node.target.id, None)

        def visit_Call(self, node: ast.Call) -> None:
            self.generic_visit(node)
            spec = _lookup_spec(specs, module, node.func)
            if spec is None or spec.record is record:
                return
            callee = spec.record
            params = callee.parameters()
            pairs: List[Tuple[str, ast.expr]] = []
            offset = 0
            if callee.is_method and not isinstance(node.func, ast.Attribute):
                offset = 0  # unbound call with explicit self is not produced
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                pidx = index + offset
                if pidx < len(params):
                    pairs.append((params[pidx], arg))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    pairs.append((keyword.arg, keyword.value))
            for param_name, arg in pairs:
                declared = spec.params.get(param_name)
                if declared is None:
                    continue
                passed = _expr_dims(module, specs, env, arg)
                if passed is None:
                    continue
                clash = _incompatible(passed, declared)
                if clash is not None:
                    self.findings.append(module.finding(
                        "REPRO010", arg,
                        f"argument '{param_name}' of "
                        f"{callee.qualname}: {clash}",
                    ))

    visitor = _Visitor()
    for statement in fn.body:
        visitor.visit(statement)
    yield from visitor.findings


def check_shapes(project: Project) -> Iterator[Finding]:
    """Verify every resolvable call site against the ``@shaped`` specs."""
    specs = collect_specs(project)
    for record in project.functions_by_full.values():
        yield from _check_function(project, record.module, record, specs)
