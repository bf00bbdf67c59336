"""Name-resolution and reaching-assignment substrate for project rules.

The cross-module rules (RL006–RL008) need answers a single-file AST walk
cannot give: *what does this name refer to?* — through imports and
re-exports, registry dicts (``ALGORITHM_BY_NAME[name]``), factory-hook
defaults (``factory = FlatWorkspace if workspace_factory is None else
workspace_factory``) and the bound-local preludes the hot kernels use.
This module is the minimal dataflow layer the call graph
(:mod:`repro.lint.graph`) and the rules build on:

* :class:`ModuleScope` — one module's import table (relative imports
  resolved against its dotted name), top-level defs, registry dicts and
  mutable module globals;
* :class:`FunctionScope` — reaching assignments inside one function, with
  :meth:`FunctionScope.origins_of` resolving an arbitrary expression to a
  set of *origins*.

Origins are coarse tagged tuples — precision is traded for zero false
cycles and predictable cost:

========================  ====================================================
``("func", qname)``       a project function/method (``module:Class.meth``)
``("class", qname)``      a project class
``("instance", qname)``   a value built by instantiating a project class,
                          or a parameter annotated with one
``("result", qname)``     the return value of calling a project function
``("registry", qname)``   a module-level dispatch dict (name → callable)
``("registry_item", q)``  one value subscripted out of such a dict
``("module", dotted)``    an imported project module (``obs`` → ``repro.obs``)
``("param", name)``       a parameter of the enclosing function
``("global_mutable", q)`` a module-level dict/list/set (cache) binding
``("unknown",)``          everything else, including symbols the
                          project does not define
========================  ====================================================

Resolution is *unioning*: a name assigned on two branches yields both
origins, and rules decide which tags they care about.  Unresolvable
receivers yield ``("unknown",)`` and produce **no** call-graph edges — the
engine prefers silence to a false cross-module finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import LintModule, module_name_for

__all__ = [
    "FunctionScope",
    "HOOK_PARAMS",
    "ModuleScope",
    "Origin",
    "UNKNOWN",
]

Origin = Tuple[str, ...]

#: The resolver's "no idea" answer; never produces call-graph edges.
UNKNOWN: Origin = ("unknown",)

#: Oracle-hook parameter names (shared with RL004): a call through one of
#: these resolves to every value the project passes for that hook.
HOOK_PARAMS = frozenset({"workspace_factory", "state_factory"})

#: Call targets at module level that build a mutable module global.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Recursion fuse for expression/origin resolution.
_MAX_DEPTH = 12


def _iter_scope_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Top-level statements of a scope, looking through control flow.

    ``if``/``try``/``with`` blocks at module level (version guards, lazy
    numpy imports) still bind module names, so their bodies are walked;
    nested function and class bodies are *not* — they are separate scopes.
    """
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.For, ast.While)):
            yield from _iter_scope_statements(stmt.body)
            yield from _iter_scope_statements(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _iter_scope_statements(stmt.body)
            for handler in stmt.handlers:
                yield from _iter_scope_statements(handler.body)
            yield from _iter_scope_statements(stmt.orelse)
            yield from _iter_scope_statements(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _iter_scope_statements(stmt.body)


def iter_function_body(fn: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function body, *excluding* nested def/class scopes.

    Nested ``def``s run in the enclosing frame when called, but their
    assignments bind their own locals — pruning them keeps the enclosing
    scope's reaching-assignment table honest.
    """
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_DEFS + (ast.ClassDef,)):
                continue
            stack.append(child)


class ModuleScope:
    """One module's name-binding surface: imports, defs, globals."""

    def __init__(self, module: LintModule) -> None:
        self.module = module
        self.name = module_name_for(module.path)
        self.is_package = module.path.endswith("__init__.py")
        #: local name -> dotted import target (``np`` -> ``numpy``,
        #: ``bdone`` -> ``repro.core.bdone.bdone`` for from-imports).
        self.imports: Dict[str, str] = {}
        #: top-level ``def``/``class`` nodes by name.
        self.defs: Dict[str, ast.AST] = {}
        #: last top-level simple assignment per name.
        self.assignments: Dict[str, ast.expr] = {}
        #: module-level dispatch dicts: name -> the dict's value exprs.
        self.registries: Dict[str, List[ast.expr]] = {}
        #: module-level names bound to mutable containers (caches).
        self.mutable_globals: Set[str] = set()
        for stmt in _iter_scope_statements(module.tree.body):
            self._bind(stmt)

    # ------------------------------------------------------------------
    def _bind(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    self.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    self.imports[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            base = self.resolve_import_base(stmt.level, stmt.module)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                self.imports[alias.asname or alias.name] = target
        elif isinstance(stmt, _FUNCTION_DEFS + (ast.ClassDef,)):
            self.defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            if value is None:
                return
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                self.assignments[target.id] = value
                if self._is_registry(value):
                    self.registries[target.id] = list(value.values)  # type: ignore[union-attr]
                if self._is_mutable(value):
                    self.mutable_globals.add(target.id)

    @staticmethod
    def _is_registry(value: ast.expr) -> bool:
        """A dict display whose values reference callables by name."""
        return isinstance(value, ast.Dict) and any(
            isinstance(v, (ast.Name, ast.Attribute)) for v in value.values
        )

    @staticmethod
    def _is_mutable(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )

    # ------------------------------------------------------------------
    def resolve_import_base(self, level: int, module: Optional[str]) -> str:
        """The absolute dotted module a (possibly relative) import names."""
        if level == 0:
            return module or ""
        parts = self.name.split(".") if self.name else []
        if not self.is_package and parts:
            parts = parts[:-1]
        drop = level - 1
        if drop:
            parts = parts[:-drop] if drop <= len(parts) else []
        base = ".".join(parts)
        if module:
            return f"{base}.{module}" if base else module
        return base


class FunctionScope:
    """Reaching assignments + origin resolution for one function.

    Built with ``fn=None`` this doubles as the *module-level* resolver
    (imports and top-level defs only) — used to resolve registry values
    and hook keywords outside any function body.
    """

    def __init__(
        self,
        index: "object",
        module_scope: ModuleScope,
        fn: Optional[ast.AST] = None,
        class_qname: Optional[str] = None,
    ) -> None:
        self.index = index  # ProjectIndex (duck-typed to avoid an import cycle)
        self.module_scope = module_scope
        self.fn = fn
        self.class_qname = class_qname
        self.params: List[str] = []
        #: parameter name -> its annotation expression, where it has one.
        self.annotations: Dict[str, ast.expr] = {}
        self.assigns: Dict[str, List[ast.expr]] = {}
        self.local_imports: Dict[str, str] = {}
        if fn is not None:
            self._collect(fn)

    # ------------------------------------------------------------------
    def _collect(self, fn: ast.AST) -> None:
        args = fn.args  # type: ignore[attr-defined]
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.params.append(arg.arg)
            if arg.annotation is not None:
                self.annotations[arg.arg] = arg.annotation
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self.params.append(extra.arg)
        for node in iter_function_body(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assigns.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.assigns.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name):
                    self.assigns.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.local_imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.local_imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self.module_scope.resolve_import_base(node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.local_imports[alias.asname or alias.name] = target

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_name(
        self,
        name: str,
        _depth: int = 0,
        _stack: Optional[frozenset] = None,
    ) -> Set[Origin]:
        if _depth > _MAX_DEPTH:
            return {UNKNOWN}
        stack = _stack or frozenset()
        if name in stack:
            return {UNKNOWN}
        stack = stack | {name}
        if name == "self" and self.class_qname is not None:
            return {("instance", self.class_qname)}
        if name in self.assigns:
            out: Set[Origin] = set()
            for value in self.assigns[name]:
                out |= self.origins_of(value, _depth + 1, stack)
            if name in self.params:
                out |= self._param_origins(name)
            return out or {UNKNOWN}
        if name in self.params:
            return self._param_origins(name)
        if name in self.local_imports:
            return self.index.resolve_symbol(self.local_imports[name])  # type: ignore[attr-defined]
        scope = self.module_scope
        if name in scope.registries:
            return {("registry", f"{scope.name}:{name}")}
        if name in scope.defs:
            node = scope.defs[name]
            kind = "class" if isinstance(node, ast.ClassDef) else "func"
            return {(kind, f"{scope.name}:{name}")}
        if name in scope.imports:
            return self.index.resolve_symbol(scope.imports[name])  # type: ignore[attr-defined]
        if name in scope.assignments:
            resolver = self if self.fn is None else self.index.module_resolver(  # type: ignore[attr-defined]
                scope
            )
            out = set(resolver.origins_of(scope.assignments[name], _depth + 1, stack))
            if name in scope.mutable_globals:
                out.add(("global_mutable", f"{scope.name}:{name}"))
            return out or {UNKNOWN}
        return {UNKNOWN}

    def _param_origins(self, name: str) -> Set[Origin]:
        out: Set[Origin] = {("param", name)}
        if name in HOOK_PARAMS:
            out |= self.index.hook_value_origins(name)  # type: ignore[attr-defined]
        annotation = self.annotations.get(name)
        if annotation is not None:
            out |= self._annotated_instances(annotation)
        return out

    def _annotated_instances(self, annotation: ast.expr) -> Set[Origin]:
        """``("instance", q)`` for a parameter annotated with project class ``q``.

        ``service: SolverService`` (or the quoted ``"SolverService"``)
        makes ``service.solve(...)`` an edge to ``SolverService.solve``.
        Anything else — builtins, generics, external classes — adds
        nothing.
        """
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return set()
        if not isinstance(annotation, (ast.Name, ast.Attribute)):
            return set()
        resolver = self.index.module_resolver(self.module_scope)  # type: ignore[attr-defined]
        return {
            ("instance", origin[1])
            for origin in resolver.origins_of(annotation)
            if origin[0] == "class"
        }

    def origins_of(
        self,
        expr: ast.AST,
        _depth: int = 0,
        _stack: Optional[frozenset] = None,
    ) -> Set[Origin]:
        """Every origin ``expr`` may evaluate to (unioning over branches)."""
        if _depth > _MAX_DEPTH:
            return {UNKNOWN}
        if isinstance(expr, ast.Name):
            return self.resolve_name(expr.id, _depth, _stack)
        if isinstance(expr, ast.Attribute):
            return self._attribute_origins(expr, _depth, _stack)
        if isinstance(expr, ast.Call):
            return self._call_origins(expr, _depth, _stack)
        if isinstance(expr, ast.Subscript):
            out: Set[Origin] = set()
            for origin in self.origins_of(expr.value, _depth + 1, _stack):
                if origin[0] in ("registry", "registry_item"):
                    out.add(("registry_item", origin[1]))
            return out or {UNKNOWN}
        if isinstance(expr, ast.IfExp):
            return self.origins_of(expr.body, _depth + 1, _stack) | self.origins_of(
                expr.orelse, _depth + 1, _stack
            )
        if isinstance(expr, ast.BoolOp):
            out = set()
            for value in expr.values:
                out |= self.origins_of(value, _depth + 1, _stack)
            return out or {UNKNOWN}
        if isinstance(expr, ast.Await):
            return self.origins_of(expr.value, _depth + 1, _stack)
        return {UNKNOWN}

    # ------------------------------------------------------------------
    def _attribute_origins(
        self, expr: ast.Attribute, depth: int, stack: Optional[frozenset]
    ) -> Set[Origin]:
        out: Set[Origin] = set()
        for origin in self.origins_of(expr.value, depth + 1, stack):
            kind = origin[0]
            if kind == "module":
                out |= self.index.resolve_symbol(f"{origin[1]}.{expr.attr}")  # type: ignore[attr-defined]
            elif kind in ("instance", "class"):
                method = self.index.lookup_method(origin[1], expr.attr)  # type: ignore[attr-defined]
                if method is not None:
                    out.add(method)
        return out or {UNKNOWN}

    def _call_origins(
        self, expr: ast.Call, depth: int, stack: Optional[frozenset]
    ) -> Set[Origin]:
        out: Set[Origin] = set()
        for origin in self.origins_of(expr.func, depth + 1, stack):
            kind = origin[0]
            if kind == "class":
                out.add(("instance", origin[1]))
            elif kind == "func":
                out.add(("result", origin[1]))
        return out or {UNKNOWN}
