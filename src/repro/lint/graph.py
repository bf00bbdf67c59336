"""Project index and call graph for the cross-module rules.

:class:`Project` bundles every parsed module of a lint run and lazily
derives:

* :class:`ProjectIndex` — every function/method and class across the
  project, keyed by qualified name ``dotted.module:Qual.name``
  (``repro.serve.service:SolverService.solve``), plus the module scopes,
  registry dicts and oracle-hook value sets the resolver needs;
* :class:`CallGraph` — caller → callee edges built by resolving every
  call expression through :mod:`repro.lint.dataflow` origins.  Edges
  cover direct calls, methods on ``self``/known instances (including
  parameters annotated with a project class: ``service: SolverService``
  makes ``service.solve(...)`` an edge), registry dispatch
  (``ALGORITHM_BY_NAME[name](g)`` *and* the ``_resolve(name)(g)``
  passthrough shape via per-function return summaries), class
  instantiation (edge to ``__init__``) and
  ``workspace_factory``/``state_factory`` hook indirection (a call
  through a hook parameter fans out to every value the project passes
  for that hook).

Unresolvable callees produce no edges — the graph under-approximates,
which keeps cross-module findings high-precision at the cost of relying
on inline waivers for truly dynamic dispatch.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import (
    HOOK_PARAMS,
    FunctionScope,
    ModuleScope,
    Origin,
    iter_function_body,
)
from .engine import LintModule

__all__ = ["CallGraph", "FunctionInfo", "Project", "ProjectIndex"]

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Cap on return-summary passthrough resolution (defensive; the chains
#: this resolves are one hop: ``_resolve(name)(graph)``).
_MAX_RETURN_DEPTH = 4


class FunctionInfo:
    """One indexed function or method."""

    __slots__ = ("qname", "name", "class_name", "node", "module", "params")

    def __init__(
        self,
        qname: str,
        node: ast.AST,
        module: LintModule,
        class_name: Optional[str] = None,
    ) -> None:
        self.qname = qname
        self.node = node
        self.module = module
        self.class_name = class_name
        self.name = node.name  # type: ignore[attr-defined]
        args = node.args  # type: ignore[attr-defined]
        self.params: List[str] = [
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]

    @property
    def display_name(self) -> str:
        """``Class.method`` or plain ``function`` for messages."""
        return f"{self.class_name}.{self.name}" if self.class_name else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qname!r})"


class ClassInfo:
    """One indexed class: its methods and declared base names."""

    __slots__ = ("qname", "node", "module", "methods", "bases")

    def __init__(self, qname: str, node: ast.ClassDef, module: LintModule) -> None:
        self.qname = qname
        self.node = node
        self.module = module
        self.methods: Dict[str, str] = {}  # method name -> function qname
        self.bases: List[ast.expr] = list(node.bases)


class ProjectIndex:
    """Every function, class and module scope across one lint run."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules = list(modules)
        self.scopes: Dict[str, ModuleScope] = {}
        self.scopes_by_name: Dict[str, ModuleScope] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._module_resolvers: Dict[str, FunctionScope] = {}
        self._symbol_cache: Dict[str, Set[Origin]] = {}
        self._registry_cache: Dict[str, Set[str]] = {}
        self._hook_values: Optional[Dict[str, Set[Origin]]] = None
        for module in modules:
            scope = ModuleScope(module)
            self.scopes[module.path] = scope
            # First module wins on dotted-name collisions (stable: the
            # engine feeds modules in sorted path order).
            self.scopes_by_name.setdefault(scope.name, scope)
            self._index_module(module, scope)

    # ------------------------------------------------------------------
    def _index_module(self, module: LintModule, scope: ModuleScope) -> None:
        for stmt in module.tree.body:
            self._index_statement(stmt, scope, prefix="", class_name=None)

    def _index_statement(
        self,
        stmt: ast.stmt,
        scope: ModuleScope,
        prefix: str,
        class_name: Optional[str],
    ) -> None:
        if isinstance(stmt, _FUNCTION_DEFS):
            qual = f"{prefix}{stmt.name}"
            qname = f"{scope.name}:{qual}"
            info = FunctionInfo(qname, stmt, scope.module, class_name)
            self.functions[qname] = info
            if class_name is not None:
                owner = f"{scope.name}:{prefix.rstrip('.')}"
                if owner in self.classes:
                    self.classes[owner].methods[stmt.name] = qname
            # Nested defs are indexed too (closures called via the
            # enclosing scope resolve by reaching assignment, not here),
            # mostly so decorator factories' inner wrappers are visible.
            for child in stmt.body:
                if isinstance(child, _FUNCTION_DEFS + (ast.ClassDef,)):
                    self._index_statement(child, scope, f"{qual}.", class_name)
        elif isinstance(stmt, ast.ClassDef):
            qual = f"{prefix}{stmt.name}"
            qname = f"{scope.name}:{qual}"
            self.classes[qname] = ClassInfo(qname, stmt, scope.module)
            for child in stmt.body:
                self._index_statement(child, scope, f"{qual}.", class_name=qual)
        elif isinstance(stmt, (ast.If, ast.Try)):
            bodies = [stmt.body, stmt.orelse]
            if isinstance(stmt, ast.Try):
                bodies.extend([h.body for h in stmt.handlers] + [stmt.finalbody])
            for body in bodies:
                for child in body:
                    self._index_statement(child, scope, prefix, class_name)

    # ------------------------------------------------------------------
    # Resolution services (used by FunctionScope via duck typing)
    # ------------------------------------------------------------------
    def module_resolver(self, scope: ModuleScope) -> FunctionScope:
        resolver = self._module_resolvers.get(scope.module.path)
        if resolver is None:
            resolver = FunctionScope(self, scope, fn=None)
            self._module_resolvers[scope.module.path] = resolver
        return resolver

    def resolve_symbol(self, dotted: str, _depth: int = 0) -> Set[Origin]:
        """Resolve an absolute dotted name, following re-export chains."""
        cached = self._symbol_cache.get(dotted)
        if cached is not None:
            return cached
        self._symbol_cache[dotted] = {("unknown",)}  # cycle guard
        result = self._resolve_symbol_uncached(dotted, _depth)
        self._symbol_cache[dotted] = result
        return result

    def _resolve_symbol_uncached(self, dotted: str, depth: int) -> Set[Origin]:
        if depth > 5:
            return {("external", dotted)}
        if dotted in self.scopes_by_name:
            return {("module", dotted)}
        head, _, tail = dotted.rpartition(".")
        scope = self.scopes_by_name.get(head) if head else None
        if scope is None:
            return {("external", dotted)}
        if tail in scope.registries:
            return {("registry", f"{scope.name}:{tail}")}
        if tail in scope.defs:
            node = scope.defs[tail]
            kind = "class" if isinstance(node, ast.ClassDef) else "func"
            return {(kind, f"{scope.name}:{tail}")}
        if tail in scope.imports:
            return self.resolve_symbol(scope.imports[tail], depth + 1)
        if tail in scope.assignments:
            out = set(
                self.module_resolver(scope).origins_of(scope.assignments[tail])
            )
            if tail in scope.mutable_globals:
                out.add(("global_mutable", f"{scope.name}:{tail}"))
            return out
        return {("external", dotted)}

    def lookup_method(self, class_qname: str, attr: str) -> Optional[Origin]:
        """Resolve ``attr`` on a class, walking declared project bases."""
        seen: Set[str] = set()
        queue = deque([class_qname])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            method = cls.methods.get(attr)
            if method is not None:
                return ("func", method)
            scope = self.scopes[cls.module.path]
            resolver = self.module_resolver(scope)
            for base in cls.bases:
                for origin in resolver.origins_of(base):
                    if origin[0] == "class":
                        queue.append(origin[1])
        return None

    def registry_targets(self, registry_qname: str) -> Set[str]:
        """Function qnames a registry dict dispatches to (incl. ``__init__``)."""
        cached = self._registry_cache.get(registry_qname)
        if cached is not None:
            return cached
        targets: Set[str] = set()
        module_name, _, name = registry_qname.rpartition(":")
        scope = self.scopes_by_name.get(module_name)
        if scope is not None and name in scope.registries:
            resolver = self.module_resolver(scope)
            for value in scope.registries[name]:
                for origin in resolver.origins_of(value):
                    if origin[0] == "func":
                        targets.add(origin[1])
                    elif origin[0] == "class":
                        init = self.lookup_method(origin[1], "__init__")
                        if init is not None:
                            targets.add(init[1])
        self._registry_cache[registry_qname] = targets
        return targets

    def hook_value_origins(self, hook: str) -> Set[Origin]:
        """Every value the project passes for an oracle-hook keyword.

        Scans all call sites for ``workspace_factory=...`` /
        ``state_factory=...`` keywords and resolves the values with the
        *module-level* resolver of the calling module — hook values are
        overwhelmingly imported classes or module-level defs, and using
        the module resolver avoids a fixpoint between scope construction
        and hook collection.
        """
        if self._hook_values is None:
            values: Dict[str, Set[Origin]] = {h: set() for h in HOOK_PARAMS}
            for module in self.modules:
                scope = self.scopes[module.path]
                resolver = self.module_resolver(scope)
                for node in ast.walk(module.tree):
                    if not isinstance(node, ast.Call):
                        continue
                    for keyword in node.keywords:
                        if keyword.arg in values:
                            for origin in resolver.origins_of(keyword.value):
                                if origin[0] in ("func", "class"):
                                    values[keyword.arg].add(origin)
            self._hook_values = values
        return self._hook_values.get(hook, set())


class CallGraph:
    """Caller → callee qname edges over a :class:`ProjectIndex`."""

    def __init__(self, edges: Dict[str, Set[str]]) -> None:
        self.edges = edges
        self._return_cache: Dict[str, Set[Origin]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: "Project") -> "CallGraph":
        index = project.index
        builder = cls({})
        for qname, info in index.functions.items():
            builder.edges[qname] = builder._callees_of(project, qname, info)
        return builder

    def _callees_of(
        self, project: "Project", qname: str, info: FunctionInfo
    ) -> Set[str]:
        scope = project.scope(qname)
        targets: Set[str] = set()
        for node in iter_function_body(info.node):
            if not isinstance(node, ast.Call):
                continue
            for origin in scope.origins_of(node.func):
                self._add_edges(project, scope, node, origin, targets, 0)
        targets.discard(qname)
        return targets

    def _add_edges(
        self,
        project: "Project",
        scope: FunctionScope,
        call: ast.Call,
        origin: Origin,
        targets: Set[str],
        depth: int,
    ) -> None:
        index = project.index
        kind = origin[0]
        if kind == "func":
            targets.add(origin[1])
        elif kind == "class":
            init = index.lookup_method(origin[1], "__init__")
            if init is not None:
                targets.add(init[1])
        elif kind in ("registry", "registry_item"):
            targets |= index.registry_targets(origin[1])
        elif kind == "result" and depth < _MAX_RETURN_DEPTH:
            # ``factory = _resolve(name)`` / direct ``_resolve(name)(graph)``:
            # chase the callee's return summary.
            for returned in self._return_origins(project, origin[1]):
                if returned[0] == "param" and isinstance(call.func, ast.Call):
                    # Map the passthrough parameter back onto the inner
                    # call-site argument and resolve it in *this* scope.
                    arg = _argument_for(
                        index.functions.get(origin[1]), call.func, returned[1]
                    )
                    if arg is not None:
                        for inner in scope.origins_of(arg):
                            self._add_edges(
                                project, scope, call, inner, targets, depth + 1
                            )
                else:
                    self._add_edges(
                        project, scope, call, returned, targets, depth + 1
                    )

    def _return_origins(self, project: "Project", qname: str) -> Set[Origin]:
        cached = self._return_cache.get(qname)
        if cached is not None:
            return cached
        self._return_cache[qname] = set()  # cycle guard
        info = project.index.functions.get(qname)
        origins: Set[Origin] = set()
        if info is not None:
            scope = project.scope(qname)
            for node in iter_function_body(info.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    origins |= scope.origins_of(node.value)
        self._return_cache[qname] = origins
        return origins

    # ------------------------------------------------------------------
    def reachable_with_parents(
        self, roots: Iterable[str]
    ) -> Tuple[Set[str], Dict[str, str]]:
        """BFS closure of ``roots`` plus a parent map for chain rendering."""
        parents: Dict[str, str] = {}
        seen: Set[str] = set()
        queue = deque()
        for root in roots:
            if root not in seen:
                seen.add(root)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in sorted(self.edges.get(current, ())):
                if callee not in seen:
                    seen.add(callee)
                    parents[callee] = current
                    queue.append(callee)
        return seen, parents

    @staticmethod
    def chain(parents: Dict[str, str], qname: str) -> List[str]:
        """Root → … → qname path recovered from a BFS parent map."""
        path = [qname]
        while path[-1] in parents:
            path.append(parents[path[-1]])
        path.reverse()
        return path


def _argument_for(
    info: Optional[FunctionInfo], call: ast.Call, param: str
) -> Optional[ast.expr]:
    """The call-site expression bound to ``param`` at ``call``."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if info is None:
        return None
    params = info.params
    if params and params[0] == "self":
        params = params[1:]
    try:
        position = params.index(param)
    except ValueError:
        return None
    if position < len(call.args):
        arg = call.args[position]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


class Project:
    """The whole-project view handed to ``Rule.check_graph``."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules = list(modules)
        self._index: Optional[ProjectIndex] = None
        self._graph: Optional[CallGraph] = None
        self._scopes: Dict[str, FunctionScope] = {}

    @property
    def index(self) -> ProjectIndex:
        if self._index is None:
            self._index = ProjectIndex(self.modules)
        return self._index

    @property
    def graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph.build(self)
        return self._graph

    def scope(self, qname: str) -> FunctionScope:
        """The (cached) :class:`FunctionScope` for an indexed function."""
        scope = self._scopes.get(qname)
        if scope is None:
            info = self.index.functions[qname]
            module_scope = self.index.scopes[info.module.path]
            class_qname = (
                f"{module_scope.name}:{info.class_name}" if info.class_name else None
            )
            scope = FunctionScope(
                self.index, module_scope, info.node, class_qname
            )
            self._scopes[qname] = scope
        return scope
