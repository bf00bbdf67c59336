"""RL007 — fork safety of worker payloads.

A process-mode shard (:class:`~repro.serve.router.ProcessShardWorker`)
runs :func:`~repro.serve.router._shard_worker_main` in a forked child,
and that child runs the solvers: ``handle_request(service: SolverService,
…)`` → ``SolverService.solve`` → ``cold_solve`` / ``repair_solution``.
On fork, every worker inherits a *copy* of process-global state — the
:class:`~repro.obs.metrics.MetricsRegistry`, the telemetry singleton,
module-level caches — so a worker-side mutation is silently lost (or,
under spawn/threads, races the parent).  The sanctioned channel is the
one the shard worker already uses: its own per-child registry, read back
by the parent through the pipe's counters message.

RL007 finds every function reachable from a worker payload — the
``target=`` of a ``multiprocessing.Process`` (how the shard router boots
its worker fleet), the callable handed to ``loop.run_in_executor`` by the
async front-end's dispatchers, or the callable handed to
``pool.map``/``imap``/``apply_async``/… or ``executor.submit`` — and
flags, inside that closure:

* calls to ``repro.obs.metrics.get_metrics`` — grabbing the process-
  global registry in worker code;
* ``inc``/``observe``/``set_gauge`` on a value resolving to that
  registry;
* ``global`` declarations — rebinding module state in a forked child;
* mutation of module-level containers (caches) via method call,
  subscript or attribute store.

Reaching the solvers from the shard worker rests on the call graph
resolving ``service.solve(...)`` through the parameter's
``SolverService`` annotation (:mod:`repro.lint.dataflow`).

Calls to the session APIs themselves (``metrics_session``,
``telemetry_session``, ``enable``/``disable``, ``write_trace``) are not
flagged, and the :mod:`repro.obs` modules that *implement* the state are
exempt.  Intentional worker-side module state (e.g. the lazy numpy memo)
is waived inline with ``# reprolint: disable=RL007``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..dataflow import iter_function_body
from ..findings import Finding
from .base import Rule

__all__ = ["ForkSafetyRule"]

#: Pool/executor methods whose first argument is a worker payload.
_POOL_METHODS = frozenset(
    {
        "map",
        "imap",
        "imap_unordered",
        "starmap",
        "map_async",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)

#: Callables whose ``target=`` keyword is a worker payload.
_PROCESS_CTORS = frozenset({"Process"})

#: MetricsRegistry write methods.
_METRIC_WRITES = frozenset({"inc", "observe", "set_gauge"})

#: Container-mutating method names (flagged on module-global receivers).
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "discard",
        "remove",
        "clear",
        "pop",
        "popitem",
    }
)

_GET_METRICS = "repro.obs.metrics:get_metrics"
_REGISTRY_CLASS = "repro.obs.metrics:MetricsRegistry"

#: Modules that own the process-global state (and its session APIs).
_EXEMPT_SUFFIXES = (
    "repro/obs/metrics.py",
    "repro/obs/telemetry.py",
)


class ForkSafetyRule(Rule):
    """Worker-reachable code must not mutate process-global state."""

    rule_id = "RL007"
    name = "fork-safety"
    summary = (
        "functions reachable from worker payloads must not mutate "
        "process-global state (metrics registry, telemetry, module caches)"
    )

    _SCOPE = ("src/",)

    # ------------------------------------------------------------------
    def _roots(self, project: "object") -> List[str]:
        """Qnames of every callable passed as a pool-worker payload."""
        index = project.index  # type: ignore[attr-defined]
        roots: Set[str] = set()
        for qname, info in index.functions.items():
            if info.module.is_test:
                continue
            scope = project.scope(qname)  # type: ignore[attr-defined]
            for node in iter_function_body(info.node):
                if not isinstance(node, ast.Call):
                    continue
                payload = self._payload_expr(node)
                if payload is None:
                    continue
                for origin in scope.origins_of(payload):
                    if origin[0] == "func":
                        roots.add(origin[1])
                    elif origin[0] == "class":
                        init = index.lookup_method(origin[1], "__init__")
                        if init is not None:
                            roots.add(init[1])
        return sorted(roots)

    @staticmethod
    def _payload_expr(node: ast.Call) -> Optional[ast.expr]:
        """The worker-payload expression of a dispatch call, if any.

        Three dispatch shapes: ``pool.map(fn, …)`` and friends (payload is
        the first argument), ``loop.run_in_executor(executor, fn, …)``
        (payload follows the executor), and ``Process(target=fn)`` (payload
        is the ``target=`` keyword — also matches ``ctx.Process``).
        """
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name is None:
            return None
        if name in _POOL_METHODS and node.args:
            return node.args[0]
        if name == "run_in_executor" and len(node.args) >= 2:
            return node.args[1]
        if name in _PROCESS_CTORS:
            for keyword in node.keywords:
                if keyword.arg == "target":
                    return keyword.value
        return None

    # ------------------------------------------------------------------
    def check_graph(self, project: "object") -> Iterable[Finding]:
        index = project.index  # type: ignore[attr-defined]
        graph = project.graph  # type: ignore[attr-defined]
        roots = self._roots(project)
        if not roots:
            return ()
        reached, parents = graph.reachable_with_parents(roots)
        findings: List[Finding] = []
        for qname in sorted(reached):
            info = index.functions.get(qname)
            if info is None:
                continue
            if info.module.is_test or not info.module.path_matches(self._SCOPE):
                continue
            if info.module.path.endswith(_EXEMPT_SUFFIXES):
                continue
            root = graph.chain(parents, qname)[0]
            findings.extend(self._check_function(project, qname, info, root))
        return findings

    def _check_function(
        self, project: "object", qname: str, info, root: str
    ) -> Iterable[Finding]:
        scope = project.scope(qname)  # type: ignore[attr-defined]
        where = f"in worker-reachable '{info.display_name}' (payload root '{_tail(root)}')"
        for node in iter_function_body(info.node):
            if isinstance(node, ast.Global):
                yield self.finding(
                    info.module,
                    node,
                    f"'global {', '.join(node.names)}' {where}: module state "
                    "rebound in a forked worker is lost (or races) in the "
                    "parent",
                    fixit=(
                        "return the value through the worker's reply, or "
                        "waive intentionally worker-local memos with "
                        "'# reprolint: disable=RL007'"
                    ),
                )
            elif isinstance(node, ast.Call):
                finding = self._check_call(scope, info, node, where)
                if finding is not None:
                    yield finding
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, ast.AugAssign)
                    else node.targets
                )
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        global_name = _global_receiver(scope, target.value)
                        if global_name is not None:
                            yield self.finding(
                                info.module,
                                node,
                                f"store into module-level container "
                                f"'{global_name}' {where}",
                                fixit=(
                                    "return it through the worker's reply, "
                                    "or waive with "
                                    "'# reprolint: disable=RL007'"
                                ),
                            )
                            break

    def _check_call(
        self, scope, info, node: ast.Call, where: str
    ) -> Optional[Finding]:
        func = node.func
        func_origins = scope.origins_of(func)
        if any(o == ("func", _GET_METRICS) for o in func_origins):
            return self.finding(
                info.module,
                node,
                f"get_metrics() {where}: the process-global registry is a "
                "fork-inherited copy — worker increments never reach the "
                "parent",
                fixit=(
                    "meter into the worker's own registry (the shard "
                    "worker builds one per child), or waive with "
                    "'# reprolint: disable=RL007'"
                ),
            )
        if isinstance(func, ast.Attribute):
            receiver = scope.origins_of(func.value)
            if func.attr in _METRIC_WRITES and any(
                o in (("result", _GET_METRICS), ("instance", _REGISTRY_CLASS))
                for o in receiver
            ):
                return self.finding(
                    info.module,
                    node,
                    f"metrics registry .{func.attr}() {where}",
                    fixit=(
                        "meter inside the worker's own metrics_session, or "
                        "waive with '# reprolint: disable=RL007'"
                    ),
                )
            if func.attr in _MUTATORS:
                global_name = _global_receiver_from_origins(receiver)
                if global_name is not None:
                    return self.finding(
                        info.module,
                        node,
                        f".{func.attr}() on module-level container "
                        f"'{global_name}' {where}",
                        fixit=(
                            "mutations of fork-inherited caches are lost in "
                            "the parent; return results through the payload, "
                            "or waive with '# reprolint: disable=RL007'"
                        ),
                    )
        return None


def _tail(qname: str) -> str:
    return qname.rpartition(":")[2] or qname


def _global_receiver(scope, expr: ast.expr) -> Optional[str]:
    return _global_receiver_from_origins(scope.origins_of(expr))


def _global_receiver_from_origins(origins) -> Optional[str]:
    for origin in origins:
        if origin[0] == "global_mutable":
            return origin[1]
    return None
