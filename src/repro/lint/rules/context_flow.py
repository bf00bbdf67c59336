"""RL008 — request-context propagation in the serving layer.

PR 8 threaded :class:`~repro.serve.context.RequestContext` through every
``SolverService`` verb so request ids and tenants reach the spans and
the metrics attribution.  The contract
only holds if *every* hop forwards the context — and a per-file linter
cannot see that ``handle_request`` builds a context which ``solve`` must
hand to ``_request_scope``.  RL008 checks three cross-procedure
properties, scoped to ``repro/serve/`` on **both** ends of each edge
(``serve/context.py``, the provider, is exempt):

* **Verb surface** — a public method (sync or ``async def``) of a
  ``*Service``, ``*Frontend`` or ``*Router`` class that calls any
  context-accepting serve function must itself accept a
  ``context``/``ctx`` parameter; otherwise callers have no way to thread
  the request through that verb.  The front-end/router suffixes keep the
  sharded serving path (PR 10) under the same contract as the inline
  service verbs.
* **No drops** — a function that *binds* a request context (parameter,
  or a local built via ``RequestContext(...)``/``RequestContext.create``)
  must pass it to every context-accepting serve callee it invokes.
* **Timeout forwarding** — a function that binds a ``timeout`` must
  forward it to every timeout-accepting serve callee, so the request's
  budget reaches the stale-return degradation path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from ..dataflow import iter_function_body
from ..findings import Finding
from .base import Rule

__all__ = ["RequestContextRule"]

_CTX_NAMES = ("context", "ctx")
_CONTEXT_CLASS_TAIL = ":RequestContext"

#: Class-name suffixes whose public methods are request-serving verbs.
_VERB_CLASS_SUFFIXES = ("Service", "Frontend", "Router")

#: Dunder / lifecycle methods that are not service verbs.
_NON_VERBS = frozenset(
    {"__init__", "__enter__", "__exit__", "__aenter__", "__aexit__", "__repr__"}
)


def _tail(qname: str) -> str:
    return qname.rpartition(":")[2] or qname


def _passes(call: ast.Call, names: Iterable[str]) -> bool:
    """Whether the call forwards one of ``names`` (kw or same-named arg)."""
    wanted = set(names)
    for keyword in call.keywords:
        if keyword.arg in wanted or keyword.arg is None:  # **kwargs forwards
            return True
        value = keyword.value
        if isinstance(value, ast.Name) and value.id in wanted:
            return True
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id in wanted:
            return True
        if isinstance(arg, ast.Attribute) and arg.attr in wanted:
            return True
    return False


def _binds_request_context(scope) -> bool:
    """Whether the function builds a RequestContext locally."""
    for values in scope.assigns.values():
        for value in values:
            for origin in scope.origins_of(value):
                if origin[0] in ("instance", "result") and (
                    origin[1].endswith(_CONTEXT_CLASS_TAIL)
                    or _CONTEXT_CLASS_TAIL + "." in origin[1]
                ):
                    return True
    return False


class RequestContextRule(Rule):
    """Serve verbs and handlers must accept and forward RequestContext."""

    rule_id = "RL008"
    name = "request-context-propagation"
    summary = (
        "serve verbs/handlers must accept RequestContext and forward it "
        "(and timeout) to every context-accepting callee"
    )

    _SCOPE = ("repro/serve/",)
    _PROVIDER_SUFFIX = ("repro/serve/context.py",)

    # ------------------------------------------------------------------
    def check_graph(self, project: "object") -> Iterable[Finding]:
        index = project.index  # type: ignore[attr-defined]
        in_scope: Dict[str, object] = {}
        ctx_accepting: Set[str] = set()
        timeout_accepting: Set[str] = set()
        for qname, info in index.functions.items():
            if (
                info.module.is_test
                or not info.module.path_matches(self._SCOPE)
                or info.module.path.endswith(self._PROVIDER_SUFFIX)
            ):
                continue
            in_scope[qname] = info
            if any(name in info.params for name in _CTX_NAMES):
                ctx_accepting.add(qname)
            if "timeout" in info.params:
                timeout_accepting.add(qname)

        findings: List[Finding] = []
        for qname in sorted(in_scope):
            info = in_scope[qname]
            scope = project.scope(qname)  # type: ignore[attr-defined]
            has_ctx_param = any(name in info.params for name in _CTX_NAMES)
            binds_ctx = has_ctx_param or _binds_request_context(scope)
            binds_timeout = "timeout" in info.params or "timeout" in scope.assigns
            is_verb = (
                info.class_name is not None
                and info.class_name.endswith(_VERB_CLASS_SUFFIXES)
                and not info.name.startswith("_")
                and info.name not in _NON_VERBS
            )
            calls_ctx_accepting = False
            for node in iter_function_body(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callees = {
                    origin[1]
                    for origin in scope.origins_of(node.func)
                    if origin[0] == "func"
                }
                ctx_callees = (callees & ctx_accepting) - {qname}
                if ctx_callees:
                    calls_ctx_accepting = True
                    if binds_ctx and not _passes(node, _CTX_NAMES):
                        findings.append(
                            self.finding(
                                info.module,
                                node,
                                f"'{info.display_name}' holds a RequestContext "
                                f"but calls '{_tail(sorted(ctx_callees)[0])}' "
                                "without forwarding it — the request id/tenant "
                                "are dropped on this hop",
                                fixit="pass context=context through the call",
                            )
                        )
                timeout_callees = (callees & timeout_accepting) - {qname}
                if (
                    timeout_callees
                    and binds_timeout
                    and not _passes(node, ("timeout",))
                ):
                    findings.append(
                        self.finding(
                            info.module,
                            node,
                            f"'{info.display_name}' holds a timeout but calls "
                            f"'{_tail(sorted(timeout_callees)[0])}' without "
                            "forwarding it — the request's time budget is "
                            "lost on this hop",
                            fixit="pass timeout=timeout through the call",
                        )
                    )
            if is_verb and calls_ctx_accepting and not has_ctx_param:
                findings.append(
                    self.finding(
                        info.module,
                        info.node,
                        f"public service verb '{info.display_name}' reaches "
                        "context-accepting serve code but takes no "
                        "'context' parameter — callers cannot thread the "
                        "request through this verb",
                        fixit=(
                            "add 'context: Optional[RequestContext] = None' "
                            "and forward it"
                        ),
                    )
                )
        return findings
