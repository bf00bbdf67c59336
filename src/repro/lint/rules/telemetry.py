"""RL002 — telemetry discipline: spans always close, hot paths stay silent.

The telemetry layer (:mod:`repro.obs.telemetry`) is built on two promises
the code base must keep by convention:

1. **Every span closes.**  ``phase(...)``, ``Telemetry.span(...)``,
   ``telemetry_session(...)``, ``.timed(...)`` and ``.scoped(...)`` are
   context managers whose exit handlers do the recording; calling one
   outside a ``with`` statement opens a span that can never close.
   Passing the call directly to ``ExitStack.enter_context(...)`` is the
   one sanctioned alternative — the stack's ``__exit__`` closes it.
2. **Zero cost when off.**  A ``@hot_loop`` body may not contain *any*
   telemetry call site — not even the cheap ones — unless the call is
   guarded by a branch on the sink variable (``if telemetry is not
   None:``), because an unguarded call is paid on every iteration even
   with telemetry disabled.

The defining module ``repro/obs/telemetry.py`` is exempt (it returns
spans from helper functions by design), as are test modules (fixtures
construct half-open spans on purpose).

A sink left enabled (``enable()`` with no ``disable()``) is not checked
here: the CLI tests assert ``get_telemetry() is None`` after every traced
run, which catches it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import LintModule
from ..findings import Finding
from .base import Rule, is_hot_loop

__all__ = ["TelemetryDisciplineRule"]

#: Module-level context-manager factories that must appear as `with` items.
_WITH_ONLY_NAMES = frozenset({"phase", "telemetry_session"})
#: Method names (on any receiver) that must appear as `with` items.
_WITH_ONLY_ATTRS = frozenset({"span", "timed", "scoped"})
#: The full telemetry emission API, for the hot-loop silence check.
_TELEMETRY_ATTRS = frozenset(
    {"span", "count", "timer", "timed", "scoped", "add_counters", "record",
     "adopt", "profile"}
)
#: Receiver names that identify a telemetry sink by convention.
_SINK_NAMES = frozenset({"telemetry", "tele", "sink"})
#: Files where the protocol is implemented rather than consumed.
_EXEMPT_SUFFIXES = ("repro/obs/telemetry.py",)


def _callee(call: ast.Call):
    """``(name, attr)`` of a call: one of the two is None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id, None
    if isinstance(func, ast.Attribute):
        return None, func.attr
    return None, None


class TelemetryDisciplineRule(Rule):
    """Spans close on all paths; hot loops emit nothing unguarded."""

    rule_id = "RL002"
    name = "telemetry-discipline"
    summary = (
        "telemetry spans must be opened in with-statements; @hot_loop "
        "bodies may only touch telemetry behind an enabled-flag guard"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if module.is_test or module.path.endswith(_EXEMPT_SUFFIXES):
            return
        tree = module.tree
        with_contexts = {
            id(item.context_expr)
            for node in ast.walk(tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        # ExitStack.enter_context(span(...)) closes the span on stack exit.
        with_contexts.update(
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node)[1] == "enter_context"
            for arg in node.args
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in with_contexts:
                name, attr = _callee(node)
                if name in _WITH_ONLY_NAMES or attr in _WITH_ONLY_ATTRS:
                    label = name or f".{attr}"
                    yield self.finding(
                        module,
                        node,
                        f"telemetry span '{label}(...)' opened outside a "
                        "with-statement may never close",
                        fixit="wrap the call in `with ... as span:`",
                    )
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_hot_loop(
                node
            ):
                yield from self._check_hot_function(module, node)

    # ------------------------------------------------------------------
    def _check_hot_function(self, module: LintModule, fn: ast.AST) -> Iterator[Finding]:
        fn_name = getattr(fn, "name", "<hot>")
        found = []

        def visit(node: ast.AST, guards: Set[str]) -> None:
            if isinstance(node, ast.If):
                names = {
                    sub.id for sub in ast.walk(node.test) if isinstance(sub, ast.Name)
                }
                for child in node.body:
                    visit(child, guards | names)
                for child in node.orelse:
                    visit(child, guards)
                return
            if isinstance(node, ast.Call):
                name, attr = _callee(node)
                telemetryish = (
                    name in _WITH_ONLY_NAMES
                    or name == "get_telemetry"
                    or (
                        attr in _TELEMETRY_ATTRS
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in _SINK_NAMES
                    )
                )
                if telemetryish:
                    involved = {
                        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
                    }
                    if not (involved & guards):
                        found.append(
                            self.finding(
                                module,
                                node,
                                f"telemetry call inside @hot_loop '{fn_name}' "
                                "is paid on every iteration even when "
                                "telemetry is off",
                                fixit="hoist it out of the kernel, or guard "
                                "it with `if telemetry is not None:`",
                            )
                        )
            for child in ast.iter_child_nodes(node):
                visit(child, guards)

        for stmt in getattr(fn, "body", []):
            visit(stmt, set())
        yield from found
