"""RL001 — hot-loop purity for ``@hot_loop``-decorated kernels.

The flat kernels get their speed from a strict shape: a *prelude* that
binds every needed attribute/bound-method to a local, then loops whose
bodies touch only locals and flat buffers.  RL001 enforces that shape on
any function carrying the :func:`repro.hotpath.hot_loop` marker:

* **anywhere in the function** — no nested functions or lambdas (closure
  cells defeat CPython's fast locals), no ``try``/``except`` (pushes a
  block per entry), no comprehensions or generator expressions (each is
  an allocation plus, for generators, a frame);
* **inside loop bodies** (including ``while`` conditions, which re-run
  per iteration) — no dict/set/list literals, no calls to the allocating
  builtins ``dict``/``set``/``list``/``frozenset``/``sorted``, and no
  chained attribute lookups (``a.b.c``): bind them in the prelude.

Single attribute lookups (``self.adj``, ``workspace._nlive``) stay legal
inside loops — forbidding them would outlaw the cheap bookkeeping stores
the kernels genuinely need — but a *chain* is always two dict probes per
iteration and is what the prelude exists to hoist.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Tuple

from ..engine import LintModule
from ..findings import Finding
from .base import Rule, is_hot_loop

__all__ = ["HotLoopPurityRule"]

_ALLOCATING_BUILTINS = frozenset({"dict", "set", "list", "frozenset", "sorted"})
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class HotLoopPurityRule(Rule):
    """Forbid allocations, closures and attribute chains in hot loops."""

    rule_id = "RL001"
    name = "hot-loop-purity"
    summary = (
        "@hot_loop functions must not allocate containers, build closures, "
        "enter try/except, or chase attribute chains inside loop bodies"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, _FUNCTION_DEFS) and is_hot_loop(node):
                yield from self._check_function(module, node)

    # ------------------------------------------------------------------
    def _check_function(self, module: LintModule, fn: ast.AST) -> Iterator[Finding]:
        reported: Dict[Tuple[int, int, str], Finding] = {}

        def report(node: ast.AST, kind: str, message: str, fixit: str) -> None:
            key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0), kind)
            if key not in reported:
                reported[key] = self.finding(module, node, message, fixit=fixit)

        fn_name = getattr(fn, "name", "<hot>")
        # --- function-wide bans ---------------------------------------
        for node in ast.walk(fn):  # type: ignore[arg-type]
            if node is fn:
                continue
            if isinstance(node, _FUNCTION_DEFS + (ast.Lambda,)):
                report(
                    node,
                    "closure",
                    f"closure inside @hot_loop function '{fn_name}'",
                    "hoist the helper to module level and bind it in the prelude",
                )
            elif isinstance(node, ast.Try):
                report(
                    node,
                    "try",
                    f"try/except inside @hot_loop function '{fn_name}'",
                    "validate inputs before the loop; hot paths must not "
                    "pay for exception blocks",
                )
            elif isinstance(node, _COMPREHENSIONS):
                report(
                    node,
                    "comprehension",
                    f"comprehension inside @hot_loop function '{fn_name}' "
                    "allocates per evaluation",
                    "replace with an explicit loop over a reused buffer",
                )
        # --- loop-body bans -------------------------------------------
        for loop in ast.walk(fn):  # type: ignore[arg-type]
            if isinstance(loop, ast.While):
                region: List[ast.AST] = [loop.test, *loop.body, *loop.orelse]
            elif isinstance(loop, ast.For):
                region = [*loop.body, *loop.orelse]
            else:
                continue
            self._check_loop_region(module, fn_name, region, report)
        yield from sorted(reported.values(), key=Finding.sort_key)

    def _check_loop_region(
        self,
        module: LintModule,
        fn_name: str,
        region: Sequence[ast.AST],
        report,
    ) -> None:
        nodes: List[ast.AST] = []
        for stmt in region:
            nodes.extend(ast.walk(stmt))
        for node in nodes:
            if isinstance(node, ast.Dict):
                report(
                    node,
                    "alloc",
                    f"dict literal inside a loop of @hot_loop '{fn_name}'",
                    "allocate once in the prelude and reuse",
                )
            elif isinstance(node, ast.Set):
                report(
                    node,
                    "alloc",
                    f"set literal inside a loop of @hot_loop '{fn_name}'",
                    "use the timestamped mark-array idiom instead of per-step sets",
                )
            elif isinstance(node, ast.List) and isinstance(node.ctx, ast.Load):
                report(
                    node,
                    "alloc",
                    f"list literal inside a loop of @hot_loop '{fn_name}'",
                    "hoist the list to the prelude and .clear() it per iteration",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ALLOCATING_BUILTINS
            ):
                report(
                    node,
                    "alloc-call",
                    f"allocating builtin '{node.func.id}()' inside a loop of "
                    f"@hot_loop '{fn_name}'",
                    "allocate outside the loop or restructure to flat buffers",
                )
        # Chained attribute lookups: flag only the outermost link of each
        # chain so `a.b.c.d` yields one finding, not two.
        chains = [
            node
            for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        ]
        inner = {id(node.value) for node in chains}
        for node in chains:
            if id(node) not in inner:
                report(
                    node,
                    "chain",
                    f"chained attribute lookup '{ast.unparse(node)}' inside a "
                    f"loop of @hot_loop '{fn_name}'",
                    "bind the chain to a local in the prelude",
                )
