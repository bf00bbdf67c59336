"""RL006 — transitive hot-loop purity.

RL001 audits the body of every ``@hot_loop`` function, but it sees one
file at a time: extract a helper out of a kernel (or call across
module lines) and the helper's body silently
escapes the allocation-free contract.  RL006 closes the loophole with
the call graph: **every project function reachable from a** ``@hot_loop``
**kernel must itself be** ``@hot_loop`` — which re-arms RL001 on its body
— or carry an explicit waiver.

Vetted numpy intrinsics and other external callees are exempt by
construction (they are not project functions, so they never enter the
closure).  Functions a kernel only calls through truly dynamic dispatch
the resolver cannot see are likewise not flagged — the graph
under-approximates.  The remediations for a genuine finding:

* mark the helper ``@hot_loop`` (preferred — RL001 then audits it), or
* waive the def line with ``# reprolint: disable=RL006`` when the call
  is intentionally outside the hot path (e.g. a cold error branch).
"""

from __future__ import annotations

from typing import Iterable, List

from ..findings import Finding
from .base import Rule, is_hot_loop

__all__ = ["TransitiveHotLoopRule"]


def _short(qname: str) -> str:
    """``repro.core.workspace:push_entries`` → ``workspace.push_entries``."""
    module, _, qual = qname.rpartition(":")
    tail = module.rsplit(".", 1)[-1] if module else module
    return f"{tail}.{qual}" if tail else qual


class TransitiveHotLoopRule(Rule):
    """Everything reachable from a ``@hot_loop`` kernel is ``@hot_loop``."""

    rule_id = "RL006"
    name = "transitive-hot-loop"
    summary = (
        "functions reachable from @hot_loop kernels must be @hot_loop "
        "(or explicitly waived)"
    )

    _SCOPE = ("src/",)

    def check_graph(self, project: "object") -> Iterable[Finding]:
        index = project.index  # type: ignore[attr-defined]
        graph = project.graph  # type: ignore[attr-defined]
        roots: List[str] = sorted(
            qname
            for qname, info in index.functions.items()
            if not info.module.is_test
            and info.module.path_matches(self._SCOPE)
            and is_hot_loop(info.node)
        )
        root_set = set(roots)
        reached, parents = graph.reachable_with_parents(roots)
        findings: List[Finding] = []
        for qname in sorted(reached - root_set):
            info = index.functions.get(qname)
            if info is None:
                continue
            if info.module.is_test or not info.module.path_matches(self._SCOPE):
                continue
            if is_hot_loop(info.node):
                continue
            chain = graph.chain(parents, qname)
            via = " -> ".join(_short(q) for q in chain)
            findings.append(
                self.finding(
                    info.module,
                    info.node,
                    f"'{info.display_name}' is reachable from @hot_loop "
                    f"kernel '{_short(chain[0])}' ({via}) but is not itself "
                    "@hot_loop",
                    fixit=(
                        "mark it @hot_loop so RL001 audits its body, or waive "
                        "the def line with '# reprolint: disable=RL006' if the "
                        "call is intentionally off the hot path"
                    ),
                )
            )
        return findings
