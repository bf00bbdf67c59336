"""The rule protocol shared by every reprolint rule.

A rule is a small stateless object with a class-level identity
(``rule_id``, ``name``, ``summary``) and two check entry points:

* :meth:`Rule.check_module` — per-file analysis; receives one
  :class:`~repro.lint.engine.LintModule` and yields findings.
* :meth:`Rule.check_project` — whole-run analysis for rules that need to
  cross-reference files (RL004 walks the test ASTs to certify the source
  modules); receives every module of the run.
* :meth:`Rule.check_graph` — call-graph analysis for the cross-module
  rules (RL006–RL008); receives a :class:`~repro.lint.graph.Project`
  exposing the function index, dataflow scopes and call graph.  The
  engine only builds the project view when at least one active rule
  overrides this hook.

Rules yield :class:`~repro.lint.findings.Finding` records; the engine
owns suppression filtering and ordering.  New rules register themselves
by joining ``ALL_RULES`` in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Sequence

from ..engine import LintModule
from ..findings import ERROR, Finding

__all__ = ["Rule", "decorator_names", "is_hot_loop"]


def decorator_names(fn: ast.AST) -> Iterator[str]:
    """The terminal names of a function's decorators (``a.b`` yields ``b``)."""
    for decorator in getattr(fn, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Attribute):
            yield target.attr


def is_hot_loop(fn: ast.AST) -> bool:
    """Whether a function definition carries the ``@hot_loop`` marker."""
    return "hot_loop" in decorator_names(fn)


class Rule:
    """Base class: identity plus the two check hooks (both default empty)."""

    #: The ``RLxxx`` identifier (class-level, unique across the registry).
    rule_id = "RL000"
    #: Short kebab-case name used in ``--list-rules`` output.
    name = "base"
    #: One-line description of the enforced contract.
    summary = ""

    def check_module(self, module: LintModule) -> Iterable[Finding]:
        """Per-file analysis; yields findings for ``module``."""
        return ()

    def check_project(self, modules: Sequence[LintModule]) -> Iterable[Finding]:
        """Whole-run analysis over every module (cross-file rules only)."""
        return ()

    def check_graph(self, project: "object") -> Iterable[Finding]:
        """Call-graph analysis over a :class:`~repro.lint.graph.Project`.

        Only the cross-module rules override this; the engine skips
        project-graph construction entirely when no active rule does.
        """
        return ()

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def finding(
        self,
        module: LintModule,
        node: ast.AST,
        message: str,
        severity: str = ERROR,
        fixit: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at ``node``'s position in ``module``."""
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity,
            fixit=fixit,
        )
