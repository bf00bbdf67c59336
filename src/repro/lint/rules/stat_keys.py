"""RL003 — stat-key registry discipline.

The differential suite asserts that legacy and flat backends of the same
algorithm produce *equal* stats dicts, so the counter names must have one
canonical spelling.  That spelling lives in the registry in
:mod:`repro.core.result` (``STAT_*`` constants, unioned in
``ALL_STAT_KEYS``).  RL003 statically checks every stat-key *write site*
in ``src/`` against the registry:

* ``log.bump("degree-one")`` — the first argument of any ``bump(...)``
  call;
* ``stats["rounds"] = ...`` / ``+=`` — subscript stores into a mapping
  named ``stats`` or ``rule_counts``;
* ``stats = {"kernel_size": ...}`` and ``MISResult(..., stats={...})`` —
  literal dict displays bound or passed as ``stats``.

A literal key missing from the registry is an **error** (register a
``STAT_*`` constant and use it).  A key that is a ``STAT_*`` name is
proven-good.  Any other dynamic expression (``bump(rule)`` forwarding a
rule tag) cannot be resolved statically and is reported as **advice**:
visible under ``--strict``, non-blocking otherwise.

Metric names are not checked here: ``MetricsRegistry`` raises
``KeyError`` at run time for any name outside
``repro.obs.metrics.METRIC_KEYS``, and the serving tests drive every
metric write site.

The registry module itself and :mod:`repro.core.trace` (which implements
``bump``) are exempt, as are test modules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.core.result import ALL_STAT_KEYS

from ..engine import LintModule
from ..findings import ADVICE, Finding
from .base import Rule

__all__ = ["StatKeyRegistryRule"]

#: Mapping names whose subscript stores are treated as stat-key writes.
_STAT_MAPPING_NAMES = frozenset({"stats", "rule_counts"})
#: Files that define rather than consume the registry protocol.
_EXEMPT_SUFFIXES = (
    "repro/core/result.py",
    "repro/core/trace.py",
)


class StatKeyRegistryRule(Rule):
    """Every statically-visible stat key must come from the registry."""

    rule_id = "RL003"
    name = "stat-key-registry"
    summary = (
        "stat keys written via bump()/stats[...]/stats={...} must be "
        "registered STAT_* constants (dynamic keys are advice)"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if module.is_test or module.path.endswith(_EXEMPT_SUFFIXES):
            return
        if not module.path_matches(("src/",)):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_store(module, node)

    # ------------------------------------------------------------------
    def _check_call(self, module: LintModule, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        callee = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if callee == "bump" and call.args:
            yield from self._check_key(module, call.args[0], "bump()")
        for keyword in call.keywords:
            if keyword.arg == "stats" and isinstance(keyword.value, ast.Dict):
                for key in keyword.value.keys:
                    if key is not None:
                        yield from self._check_key(module, key, "stats={...}")

    def _check_store(self, module: LintModule, node: ast.AST) -> Iterator[Finding]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in _STAT_MAPPING_NAMES
            ):
                yield from self._check_key(
                    module, target.slice, f"{target.value.id}[...]"
                )
            elif isinstance(target, ast.Name) and target.id in _STAT_MAPPING_NAMES:
                value = getattr(node, "value", None)
                if isinstance(value, ast.Dict):
                    for key in value.keys:
                        if key is not None:
                            yield from self._check_key(
                                module, key, f"{target.id} = {{...}}"
                            )

    def _check_key(
        self, module: LintModule, key: ast.AST, context: str
    ) -> Iterator[Finding]:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            if key.value not in ALL_STAT_KEYS:
                yield self.finding(
                    module,
                    key,
                    f"stat key '{key.value}' written via {context} is not in "
                    "the registry (repro.core.result.ALL_STAT_KEYS)",
                    fixit="register a STAT_* constant in repro/core/result.py "
                    "and write the constant here",
                )
        elif isinstance(key, ast.Name):
            if not key.id.startswith("STAT_"):
                yield self.finding(
                    module,
                    key,
                    f"stat key '{key.id}' written via {context} cannot be "
                    "resolved statically; use a STAT_* registry constant "
                    "where possible",
                    severity=ADVICE,
                )
        elif not isinstance(key, ast.Starred):
            rendered: Optional[str]
            try:
                rendered = ast.unparse(key)
            except Exception:
                rendered = None
            yield self.finding(
                module,
                key,
                f"dynamic stat key {rendered or '<expr>'!s} written via "
                f"{context} cannot be checked against the registry",
                severity=ADVICE,
            )
