"""The reprolint rule registry.

One module per rule, mirroring the one-contract-per-module layout of the
rest of the code base:

========  ===========================  ========================================
Rule      Name                         Contract
========  ===========================  ========================================
RL001     hot-loop-purity              ``@hot_loop`` kernels stay allocation-free
RL002     telemetry-discipline         spans close; hot loops stay silent
RL003     stat-key-registry            stat keys come from ``repro.core.result``
RL004     oracle-hook-parity           hook-exposing modules have differential tests
RL005     flat-buffer-dtype            numpy constructions pin ``dtype=``
RL006     transitive-hot-loop          @hot_loop closure stays @hot_loop
RL007     fork-safety                  worker payloads leave global state alone
RL008     request-context-propagation  serve verbs thread RequestContext/timeout
========  ===========================  ========================================

RL001–RL005 are per-file (``check_module``/``check_project``);
RL006–RL008 are cross-module (``check_graph``) and run over the project
call graph built by :mod:`repro.lint.graph`.  RL009 is retired and is
not reused: the ablation in ``docs/static-analysis.md`` found that the
differential and pinned-digest tests catch every defect it targeted.

To add a rule: write ``rules/<name>.py`` subclassing
:class:`~repro.lint.rules.base.Rule`, give it a fresh ``RLxxx`` id, and
append the class to :data:`ALL_RULES` here.  The engine, CLI, and
suppression machinery pick it up with no further wiring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from .base import Rule, decorator_names, is_hot_loop
from .context_flow import RequestContextRule
from .dtype import DtypeDisciplineRule
from .fork_safety import ForkSafetyRule
from .hot_loop import HotLoopPurityRule
from .oracle_parity import OracleHookParityRule
from .stat_keys import StatKeyRegistryRule
from .telemetry import TelemetryDisciplineRule
from .transitive_hot import TransitiveHotLoopRule

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "DtypeDisciplineRule",
    "ForkSafetyRule",
    "HotLoopPurityRule",
    "OracleHookParityRule",
    "RequestContextRule",
    "StatKeyRegistryRule",
    "TelemetryDisciplineRule",
    "TransitiveHotLoopRule",
    "decorator_names",
    "default_rules",
    "is_hot_loop",
]

#: Every registered rule class, in rule-id order.
ALL_RULES: Sequence[Type[Rule]] = (
    HotLoopPurityRule,
    TelemetryDisciplineRule,
    StatKeyRegistryRule,
    OracleHookParityRule,
    DtypeDisciplineRule,
    TransitiveHotLoopRule,
    ForkSafetyRule,
    RequestContextRule,
)

#: Rule classes keyed by their ``RLxxx`` identifier.
RULES_BY_ID: Dict[str, Type[Rule]] = {cls.rule_id: cls for cls in ALL_RULES}


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered rules (optionally a subset by id)."""
    if only is None:
        return [cls() for cls in ALL_RULES]
    unknown = [rule_id for rule_id in only if rule_id not in RULES_BY_ID]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [RULES_BY_ID[rule_id]() for rule_id in only]
