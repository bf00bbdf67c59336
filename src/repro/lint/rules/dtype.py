"""RL005 — flat-buffer dtype discipline for numpy constructions.

The flat CSR workspaces and the perf harness interoperate on raw numpy
buffers; a construction that lets numpy *infer* a dtype (platform
``long`` on one machine, ``int32`` on another, ``float64`` from an
innocent literal) produces byte-different buffers and silent casts in
the differential logs.  RL005 therefore requires every numpy array
construction in ``src/`` to pin ``dtype=`` explicitly.

The rule resolves numpy aliases from the module's own imports (``import
numpy``, ``import numpy as _np``, ``from numpy import zeros``) — at any
nesting level, so a function-local import is resolved too, as is a
rebinding such as ``np = _np`` — and flags calls to the constructing
functions (``zeros``, ``empty``, ``ones``, ``full``, ``arange``,
``array``, ``asarray``, ``fromiter``, ``frombuffer``) whose keywords
lack ``dtype``.  The ``*_like`` constructors inherit their dtype from
the template array and are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import LintModule
from ..findings import Finding
from .base import Rule

__all__ = ["DtypeDisciplineRule"]

_CONSTRUCTORS = frozenset(
    {"zeros", "empty", "ones", "full", "arange", "array", "asarray",
     "fromiter", "frombuffer"}
)


def _numpy_aliases(module: LintModule) -> Set[str]:
    """Local names bound to the numpy module (``numpy``, ``np``, ``_np`` …).

    A plain rebinding of an alias (the function-local ``np = _np``) binds
    its target too; ``ast.walk`` reaches an import before any rebinding
    nested deeper or later in the same body.
    """
    aliases: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            aliases.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "numpy"
            )
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            aliases.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return aliases


def _numpy_direct_imports(module: LintModule) -> Set[str]:
    """Constructor names imported via ``from numpy import zeros`` forms."""
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name in _CONSTRUCTORS
            )
    return names


class DtypeDisciplineRule(Rule):
    """numpy constructions in src/ must pin an explicit dtype."""

    rule_id = "RL005"
    name = "flat-buffer-dtype"
    summary = (
        "numpy array constructions (zeros/empty/arange/asarray/...) must "
        "pass an explicit dtype= so flat buffers are byte-stable"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if module.is_test or not module.path_matches(("src/",)):
            return
        aliases = _numpy_aliases(module)
        direct = _numpy_direct_imports(module)
        if not aliases and not direct:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_numpy_ctor = (
                isinstance(func, ast.Attribute)
                and func.attr in _CONSTRUCTORS
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ) or (isinstance(func, ast.Name) and func.id in direct)
            if not is_numpy_ctor:
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            label = ast.unparse(func)
            yield self.finding(
                module,
                node,
                f"numpy construction '{label}(...)' without an explicit "
                "dtype= lets the element type vary by platform/input",
                fixit="pin dtype= (the flat CSR convention is int32 slots / "
                "int64 offsets)",
            )
