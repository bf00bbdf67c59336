"""Backend selection for the table/figure benchmark scripts.

The benchmark suite regenerates the paper's tables with the default (flat
CSR) drivers.  ``pytest benchmarks/ --backend legacy`` re-runs the same
scripts with the reducing-peeling family swapped for the reference
oracles, so the paper artefacts double as a cross-backend differential
harness:

* ``legacy`` — the reference oracles (list-of-lists
  :class:`~repro.core.workspace.ArrayWorkspace`, list-of-dicts
  :class:`~repro.core.dominance.TriangleWorkspace`);
* ``flat``   — the flat CSR buffers (the default).

Only the three algorithms with multi-backend drivers are swapped; BDTwo
(whose fold workspace has no alternative backend) always runs its own
driver, and scripts that need it fetch it directly.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.bdone import bdone
from ..core.dominance import TriangleWorkspace
from ..core.linear_time import linear_time
from ..core.near_linear import near_linear
from ..core.result import MISResult
from ..core.workspace import ArrayWorkspace
from ..graphs.static_graph import Graph

__all__ = ["BACKENDS", "resolve_backend"]

Solver = Callable[[Graph], MISResult]


def _bdone_legacy(graph: Graph) -> MISResult:
    return bdone(graph, workspace_factory=ArrayWorkspace)


def _linear_time_legacy(graph: Graph) -> MISResult:
    return linear_time(graph, workspace_factory=ArrayWorkspace)


def _near_linear_legacy(graph: Graph) -> MISResult:
    return near_linear(graph, workspace_factory=TriangleWorkspace)


BACKENDS: Dict[str, Dict[str, Solver]] = {
    "legacy": {
        "bdone": _bdone_legacy,
        "linear_time": _linear_time_legacy,
        "near_linear": _near_linear_legacy,
    },
    "flat": {
        "bdone": bdone,
        "linear_time": linear_time,
        "near_linear": near_linear,
    },
}


def resolve_backend(name: str) -> Dict[str, Solver]:
    """The solver family for ``name`` (see :data:`BACKENDS` for choices).

    Unknown names raise :class:`ValueError` listing the valid choices —
    scripts surface it directly, so the message is the help text.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
