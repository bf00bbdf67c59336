"""The Reducing-Peeling framework (paper Algorithm 1) and its registry.

Algorithm 1 iterates two moves until the graph has no edges:

* **Reducing** — apply an exact reduction rule from the rule set ℛ;
* **Peeling** — if no rule applies, temporarily remove the highest-degree
  vertex (the inexact reduction, Definition 3.1).

Degree-zero vertices form the independent set, deferred decisions are
replayed, and the set is extended to a maximal one; peeled vertices that
re-enter during extension stop counting against the Theorem-6.1 bound.

The four paper instantiations are registered here under their paper names;
:func:`compute_independent_set` is the single entry point used by the
benchmark harness and the examples.  :data:`ALGORITHM_BY_NAME` is the
serving layer's registry, keyed by the names that service configs and
snapshots store.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import ReproError
from ..graphs.static_graph import Graph
from .bdone import bdone
from .bdtwo import bdtwo
from .linear_time import linear_time
from .near_linear import near_linear
from .result import MISResult

__all__ = ["ALGORITHMS", "ALGORITHM_BY_NAME", "compute_independent_set"]

#: The paper's four reducing-peeling algorithms (Table 1), by name.
ALGORITHMS: Dict[str, Callable[[Graph], MISResult]] = {
    "BDOne": bdone,
    "BDTwo": bdtwo,
    "LinearTime": linear_time,
    "NearLinear": near_linear,
}

#: The solvers :class:`~repro.serve.service.SolverService` can run, by the
#: name its config and snapshots store; :func:`repro.serve.repair.cold_solve`
#: resolves them.  Keep the spellings: saved snapshots hold them.
ALGORITHM_BY_NAME: Dict[str, Callable[..., MISResult]] = {
    "bdone": bdone,
    "linear_time": linear_time,
    "near_linear": near_linear,
}


def compute_independent_set(graph: Graph, algorithm: str = "NearLinear") -> MISResult:
    """Run one of the reducing-peeling algorithms by name.

    ``algorithm`` is one of ``"BDOne"``, ``"BDTwo"``, ``"LinearTime"``,
    ``"NearLinear"`` (case-insensitive).  Raises
    :class:`~repro.errors.ReproError` for unknown names.
    """
    key = algorithm.strip().lower()
    for name, fn in ALGORITHMS.items():
        if name.lower() == key:
            return fn(graph)
    raise ReproError(
        f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
    )
