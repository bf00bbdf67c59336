"""Localized solution repair after graph mutations.

A mutation batch dirties a handful of vertices; re-running the whole
reducing-peeling pipeline for that is the cold-solve cost the serving layer
exists to avoid.  Repair instead revisits only the **affected region** —
the dirty seeds plus a configurable hop radius
(:func:`repro.core.components.affected_region`) — and keeps every decision
outside it:

1. the previous solution is restricted to the region's complement, which
   stays independent because no edge outside the region changed;
2. region vertices adjacent to a kept outside-solution vertex are
   *blocked* (choosing them would conflict with a kept decision);
3. the induced subgraph on the remaining *free* region is re-solved from
   scratch — degree-one, degree-two-path and (for NearLinear) dominance
   rules re-run on exactly the affected neighbourhood — one connected
   component at a time, inline;
4. the merged assignment is extended to a maximal independent set of the
   full snapshot (:func:`~repro.core.trace.extend_to_maximal`), which also
   lets blocked-but-actually-free vertices re-enter.

The result is always independent and maximal on the current graph; its
size tracks a cold solve because steps 1–3 reproduce exactly what a cold
per-component solve would decide inside the region, and the O(n + m)
extension pass is the only global work.

:func:`patch_solution` is the graceful-degradation fallback: drop
conflicts, extend to maximal — last-known-good quality, guaranteed
feasibility, microseconds of work.  The service returns it with a
staleness flag when a repair exceeds its time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.components import affected_region
from ..core.framework import ALGORITHM_BY_NAME
from ..core.result import MISResult
from ..core.trace import extend_to_maximal
from ..graphs.properties import connected_components
from ..graphs.static_graph import Graph
from ..obs.telemetry import get_telemetry

__all__ = [
    "RepairOutcome",
    "cold_solve",
    "patch_solution",
    "repair_solution",
]


def cold_solve(
    graph: Graph,
    algorithm: Union[str, Callable[[Graph], MISResult]],
    workspace_factory: Optional[Callable[..., object]] = None,
) -> MISResult:
    """Solve ``graph`` from scratch with the service's configured algorithm.

    ``algorithm`` is an :data:`~repro.core.framework.ALGORITHM_BY_NAME`
    registry name (``"bdone"`` / ``"linear_time"`` / ``"near_linear"``) or
    a callable.  ``workspace_factory`` is forwarded to the driver's oracle
    hook — the differential suite runs the service's solve path under both
    the flat and the legacy backend and asserts identical answers.
    """
    if isinstance(algorithm, str):
        try:
            solver = ALGORITHM_BY_NAME[algorithm]
        except KeyError:
            raise ValueError(
                f"unknown algorithm name {algorithm!r}; "
                f"registered: {sorted(ALGORITHM_BY_NAME)}"
            ) from None
    else:
        solver = algorithm
    if workspace_factory is None:
        return solver(graph)
    return solver(graph, workspace_factory=workspace_factory)


def patch_solution(graph: Graph, in_set: List[bool]) -> List[bool]:
    """Make an assignment feasible: drop conflicts, extend to maximal.

    Conflicts are resolved in id order (the higher endpoint of a violated
    edge leaves), matching the determinism contract of the rest of the
    library.  The input list is not modified.
    """
    patched = list(in_set)
    offsets, targets = graph.flat_csr()
    for v in range(graph.n):
        if not patched[v]:
            continue
        for i in range(offsets[v], offsets[v + 1]):
            w = targets[i]
            if w < v and patched[w]:
                patched[v] = False
                break
    extend_to_maximal(patched, graph)
    return patched


@dataclass(frozen=True)
class RepairOutcome:
    """A repaired assignment plus the scope accounting telemetry wants."""

    in_set: List[bool]
    region_size: int
    free_size: int
    blocked_size: int
    components: int
    solver_elapsed: float

    @property
    def size(self) -> int:
        """Cardinality of the repaired independent set."""
        return sum(self.in_set)

    def scope(self) -> Dict[str, int]:
        """The repair-scope counters as a JSON-friendly dict."""
        return {
            "region": self.region_size,
            "free": self.free_size,
            "blocked": self.blocked_size,
            "components": self.components,
        }


def repair_solution(
    graph: Graph,
    in_set: Sequence[bool],
    seeds: Sequence[int],
    algorithm: Union[str, Callable[[Graph], MISResult]],
    radius: int = 2,
) -> RepairOutcome:
    """Repair ``in_set`` around the dirty ``seeds`` on the current snapshot.

    ``in_set`` is the previous solution mapped into the snapshot's compact
    id space (dead vertices already dropped); ``seeds`` are the mutated
    vertices in the same space.  Returns a new assignment that is
    independent and maximal on ``graph``.
    """
    start = time.perf_counter()
    region = affected_region(graph, seeds, radius=radius)
    in_region = bytearray(graph.n)
    for v in region:
        in_region[v] = 1
    # Region vertices adjacent to a *kept* outside-solution vertex cannot
    # be chosen; everything else in the region is re-decided from scratch.
    blocked: List[int] = []
    free: List[int] = []
    for v in region:
        conflicted = False
        for w in graph.neighbors(v):
            if not in_region[w] and in_set[w]:
                conflicted = True
                break
        (blocked if conflicted else free).append(v)
    repaired = list(in_set)
    for v in region:
        repaired[v] = False
    components = 0
    if free:
        subgraph, old_ids = graph.subgraph(free)
        parts = connected_components(subgraph)
        components = len(parts)
        telemetry = get_telemetry()
        for index, part in enumerate(parts):
            piece, piece_ids = subgraph.subgraph(part)
            # Stamped so the trace report attributes each piece's spans.
            if telemetry is None:
                chosen = cold_solve(piece, algorithm).independent_set
            else:
                with telemetry.scoped(component=index):
                    chosen = cold_solve(piece, algorithm).independent_set
            for v in chosen:
                repaired[old_ids[piece_ids[v]]] = True
    extend_to_maximal(repaired, graph)
    return RepairOutcome(
        in_set=repaired,
        region_size=len(region),
        free_size=len(free),
        blocked_size=len(blocked),
        components=components,
        solver_elapsed=time.perf_counter() - start,
    )
