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
4. the merged assignment is extended to a maximal independent set, which
   also lets blocked-but-actually-free vertices re-enter.

The result is always independent and maximal on the current graph; its
size tracks a cold solve because steps 1–3 reproduce exactly what a cold
per-component solve would decide inside the region.

Cost model: a repair costs its region, not the graph.  Every step is a
whole-array pass over the rows it needs, read from the snapshot's
:meth:`~repro.graphs.static_graph.Graph.flat_csr` buffers: one frontier
gather per hop for the region, one count over the region's rows for the
blocked/free split, :meth:`Graph._induced` for the free subgraph and its
pieces, and label propagation for the components.  The extension visits
only the region and its neighbours: outside them no flag and no row
changed, and the previous solution was maximal there, so it still is.
The answer then equals a greedy id-order extension of the whole graph
(:func:`~repro.core.trace.extend_to_maximal`).  That needs the previous
solution to be independent outside the seeds and maximal outside their
closed neighbourhood, which every answer the service stores is.  What
stays O(n) is a few C-level fills of n-byte flag arrays.

:func:`patch_solution` is the graceful-degradation fallback: drop
conflicts, extend to maximal — last-known-good quality, guaranteed
feasibility, microseconds of work.  The service returns it with a
staleness flag when a repair exceeds its time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence

import numpy as _np

from ..core.components import _region_ids
from ..core.framework import ALGORITHM_BY_NAME
from ..core.result import MISResult
from ..core.trace import extend_to_maximal
from ..graphs.properties import connected_components
from ..graphs.static_graph import Graph
from ..obs.telemetry import get_telemetry

__all__ = [
    "RepairOutcome",
    "cold_solve",
    "extend_within",
    "patch_solution",
    "repair_solution",
]


def cold_solve(graph: Graph, algorithm: str) -> MISResult:
    """Solve ``graph`` from scratch with the service's configured algorithm.

    ``algorithm`` is an :data:`~repro.core.framework.ALGORITHM_BY_NAME`
    registry name (``"bdone"`` / ``"linear_time"`` / ``"near_linear"``);
    the driver runs on its flat production workspace.
    """
    try:
        solver = ALGORITHM_BY_NAME[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm name {algorithm!r}; "
            f"registered: {sorted(ALGORITHM_BY_NAME)}"
        ) from None
    return solver(graph)


def patch_solution(graph: Graph, in_set: Sequence[bool]) -> List[bool]:
    """Make an assignment feasible: drop conflicts, extend to maximal.

    Conflicts are resolved in id order (the higher endpoint of a violated
    edge leaves), matching the determinism contract of the rest of the
    library.  The input is not modified.
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
    """A repaired assignment plus the scope accounting telemetry wants.

    ``in_set`` is a ``uint8`` flag array over the snapshot's ids.
    """

    in_set: "_np.ndarray"
    region_size: int
    free_size: int
    blocked_size: int
    components: int
    solver_elapsed: float

    @property
    def size(self) -> int:
        """Cardinality of the repaired independent set."""
        return int(_np.count_nonzero(self.in_set))

    def scope(self) -> Dict[str, int]:
        """The repair-scope counters as a JSON-friendly dict."""
        return {
            "region": self.region_size,
            "free": self.free_size,
            "blocked": self.blocked_size,
            "components": self.components,
        }


def _rows_touching(graph: Graph, rows: "_np.ndarray", flags: "_np.ndarray"):
    """For each of the ascending ``rows``, whether it has a flagged
    neighbour, plus every neighbour gathered (row order, with repeats)."""
    np = _np
    ends, neighbours = graph._gather_rows(rows)
    running = np.zeros(len(neighbours) + 1, dtype=np.int64)
    np.cumsum(flags[neighbours], out=running[1:])
    starts = np.zeros(len(rows), dtype=np.int64)
    starts[1:] = ends[:-1]
    return running[ends] != running[starts], neighbours


def extend_within(graph: Graph, flags: "_np.ndarray", candidates: "_np.ndarray") -> None:
    """Extend the ``uint8`` ``flags`` in place, visiting only ``candidates``.

    A greedy pass in id order over the ascending ``candidates``, as
    :func:`~repro.core.trace.extend_to_maximal` makes over every vertex.
    The two give the same flags whenever every vertex outside
    ``candidates`` is already flagged or has a flagged neighbour.  The
    candidates blocked before the pass can never enter (it only adds),
    so one count over their rows drops them, and the scalar pass runs
    over the rest against the live flags.
    """
    if not len(candidates):
        return
    blocked, _ = _rows_touching(graph, candidates, flags)
    open_ids = candidates[(flags[candidates] == 0) & ~blocked].tolist()
    offsets, targets = graph.flat_csr()
    view = memoryview(flags)
    for v in open_ids:
        for i in range(offsets[v], offsets[v + 1]):
            if view[targets[i]]:
                break
        else:
            view[v] = 1


def repair_solution(
    graph: Graph,
    in_set: Sequence[bool],
    seeds: Sequence[int],
    algorithm: str,
    radius: int = 2,
) -> RepairOutcome:
    """Repair ``in_set`` around the dirty ``seeds`` on the current snapshot.

    ``in_set`` is the previous solution mapped into the snapshot's compact
    id space (dead vertices already dropped); ``seeds`` are the mutated
    vertices in the same space.  The previous solution must be independent
    outside the seeds and maximal outside their closed neighbourhood (every
    answer the service stores is).  Returns a new assignment that is
    independent and maximal on ``graph``; ``in_set`` is not modified.
    """
    start = time.perf_counter()
    region = _region_ids(graph, seeds, radius)
    np = _np
    flags = np.array(in_set, dtype=np.uint8)
    # Region vertices adjacent to a *kept* outside-solution vertex cannot
    # be chosen; everything else in the region is re-decided from scratch.
    flags[region] = 0
    blocked, neighbours = _rows_touching(graph, region, flags)
    free = region[~blocked]
    components = 0
    if len(free):
        name = f"{graph.name}[{len(free)}]" if graph.name else ""
        subgraph = graph._induced(free, name)
        parts = connected_components(subgraph)
        components = len(parts)
        # Each free vertex's rank inside its own component: one relabel
        # table serves every piece, since a component is closed under
        # adjacency.
        members = np.fromiter(chain.from_iterable(parts), dtype=np.int64, count=len(free))
        sizes = np.fromiter(map(len, parts), dtype=np.int64, count=components)
        firsts = np.cumsum(sizes) - sizes
        rank = np.empty(len(free), dtype=np.int64)
        rank[members] = np.arange(len(free), dtype=np.int64) - np.repeat(firsts, sizes)
        telemetry = get_telemetry()
        for index, (first, size) in enumerate(zip(firsts.tolist(), sizes.tolist())):
            piece_ids = members[first : first + size]
            piece = subgraph._induced(
                piece_ids, f"{name}[{size}]" if name else "", rank
            )
            # Stamped so the trace report attributes each piece's spans.
            if telemetry is None:
                chosen = cold_solve(piece, algorithm).independent_set
            else:
                with telemetry.scoped(component=index):
                    chosen = cold_solve(piece, algorithm).independent_set
            picks = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
            flags[free[piece_ids[picks]]] = 1
    # Outside region ∪ N(region) the previous answer is untouched and
    # still maximal; only these vertices can enter.
    near = np.zeros(graph.n, dtype=bool)
    near[region] = True
    near[neighbours] = True
    extend_within(graph, flags, np.flatnonzero(near))
    return RepairOutcome(
        in_set=flags,
        region_size=len(region),
        free_size=len(free),
        blocked_size=len(region) - len(free),
        components=components,
        solver_elapsed=time.perf_counter() - start,
    )
