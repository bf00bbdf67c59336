"""Per-component solving: divide a disconnected graph, conquer each piece.

Independent sets compose over connected components
(``α(G) = Σ α(Gᵢ)``), so running an algorithm per component is both exact
and often faster in practice: the max-degree peeling order then cannot
jump between unrelated regions, and the Theorem-6.1 certificate becomes
per-component (one stubborn component no longer voids the bound earned on
the easy ones — the composed slack is the *sum* of per-component slacks,
never more).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, List

import numpy as _np

from ..graphs.properties import connected_components
from ..graphs.static_graph import Graph
from .result import MISResult

__all__ = ["affected_region", "solve_by_components", "touched_components"]


def affected_region(graph: Graph, seeds: Iterable[int], radius: int = 2) -> List[int]:
    """Vertices within ``radius`` hops of any seed, sorted ascending.

    The invalidation primitive behind localized repair
    (:mod:`repro.serve`): a batch of graph mutations dirties the seed
    vertices, and only this bounded neighbourhood needs its independent-set
    decisions revisited — everything further away keeps its previous
    status.  ``radius=0`` returns the (live, deduplicated) seeds themselves.
    """
    return _region_ids(graph, seeds, radius).tolist()


def _region_ids(graph: Graph, seeds: Iterable[int], radius: int = 2) -> "_np.ndarray":
    """:func:`affected_region` as an ascending ``int64`` array.

    One frontier gather per hop (:meth:`Graph._gather_rows`), so the cost
    is the region's rows, not the graph's: seeds outside ``[0, n)`` are
    dropped, and each hop keeps the gathered neighbours not yet seen.
    """
    np = _np
    wanted = np.fromiter(seeds, dtype=np.int64)
    seen = np.zeros(graph.n, dtype=bool)
    frontier = np.unique(wanted[(wanted >= 0) & (wanted < graph.n)])
    seen[frontier] = True
    for _ in range(radius):
        if not len(frontier):
            break
        _, neighbours = graph._gather_rows(frontier)
        frontier = np.unique(neighbours[~seen[neighbours]].astype(np.int64))
        seen[frontier] = True
    return np.flatnonzero(seen)


def touched_components(graph: Graph, seeds: Iterable[int]) -> List[List[int]]:
    """The connected components of ``graph`` containing any seed vertex.

    Each component is a sorted vertex list; components are returned largest
    first (matching :func:`repro.graphs.properties.connected_components`).
    Used by the serving layer to decide which per-component results a
    mutation batch invalidates: a component with no seed is untouched and
    its cached solution restriction stays valid verbatim.
    """
    seen = bytearray(graph.n)
    components: List[List[int]] = []
    for start in seeds:
        if not 0 <= start < graph.n or seen[start]:
            continue
        seen[start] = 1
        queue = deque([start])
        component = [start]
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = 1
                    component.append(v)
                    queue.append(v)
        component.sort()
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def solve_by_components(
    graph: Graph, algorithm: Callable[[Graph], MISResult]
) -> MISResult:
    """Run ``algorithm`` on every connected component and merge the results.

    The merged result's upper bound is the sum of the per-component bounds
    (valid because α is additive over components) and the certificate holds
    iff every component certified.
    """
    start = time.perf_counter()
    components = connected_components(graph)
    vertices: List[int] = []
    upper_bound = 0
    peeled = 0
    surviving = 0
    stats: dict = {}
    algorithm_name = "unknown"
    for component in components:
        subgraph, old_ids = graph.subgraph(component)
        result = algorithm(subgraph)
        algorithm_name = result.algorithm
        vertices.extend(old_ids[v] for v in result.independent_set)
        upper_bound += result.upper_bound
        peeled += result.peeled
        surviving += result.surviving_peels
        for rule, count in result.stats.items():
            stats[rule] = stats.get(rule, 0) + count
    return MISResult(
        algorithm=f"{algorithm_name}/components",
        graph_name=graph.name,
        independent_set=frozenset(vertices),
        upper_bound=upper_bound,
        peeled=peeled,
        surviving_peels=surviving,
        is_exact=surviving == 0,
        stats=stats,
        elapsed=time.perf_counter() - start,
    )
