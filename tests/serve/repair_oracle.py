"""The per-vertex repair, kept as the oracle of :mod:`repro.serve.repair`.

This is the repair as it was written before it moved to whole-array
passes: a breadth-first region walk, a per-vertex blocked/free scan, a
queue-based component split, one cold solve per component, and the greedy
extension over the whole graph.  The differential tests hold the
production :func:`~repro.serve.repair.repair_solution` to it: the same
flags, region, free and blocked sets, and components in the same order.
"""

from __future__ import annotations

from collections import deque
from typing import List, NamedTuple, Sequence

from repro.core.trace import extend_to_maximal
from repro.graphs import Graph
from repro.serve.repair import cold_solve


class OracleRepair(NamedTuple):
    in_set: List[bool]
    region: List[int]
    free: List[int]
    blocked: List[int]
    #: The free region's components, largest first, in ``graph``'s ids.
    parts: List[List[int]]


def affected_region(graph: Graph, seeds: Sequence[int], radius: int) -> List[int]:
    seen = bytearray(graph.n)
    frontier: List[int] = []
    for v in seeds:
        if 0 <= v < graph.n and not seen[v]:
            seen[v] = 1
            frontier.append(v)
    region = list(frontier)
    for _ in range(radius):
        next_frontier: List[int] = []
        for u in frontier:
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = 1
                    next_frontier.append(v)
        region.extend(next_frontier)
        frontier = next_frontier
    region.sort()
    return region


def connected_components(graph: Graph) -> List[List[int]]:
    seen = bytearray(graph.n)
    components: List[List[int]] = []
    for start in range(graph.n):
        if seen[start]:
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


def repair(
    graph: Graph, in_set: Sequence[bool], seeds: Sequence[int], algorithm: str, radius: int
) -> OracleRepair:
    region = affected_region(graph, seeds, radius)
    in_region = bytearray(graph.n)
    for v in region:
        in_region[v] = 1
    blocked: List[int] = []
    free: List[int] = []
    for v in region:
        conflicted = any(not in_region[w] and in_set[w] for w in graph.neighbors(v))
        (blocked if conflicted else free).append(v)
    repaired = [bool(flag) for flag in in_set]
    for v in region:
        repaired[v] = False
    parts: List[List[int]] = []
    if free:
        subgraph, old_ids = graph.subgraph(free)
        for part in connected_components(subgraph):
            piece, piece_ids = subgraph.subgraph(part)
            parts.append([old_ids[v] for v in part])
            for v in cold_solve(piece, algorithm).independent_set:
                repaired[old_ids[piece_ids[v]]] = True
    extend_to_maximal(repaired, graph)
    return OracleRepair(repaired, region, free, blocked, parts)
