"""Structural graph properties: triangles, components, degeneracy, histograms.

These are the substrate analytics the algorithms and benchmarks rely on:

* per-edge triangle counts δ(u, v) — the quantity NearLinear maintains
  incrementally (Lemma 5.2);
* connected components — used to split workloads and by tests;
* degeneracy ordering — ``a(G) ≤ degeneracy`` gives the arboricity-style
  bound quoted for the one-pass dominance reduction (Section 5);
* degree histograms — used to sanity-check the power-law generators.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as _np

from .static_graph import Graph

__all__ = [
    "triangle_counts",
    "count_triangles",
    "connected_components",
    "largest_component",
    "is_connected",
    "degeneracy_ordering",
    "degeneracy",
    "degree_histogram",
    "power_law_exponent_estimate",
]


def triangle_counts(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Per-edge triangle counts δ(u, v), keyed by ``(min(u,v), max(u,v))``.

    Uses the standard forward/degree-ordered intersection so the running
    time is O(m · a(G)) — the same bound the paper quotes for its one-pass
    dominance scan.
    """
    order = sorted(range(graph.n), key=graph.degree)
    rank = [0] * graph.n
    for pos, v in enumerate(order):
        rank[v] = pos
    forward: List[List[int]] = [[] for _ in range(graph.n)]
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if rank[v] > rank[u]:
                forward[u].append(v)
    counts: Dict[Tuple[int, int], int] = {edge: 0 for edge in graph.edges()}
    forward_sets = [set(adj) for adj in forward]
    for u in range(graph.n):
        for i, v in enumerate(forward[u]):
            for w in forward[u][i + 1 :]:
                if w in forward_sets[v] or v in forward_sets[w]:
                    for a, b in ((u, v), (u, w), (v, w)):
                        key = (a, b) if a < b else (b, a)
                        counts[key] += 1
    return counts


def count_triangles(graph: Graph) -> int:
    """Total number of triangles in the graph."""
    return sum(triangle_counts(graph).values()) // 3


def connected_components(graph: Graph) -> List[List[int]]:
    """Connected components as sorted vertex lists, largest first.

    Components of equal size come in order of their smallest vertex.
    Whole-array passes over the CSR buffers: every vertex starts as its
    own root; each round hooks every root that has an edge to a smaller
    root onto the smallest such root, then pointer jumping flattens the
    forest.  Labels only fall, so the rounds stop with each component
    labelled by its smallest vertex.
    """
    np = _np
    n = graph.n
    if n == 0:
        return []
    offsets, targets = graph.flat_csr()
    label = np.arange(n, dtype=np.int64)
    if len(targets):
        # One direction of every edge suffices: a slot (u, w) with u > w
        # and its twin (w, u) see the same two roots.
        heads = np.repeat(label, np.diff(np.frombuffer(offsets, dtype=np.int64)))
        tails = np.frombuffer(targets, dtype=np.int32).astype(np.int64)
        forward = heads > tails
        heads, tails = heads[forward], tails[forward]
        while len(heads):
            high = np.maximum(label[heads], label[tails])
            low = np.minimum(label[heads], label[tails])
            apart = high != low
            if not apart.any():
                break
            heads, tails, high, low = heads[apart], tails[apart], high[apart], low[apart]
            np.minimum.at(label, high, low)
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
    sizes = np.bincount(label, minlength=n)
    roots = np.flatnonzero(sizes)
    members = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(sizes[roots]).tolist()
    pieces = [members[end - size : end] for end, size in zip(ends, sizes[roots].tolist())]
    order = np.lexsort((roots, -sizes[roots])).tolist()
    return [pieces[k] for k in order]


def largest_component(graph: Graph) -> Tuple[Graph, List[int]]:
    """The induced subgraph on the largest component plus the id mapping."""
    components = connected_components(graph)
    if not components:
        return Graph.empty(0), []
    return graph.subgraph(components[0])


def is_connected(graph: Graph) -> bool:
    """Whether the graph has at most one connected component."""
    return len(connected_components(graph)) <= 1


def degeneracy_ordering(graph: Graph) -> Tuple[List[int], int]:
    """Smallest-last vertex ordering and the graph's degeneracy.

    Classic bucket-based peeling in O(n + m): repeatedly remove the
    minimum-degree vertex.  The degeneracy upper-bounds the arboricity
    a(G) used in the paper's one-pass dominance complexity analysis.
    """
    n = graph.n
    degree = graph.degrees()
    max_deg = max(degree, default=0)
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = bytearray(n)
    order: List[int] = []
    degeneracy_value = 0
    current = 0
    for _ in range(n):
        while current <= max_deg and not buckets[current]:
            current += 1
        # Lazy buckets hold stale entries; skip vertices whose degree moved.
        while True:
            v = buckets[current].pop()
            if not removed[v] and degree[v] == current:
                break
            while current <= max_deg and not buckets[current]:
                current += 1
        degeneracy_value = max(degeneracy_value, current)
        removed[v] = 1
        order.append(v)
        for w in graph.neighbors(v):
            if not removed[w]:
                degree[w] -= 1
                buckets[degree[w]].append(w)
                if degree[w] < current:
                    current = degree[w]
    return order, degeneracy_value


def degeneracy(graph: Graph) -> int:
    """The degeneracy (smallest-last peeling width) of the graph."""
    return degeneracy_ordering(graph)[1]


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map from degree value to the number of vertices with that degree."""
    histogram: Dict[int, int] = {}
    for d in graph.degrees():
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def power_law_exponent_estimate(graph: Graph, d_min: int = 2) -> float:
    """Maximum-likelihood (Hill) estimate of the degree power-law exponent.

    ``beta ≈ 1 + k / Σ ln(d_i / (d_min - 0.5))`` over vertices with degree
    ≥ ``d_min``.  Used by tests to confirm the Chung–Lu generator produces
    the requested tail exponent within tolerance.
    """
    import math

    tail = [d for d in graph.degrees() if d >= d_min]
    if not tail:
        return float("inf")
    log_sum = sum(math.log(d / (d_min - 0.5)) for d in tail)
    if log_sum == 0.0:
        return float("inf")
    return 1.0 + len(tail) / log_sum
