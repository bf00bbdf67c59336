"""Linear-programming based reduction (Nemhauser–Trotter / crown family).

The LP relaxation of vertex cover (``min Σ x_v`` s.t. ``x_u + x_v ≥ 1``)
always has a half-integral optimum computable from a maximum matching on the
*bipartite double cover*: vertices are split into left/right copies and each
edge ``(u, v)`` becomes ``(L_u, R_v)`` and ``(L_v, R_u)``.  König's theorem
turns a maximum matching into a minimum vertex cover of the double cover,
and ``x_v = (|{L_v} ∩ C| + |{R_v} ∩ C|) / 2 ∈ {0, ½, 1}``.

By the Nemhauser–Trotter persistency theorem, some maximum independent set
contains every vertex with ``x_v = 0`` and no vertex with ``x_v = 1``, so

    ``α(G) = |V₀| + α(G[V_½])``.

The paper runs this reduction once inside NearLinear's preprocessing
(Section 5) — it is also the "linear programming-based upper bound" of [1]
used in Table 7: ``α(G) ≤ |V₀| + |V_½| / 2``.

The matching is found with Hopcroft–Karp, O(m·√n) worst case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..graphs.static_graph import Graph

__all__ = ["HopcroftKarp", "LPReductionResult", "lp_reduction", "lp_upper_bound"]

_INF = float("inf")


class HopcroftKarp:
    """Maximum matching in a bipartite graph given as left-side adjacency.

    Parameters
    ----------
    n_left, n_right:
        Sizes of the two sides.
    adjacency:
        ``adjacency[u]`` lists the right-side neighbours of left vertex
        ``u``.
    """

    def __init__(self, n_left: int, n_right: int, adjacency: List) -> None:
        self.n_left = n_left
        self.n_right = n_right
        self.adjacency = adjacency
        self.match_left: List[int] = [-1] * n_left
        self.match_right: List[int] = [-1] * n_right
        self._dist: List[float] = [0.0] * n_left

    def solve(self) -> int:
        """Run Hopcroft–Karp; returns the matching size."""
        matching = 0
        while self._bfs():
            for u in range(self.n_left):
                if self.match_left[u] == -1 and self._augment(u):
                    matching += 1
        return matching

    def _bfs(self) -> bool:
        dist = self._dist
        queue: deque = deque()
        for u in range(self.n_left):
            if self.match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in self.adjacency[u]:
                nxt = self.match_right[v]
                if nxt == -1:
                    found = True
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[u] + 1.0
                    queue.append(nxt)
        return found

    def _augment(self, root: int) -> bool:
        """Find and apply one shortest augmenting path from ``root``.

        Iterative (explicit stack) so that long alternating paths — e.g.
        on big cycles — cannot blow the interpreter's recursion limit.
        """
        dist = self._dist
        match_left = self.match_left
        match_right = self.match_right
        adjacency = self.adjacency
        nodes = [root]
        iterators = [iter(adjacency[root])]
        chosen: List[int] = [-1]
        while nodes:
            u = nodes[-1]
            descended = False
            for v in iterators[-1]:
                nxt = match_right[v]
                if nxt == -1:
                    # Free right vertex: flip the whole alternating path.
                    chosen[-1] = v
                    for node, partner in zip(nodes, chosen):
                        match_left[node] = partner
                        match_right[partner] = node
                    return True
                if dist[nxt] == dist[u] + 1.0:
                    chosen[-1] = v
                    nodes.append(nxt)
                    iterators.append(iter(adjacency[nxt]))
                    chosen.append(-1)
                    descended = True
                    break
            if not descended:
                dist[u] = _INF
                nodes.pop()
                iterators.pop()
                chosen.pop()
        return False

    def minimum_vertex_cover(self) -> Tuple[List[bool], List[bool]]:
        """König cover after :meth:`solve`: (left-side flags, right-side flags).

        ``Z`` = vertices reachable from unmatched left vertices by
        alternating paths; the cover is ``(L \\ Z_L) ∪ Z_R``.
        """
        visited_left = [False] * self.n_left
        visited_right = [False] * self.n_right
        queue: deque = deque()
        for u in range(self.n_left):
            if self.match_left[u] == -1:
                visited_left[u] = True
                queue.append(u)
        while queue:
            u = queue.popleft()
            for v in self.adjacency[u]:
                if not visited_right[v] and self.match_left[u] != v:
                    visited_right[v] = True
                    nxt = self.match_right[v]
                    if nxt != -1 and not visited_left[nxt]:
                        visited_left[nxt] = True
                        queue.append(nxt)
        cover_left = [not flag for flag in visited_left]
        cover_right = list(visited_right)
        return cover_left, cover_right


@dataclass(frozen=True)
class LPReductionResult:
    """Outcome of the LP reduction.

    ``included`` are the ``x = 0`` vertices (go into the solution),
    ``excluded`` the ``x = 1`` vertices (removed), ``remaining`` the
    ``x = ½`` vertices (the residual problem); ``α(G) = |included| +
    α(G[remaining])``.
    """

    included: Tuple[int, ...]
    excluded: Tuple[int, ...]
    remaining: Tuple[int, ...]

    @property
    def lp_bound(self) -> float:
        """The LP upper bound on α: ``|V₀| + |V_½| / 2``."""
        return len(self.included) + len(self.remaining) / 2.0


def _solve_csr(
    n: int, xadj: Sequence[int], adj: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Hopcroft–Karp on the bipartite double cover, straight off CSR buffers.

    Behaviourally identical to :class:`HopcroftKarp` fed the neighbour
    lists in adjacency order — the BFS layering, the DFS descent order and
    therefore the final matching are the same; only the constant factor
    differs (no per-vertex adjacency lists, no per-root stack allocations,
    no boxed-float distances).  Returns ``(match_left, match_right)``.

    Both phases skip the isolated vertices: they never match and no edge
    reaches them, so the matching is the same.  On inputs the exact rules
    have mostly consumed (the NearLinear residual of a power-law graph is
    ~80% isolated vertices) this removes most of each phase's scan.
    """
    inf = n + 1  # strictly above any reachable BFS layer
    active = [u for u in range(n) if xadj[u] != xadj[u + 1]]
    match_left = [-1] * n
    match_right = [-1] * n
    dist = [0] * n
    queue: deque = deque()
    queue_append = queue.append
    queue_popleft = queue.popleft
    # Reused DFS stacks: nodes on the current alternating path, the row
    # position each has scanned up to, and the right vertex it descended
    # through (the partner-to-be if the path augments).
    nodes: List[int] = []
    ptrs: List[int] = []
    chosen: List[int] = []
    while True:
        # --- BFS phase: layer left vertices by alternating distance.
        for u in active:
            if match_left[u] == -1:
                dist[u] = 0
                queue_append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue_popleft()
            layer = dist[u] + 1
            for v in adj[xadj[u] : xadj[u + 1]]:
                nxt = match_right[v]
                if nxt == -1:
                    found = True
                elif dist[nxt] == inf:
                    dist[nxt] = layer
                    queue_append(nxt)
        if not found:
            return match_left, match_right
        # --- DFS phase: one shortest augmenting path per free left vertex.
        for root in active:
            if match_left[root] != -1:
                continue
            nodes.append(root)
            ptrs.append(xadj[root])
            chosen.append(-1)
            while nodes:
                u = nodes[-1]
                j = ptrs[-1]
                hi = xadj[u + 1]
                layer = dist[u] + 1
                descended = False
                while j < hi:
                    v = adj[j]
                    j += 1
                    nxt = match_right[v]
                    if nxt == -1:
                        # Free right vertex: flip the whole alternating path.
                        chosen[-1] = v
                        for node, partner in zip(nodes, chosen):
                            match_left[node] = partner
                            match_right[partner] = node
                        nodes.clear()
                        ptrs.clear()
                        chosen.clear()
                        descended = True
                        break
                    if dist[nxt] == layer:
                        ptrs[-1] = j
                        chosen[-1] = v
                        nodes.append(nxt)
                        ptrs.append(xadj[nxt])
                        chosen.append(-1)
                        descended = True
                        break
                if not descended:
                    dist[u] = inf
                    nodes.pop()
                    ptrs.pop()
                    chosen.pop()


def _minimum_vertex_cover_csr(
    n: int,
    xadj: Sequence[int],
    adj: Sequence[int],
    match_left: List[int],
    match_right: List[int],
) -> Tuple[List[bool], List[bool]]:
    """König cover over CSR buffers (mirrors
    :meth:`HopcroftKarp.minimum_vertex_cover`)."""
    visited_left = [False] * n
    visited_right = [False] * n
    queue: deque = deque()
    for u in range(n):
        if match_left[u] == -1:
            visited_left[u] = True
            queue.append(u)
    while queue:
        u = queue.popleft()
        partner = match_left[u]
        for v in adj[xadj[u] : xadj[u + 1]]:
            if not visited_right[v] and partner != v:
                visited_right[v] = True
                nxt = match_right[v]
                if nxt != -1 and not visited_left[nxt]:
                    visited_left[nxt] = True
                    queue.append(nxt)
    cover_left = [not flag for flag in visited_left]
    return cover_left, visited_right


def lp_reduction(graph: Graph) -> LPReductionResult:
    """Classify every vertex by its half-integral LP value."""
    n = graph.n
    xadj, adj = graph.csr_arrays()
    match_left, match_right = _solve_csr(n, xadj, adj)
    cover_left, cover_right = _minimum_vertex_cover_csr(
        n, xadj, adj, match_left, match_right
    )
    included: List[int] = []
    excluded: List[int] = []
    remaining: List[int] = []
    for v in range(n):
        if cover_left[v]:
            (excluded if cover_right[v] else remaining).append(v)
        else:
            (remaining if cover_right[v] else included).append(v)
    return LPReductionResult(tuple(included), tuple(excluded), tuple(remaining))


def lp_upper_bound(graph: Graph) -> float:
    """The LP relaxation upper bound on α(G) (used by Table 7)."""
    return lp_reduction(graph).lp_bound
