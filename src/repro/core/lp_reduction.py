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

:func:`lp_reduction` finds the matching with scipy's compiled
Hopcroft–Karp, O(m·√n) worst case, and the cover with one compiled BFS.
:class:`HopcroftKarp` is the pure-Python reference the tests hold it to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

import numpy as _np

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


def lp_reduction(graph: Graph) -> LPReductionResult:
    """Classify every vertex by its half-integral LP value.

    Two compiled scipy passes over the graph's flat CSR buffers:

    * ``maximum_bipartite_matching`` (Hopcroft–Karp) on the double cover,
      whose biadjacency matrix is the adjacency matrix itself (rows are
      the left copies, columns the right ones);
    * one ``breadth_first_order`` from a super-source ``s = 2n`` over the
      residual digraph on ``L_u = u``, ``R_v = n + v`` and ``s``:
      ``L_u → R_v`` for each edge, ``R_v → L_w`` for each matched pair
      ``(L_w, R_v)`` and ``s → L_u`` for each free left vertex.  What it
      reaches is König's ``Z``, the vertices on alternating paths from
      free left vertices (``L_u``'s own matched edge adds nothing: a
      matched ``L_u`` is reached only through its partner ``R_v``).

    ``Z`` is the same for every maximum matching (Dulmage–Mendelsohn), so
    the classification equals :class:`HopcroftKarp`'s whichever matching
    scipy finds.
    """
    from scipy.sparse import csr_matrix  # function-local: keeps ``import repro`` light
    from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

    n = graph.n
    if n == 0:
        return LPReductionResult((), (), ())
    offsets, targets = graph.flat_csr()
    indptr = _np.frombuffer(offsets, dtype=_np.int64)
    indices = _np.asarray(targets, dtype=_np.int64)
    m2 = len(indices)
    biadjacency = csr_matrix((_np.ones(m2, dtype=_np.float64), indices, indptr), shape=(n, n))
    match_left = maximum_bipartite_matching(biadjacency, perm_type="column")
    matched = match_left >= 0
    partner_of_right = _np.full(n, -1, dtype=_np.int64)
    partner_of_right[match_left[matched]] = _np.flatnonzero(matched)
    right_has_partner = partner_of_right >= 0
    free_left = _np.flatnonzero(~matched)
    # Rows: n left rows (the edges), n right rows (0 or 1 partner), then
    # the source; each left vertex is a partner or free, so 2m + n entries.
    residual_indptr = _np.concatenate(
        (
            indptr,
            m2 + _np.cumsum(right_has_partner, dtype=_np.int64),
            _np.full(1, m2 + n, dtype=_np.int64),
        )
    )
    residual_indices = _np.concatenate(
        (indices + n, partner_of_right[right_has_partner], free_left)
    )
    size = 2 * n + 1
    residual = csr_matrix(
        (_np.ones(len(residual_indices), dtype=_np.float64), residual_indices, residual_indptr),
        shape=(size, size),
    )
    reached = _np.zeros(size, dtype=_np.bool_)
    reached[breadth_first_order(residual, 2 * n, return_predecessors=False)] = True
    left = reached[:n]
    right = reached[n : 2 * n]
    # Cover C = (L \ Z) ∪ (R ∩ Z); x_v = (|{L_v} ∩ C| + |{R_v} ∩ C|) / 2.
    return LPReductionResult(
        included=tuple(_np.flatnonzero(left & ~right).tolist()),
        excluded=tuple(_np.flatnonzero(right & ~left).tolist()),
        remaining=tuple(_np.flatnonzero(left == right).tolist()),
    )


def lp_upper_bound(graph: Graph) -> float:
    """The LP relaxation upper bound on α(G) (used by Table 7)."""
    return lp_reduction(graph).lp_bound
