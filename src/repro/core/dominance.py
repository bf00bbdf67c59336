"""Dominance reduction machinery (paper Section 5).

Vertex ``v`` *dominates* its neighbour ``u`` when ``N(v) \\ {u} ⊆ N(u)``
(Lemma 5.1); a dominated vertex can be removed without changing α.  Checking
dominance incrementally hinges on Lemma 5.2:

    ``v`` dominates ``u``  ⇔  δ(v, u) = d(v) − 1,

where δ is the per-edge triangle count.  :class:`TriangleWorkspace` keeps
the adjacency structure as dict-of-dicts ``tri[u][v] = δ(u, v)`` (the 4m +
O(n) representation of Table 1), maintains the counts under vertex deletion
and path rewiring, and feeds the worklist ``D`` of dominance candidates.

:func:`one_pass_dominance` is the degree-decreasing prefilter the paper runs
first to shrink Δ in O(m · a(G)) time.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Optional, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from .bucket_queue import MaxDegreeSelector
from .trace import DecisionLog
from .workspace import compact_remap

__all__ = ["TriangleWorkspace", "one_pass_dominance"]


def one_pass_dominance(graph: Graph) -> List[int]:
    """One sweep of the dominance reduction in degree-decreasing order.

    Returns the list of removed (dominated) vertices.  Scanning vertices
    from high to low degree and only considering dominators of currently
    smaller-or-equal degree bounds the work by
    ``Σ_(u,v)∈E min(d(u), d(v)) = O(m · a(G))`` (Section 5).
    """
    adjacency = graph.adjacency_sets()
    degree = graph.degrees()
    alive = bytearray([1]) * graph.n if graph.n else bytearray()
    order = sorted(range(graph.n), key=lambda v: -degree[v])
    removed: List[int] = []
    for u in order:
        if not alive[u]:
            continue
        for v in adjacency[u]:
            if degree[v] > degree[u]:
                continue
            # v dominates u iff every other neighbour of v is adjacent to u.
            u_adjacency = adjacency[u]
            if all(x == u or x in u_adjacency for x in adjacency[v]):
                alive[u] = 0
                removed.append(u)
                for x in adjacency[u]:
                    adjacency[x].discard(u)
                    degree[x] -= 1
                adjacency[u] = set()
                degree[u] = 0
                break
    return removed


class TriangleWorkspace:
    """Mutable graph state with per-edge triangle counts for NearLinear.

    The adjacency structure is ``tri[u]: dict[neighbour, triangle count]``;
    ``deg[u] == len(tri[u])`` is kept in a parallel list so the bucket
    selector can share it.  The worklist ``dominated`` holds dominance
    *candidates*; Algorithm 5 Line 8 re-checks each candidate on pop
    because mutual dominance can invalidate stale entries (Appendix A.3,
    Figure 14).
    """

    __slots__ = (
        "graph",
        "n",
        "tri",
        "deg",
        "alive",
        "log",
        "v1",
        "v2",
        "dominated",
        "_selector",
        "_nlive",
        "_live_deg_sum",
    )

    def __init__(self, graph: Graph, keep: Optional[_np.ndarray] = None) -> None:
        self.graph = graph
        n = self.n = graph.n
        # ``keep`` restricts the workspace to the subgraph induced by the
        # kept vertices, in the input's ids; a removed vertex starts dead.
        alive = self.alive = (
            bytearray([1]) * n if keep is None else bytearray(keep.astype(_np.uint8).tobytes())
        )
        self.tri: List[dict] = [
            dict.fromkeys([w for w in graph.neighbors(v) if alive[w]], 0) if alive[v] else {}
            for v in range(n)
        ]
        self.deg: List[int] = [len(row) for row in self.tri]
        self.log = DecisionLog()
        self.v1: List[int] = []
        self.v2: List[int] = []
        self.dominated: List[int] = []
        self._selector: Optional[MaxDegreeSelector] = None
        self._nlive = sum(alive)
        self._live_deg_sum = sum(self.deg)
        self._count_triangles()
        for v in range(n):
            if not alive[v]:
                continue
            d = self.deg[v]
            if d == 0:
                alive[v] = 0
                self._nlive -= 1
                self.log.include(v)
            elif d == 1:
                self.v1.append(v)
            elif d == 2:
                self.v2.append(v)
        self._seed_dominated()

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def _count_triangles(self) -> None:
        """Fill δ(u, v) for every edge with the sparse-matrix identity
        ``δ = (A² ∘ A)``."""
        from scipy import sparse  # function-local: keeps ``import repro`` light

        if self.n == 0:
            return
        indptr = _np.zeros(self.n + 1, dtype=_np.int64)
        _np.cumsum(self.deg, out=indptr[1:])
        indices = _np.fromiter(
            chain.from_iterable(self.tri), dtype=_np.int64, count=int(indptr[-1])
        )
        data = _np.ones(len(indices), dtype=_np.int64)
        adjacency = sparse.csr_matrix((data, indices, indptr), shape=(self.n, self.n))
        counts = (adjacency @ adjacency).multiply(adjacency).tocsr()
        counts_indptr = counts.indptr
        counts_indices = counts.indices
        counts_data = counts.data
        tri = self.tri
        for u in range(self.n):
            row = tri[u]
            for position in range(counts_indptr[u], counts_indptr[u + 1]):
                row[int(counts_indices[position])] = int(counts_data[position])

    def _seed_dominated(self) -> None:
        """Initial worklist D = {u | ∃ (v,u) ∈ E with δ(v,u) = d(v) − 1}."""
        deg = self.deg
        for v in range(self.n):
            if not self.alive[v]:
                continue
            target = deg[v] - 1
            for u, count in self.tri[v].items():
                if count == target:
                    self.dominated.append(u)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """Current neighbours of ``v`` (eager structure: all live)."""
        return list(self.tri[v])

    def iter_live_neighbors(self, v: int) -> Iterable[int]:
        """Iterator over current neighbours of ``v``."""
        return iter(self.tri[v])

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` currently exists (O(1) dict probe)."""
        return v in self.tri[u]

    def is_dominated(self, u: int) -> bool:
        """Re-check: is ``u`` currently dominated by some neighbour?"""
        deg = self.deg
        for v, count in self.tri[u].items():
            if count == deg[v] - 1:
                return True
        return False

    @property
    def live_vertex_count(self) -> int:
        """Number of not-yet-deleted vertices (O(1), counter-maintained)."""
        return self._nlive

    def live_edge_count(self) -> int:
        """Number of live edges (O(1), counter-maintained)."""
        return self._live_deg_sum // 2

    # ------------------------------------------------------------------
    # Worklist pops
    # ------------------------------------------------------------------
    def pop_degree_one(self) -> Optional[int]:
        """Pop a validated degree-one vertex, or ``None``."""
        while self.v1:
            v = self.v1.pop()
            if self.alive[v] and self.deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None``."""
        while self.v2:
            v = self.v2.pop()
            if self.alive[v] and self.deg[v] == 2:
                return v
        return None

    def pop_dominated(self) -> Optional[int]:
        """Pop a *verified* dominated vertex (Algorithm 5 Line 8)."""
        while self.dominated:
            u = self.dominated.pop()
            if self.alive[u] and self.is_dominated(u):
                return u
        return None

    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue)."""
        if self._selector is None:
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def include(self, v: int) -> None:
        """Commit degree-zero ``v`` to the solution."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    def delete_vertex(self, u: int, reason: str = "exclude") -> None:
        """Delete ``u`` with full triangle/dominance maintenance.

        After removing ``u``: every edge inside N(u) loses one triangle,
        and every neighbour ``v`` has d(v) reduced — so any edge at ``v``
        may newly satisfy δ(v, x) = d(v) − 1, putting the two-hop
        neighbour ``x`` on the dominance worklist (Section 5's update
        rule).
        """
        tri = self.tri
        deg = self.deg
        self.alive[u] = 0
        self._nlive -= 1
        self._live_deg_sum -= 2 * deg[u]
        if reason == "peel":
            self.log.peel(u)
        else:
            self.log.exclude(u)
        neighbours = list(tri[u])
        neighbour_set = tri[u]
        # Drop the star at u and decrement triangle counts inside N(u).
        for v in neighbours:
            row = tri[v]
            del row[u]
            deg[v] -= 1
            for w in row:
                if w in neighbour_set:
                    row[w] -= 1
        tri[u] = {}
        deg[u] = 0
        # Re-file degrees and surface new dominance candidates.
        for v in neighbours:
            if not self.alive[v]:
                continue
            self._refile(v)
        dominated = self.dominated
        for v in neighbours:
            if not self.alive[v]:
                continue
            target = deg[v] - 1
            for x, count in tri[v].items():
                if count == target:
                    dominated.append(x)

    # ------------------------------------------------------------------
    # Path-reduction support (used by the shared Lemma 4.1 driver)
    # ------------------------------------------------------------------
    def remove_silently(self, v: int) -> None:
        """Mark a path-interior vertex dead; caller fixes endpoints.

        Interior vertices of a maximal degree-two path belong to no
        triangle (their neighbours lie on the path), so no triangle
        maintenance is needed — the invariant the paper exploits for the
        Figure 4(c)–(e) updates.
        """
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        for x in self.tri[v]:
            self.tri[x].pop(v, None)
        self.tri[v] = {}
        self.deg[v] = 0
        self.alive[v] = 0

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace edge ``(v, old)`` with ``(v, new)``; δ of the new edge
        is settled by :meth:`settle_new_edge` once both endpoints are
        rewired.

        The replacement happens *in place*: ``new`` takes ``old``'s
        position in the row's iteration order rather than moving to the
        end.  This keeps dict order aligned with the flat backend's
        adjacency-slot order (which overwrites the retired slot), the
        contract that makes the two backends' decision logs
        byte-identical.
        """
        row = self.tri[v]
        if old in row:
            self.tri[v] = {
                (new if key == old else key): (0 if key == old else count)
                for key, count in row.items()
            }
        else:
            row[new] = 0

    def settle_new_edge(self, a: int, b: int) -> None:
        """Compute δ(a, b) for a just-created edge and propagate dominance.

        For every common neighbour ``x``, δ(x, a) and δ(x, b) grow by one
        (Figure 4(e) update), which can create new dominance pairs in
        either direction.
        """
        tri = self.tri
        deg = self.deg
        row_a, row_b = tri[a], tri[b]
        if len(row_a) > len(row_b):
            a, b = b, a
            row_a, row_b = row_b, row_a
        common = [x for x in row_a if x != b and x in row_b]
        delta = len(common)
        row_a[b] = delta
        row_b[a] = delta
        dominated = self.dominated
        for x in common:
            tri[x][a] += 1
            row_a[x] += 1
            tri[x][b] += 1
            row_b[x] += 1
            row_x = tri[x]
            target = deg[x] - 1
            if row_x[a] == target:
                dominated.append(a)
            if row_x[b] == target:
                dominated.append(b)
            if row_a[x] == deg[a] - 1:
                dominated.append(x)
            if row_b[x] == deg[b] - 1:
                dominated.append(x)
        if delta == deg[a] - 1:
            dominated.append(b)
        if delta == deg[b] - 1:
            dominated.append(a)

    def decrement_degree(self, v: int) -> None:
        """Degree bookkeeping for an even-path anchor (Figure 4(d)).

        d(v) drops while the triangle counts of v's edges stay put, so v
        may newly dominate a neighbour.
        """
        # The path endpoint was already detached by remove_silently.
        new_degree = len(self.tri[v])
        self._live_deg_sum -= self.deg[v] - new_degree
        self.deg[v] = new_degree
        self._refile(v)
        if not self.alive[v]:
            return
        target = self.deg[v] - 1
        dominated = self.dominated
        for x, count in self.tri[v].items():
            if count == target:
                dominated.append(x)

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """Compacted live residual graph plus the id mapping."""
        remap, old_ids = compact_remap(self.alive, self.n)
        offsets = [0]
        targets: List[int] = []
        for old in old_ids:
            row = sorted(remap[w] for w in self.tri[old])
            targets.extend(row)
            offsets.append(len(targets))
        name = f"{self.graph.name}-kernel" if self.graph.name else "kernel"
        return Graph(offsets, targets, name=name), old_ids
