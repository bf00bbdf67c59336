"""BDTwo — the effective baseline (paper Algorithm 3, Section 3.3).

Reducing-Peeling with the degree-one reduction plus the *degree-two vertex*
reductions of Lemma 2.2:

* **isolation** — a degree-two vertex whose neighbours are adjacent joins
  the solution, its neighbours are removed;
* **folding** — a degree-two vertex with non-adjacent neighbours is
  contracted with them into a supervertex; the decision is backtracked once
  the rest of the graph is solved.

Contraction can *enlarge* neighbourhoods, so BDTwo needs a dynamic
adjacency-set representation (the paper's 6m + O(n) mutual-reference
adjacency lists) and is not linear time: Theorem 3.1 exhibits a Θ(n)-edge
family on which it spends Ω(n log n) (see
:func:`repro.graphs.named.bdtwo_lower_bound_family`).
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..graphs.static_graph import Graph
from .bucket_queue import MaxDegreeSelector
from .result import (
    STAT_DEGREE_ONE,
    STAT_DEGREE_TWO_FOLDING,
    STAT_DEGREE_TWO_ISOLATION,
    STAT_PEEL,
    MISResult,
)
from .trace import DecisionLog
from ..obs.instrument import traced_replay
from ..obs.telemetry import get_telemetry, phase

__all__ = ["bdtwo"]


class _DynamicWorkspace:
    """Adjacency-set graph state supporting deletion and contraction."""

    __slots__ = ("n", "adj", "deg", "alive", "log", "v1", "v2", "_selector")

    def __init__(self, graph: Graph) -> None:
        self.n = graph.n
        self.adj: List[set] = graph.adjacency_sets()
        self.deg: List[int] = graph.degrees()
        self.alive = bytearray([1]) * graph.n if graph.n else bytearray()
        self.log = DecisionLog()
        self.v1: List[int] = []
        self.v2: List[int] = []
        self._selector: Optional[MaxDegreeSelector] = None
        for v in range(self.n):
            d = self.deg[v]
            if d == 0:
                self.alive[v] = 0
                self.log.include(v)
            elif d == 1:
                self.v1.append(v)
            elif d == 2:
                self.v2.append(v)

    # -- queue management ------------------------------------------------
    def pop_degree(self, queue: List[int], target: int) -> Optional[int]:
        """Pop a live vertex of exactly ``target`` degree from ``queue``."""
        while queue:
            v = queue.pop()
            if self.alive[v] and self.deg[v] == target:
                return v
        return None

    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.alive[w] = 0
            self.log.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    # -- mutations ---------------------------------------------------------
    def delete_vertex(self, v: int, reason: Optional[str]) -> None:
        """Remove ``v`` eagerly from all neighbour sets.

        ``reason`` is ``"exclude"``, ``"peel"`` or ``None`` (silent — used
        for the folded vertex whose fate the fold record decides later).
        """
        self.alive[v] = 0
        if reason == "peel":
            self.log.peel(v)
        elif reason == "exclude":
            self.log.exclude(v)
        for w in self.adj[v]:
            self.adj[w].discard(v)
            self.deg[w] -= 1
            self._refile(w)
        self.adj[v] = set()
        self.deg[v] = 0

    def contract(self, v: int, w: int) -> None:
        """Merge ``v`` into ``w`` (paper's ``Contract``); ``v`` disappears.

        Precondition: ``v`` and ``w`` are live and non-adjacent (the folded
        middle vertex was already deleted).  Neighbour degrees stay fixed
        when they trade the edge to ``v`` for one to ``w``, and drop by one
        when the two edges merge.
        """
        self.alive[v] = 0
        gained = 0
        adj_w = self.adj[w]
        for x in self.adj[v]:
            self.adj[x].discard(v)
            if x in adj_w:
                self.deg[x] -= 1
                self._refile(x)
            else:
                adj_w.add(x)
                self.adj[x].add(w)
                gained += 1
        self.adj[v] = set()
        self.deg[v] = 0
        if gained:
            self.deg[w] += gained
            if self._selector is not None:
                self._selector.notify_increase(w)
        self._refile(w)

    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue)."""
        if self._selector is None:
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()


def bdtwo(graph: Graph) -> MISResult:
    """Compute a maximal independent set of ``graph`` with BDTwo."""
    start = time.perf_counter()
    telemetry = get_telemetry()  # one global check per run
    with phase(telemetry, "setup", algorithm="BDTwo", graph=graph.name):
        ws = _DynamicWorkspace(graph)
    log = ws.log
    # BDTwo's dynamic workspace does not maintain the PR-1 live counters
    # (contraction makes them ambiguous), so it gets phase spans and
    # counter snapshots but no sampled peeling profile.
    with phase(telemetry, "reduce", algorithm="BDTwo", graph=graph.name) as span:
        while True:
            u = ws.pop_degree(ws.v1, 1)
            if u is not None:
                (v,) = ws.adj[u]
                ws.delete_vertex(v, "exclude")
                log.bump(STAT_DEGREE_ONE)
                continue
            u = ws.pop_degree(ws.v2, 2)
            if u is not None:
                v, w = ws.adj[u]
                if w in ws.adj[v]:
                    ws.delete_vertex(v, "exclude")
                    ws.delete_vertex(w, "exclude")
                    log.bump(STAT_DEGREE_TWO_ISOLATION)
                else:
                    log.fold(u, v, w)
                    ws.delete_vertex(u, None)
                    ws.contract(v, w)
                    log.bump(STAT_DEGREE_TWO_FOLDING)
                continue
            u = ws.pop_max_degree()
            if u is None:
                break
            ws.delete_vertex(u, "peel")
            log.bump(STAT_PEEL)
        span.meta["counters"] = dict(log.stats)
    if telemetry is not None:
        telemetry.add_counters(log.stats)
    outcome = traced_replay(log, graph, telemetry, "BDTwo")
    return MISResult(
        algorithm="BDTwo",
        graph_name=graph.name,
        independent_set=outcome.vertices,
        upper_bound=outcome.upper_bound,
        peeled=outcome.peeled,
        surviving_peels=outcome.surviving_peels,
        is_exact=outcome.is_exact,
        stats=dict(log.stats),
        elapsed=time.perf_counter() - start,
    )
