"""Flat-buffer dominance machinery — NearLinear's production backend.

The second wave of the flat migration (the first flattened BDOne /
LinearTime, see :mod:`repro.core.workspace`): the paper's dominance
reduction (Section 5) re-implemented over the CSR buffers.

* :class:`FlatTriangleWorkspace` is the flat twin of
  :class:`~repro.core.dominance.TriangleWorkspace`.  Where the oracle keeps
  ``tri[u]: dict[neighbour, δ]``, the flat workspace stores the per-edge
  triangle counts in one flat buffer parallel to the adjacency buffer:
  slot ``i`` of ``adj`` holds a neighbour and slot ``i`` of ``tri`` holds
  δ of that edge.  Set intersections become membership tests against a
  shared *timestamped mark array* (``stamp[w] == clock``), so no per-step
  set or dict is ever allocated; clearing is O(1) — bump the clock.
* :func:`flat_one_pass_dominance` is phase 1 of NearLinear over the same
  CSR rows: the degree-decreasing dominance sweep.  Whole-array passes
  certify most vertices before the loop starts: leaf-wave vertices are
  dominated, and a vertex whose every neighbour has a live witness
  outside its row is not.  The loop scans only the rest, with
  binary-search subset tests instead of per-vertex Python sets, and a
  reverse map re-flags a certified vertex when its witness is removed.

Both are drop-in replacements with **identical decision sequences**: the
flat slot order is the canonical adjacency order (rows start sorted;
deletions skip dead entries in place; rewiring retargets a slot without
moving it), and :meth:`TriangleWorkspace.rewire` preserves position on its
side so the differential tests can assert log-for-log equality.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from .bucket_queue import MaxDegreeSelector
from .degree_two_paths import rewire_slot
from ..hotpath import hot_loop
from .trace import INCLUDE, DecisionLog
from .workspace import export_kernel_arrays, push_entries

__all__ = ["FlatTriangleWorkspace", "flat_one_pass_dominance"]

#: Wedges (pairs of forward slots in one row) one chunk of the triangle
#: count may hold; bounds the chunk's probe arrays in memory.
WEDGES_PER_BLOCK = 1 << 16


@hot_loop
def _edge_hits(keyed: _np.ndarray, edges: int) -> _np.ndarray:
    """The distinct probe keys that are also edge keys, ascending.

    ``keyed`` holds ``edges`` distinct edge keys followed by the probe
    keys, all non-negative, and is overwritten.  Edge keys become even
    (2k) and probe keys odd (2k + 1), so after one sort a probe that names
    an edge sits right after that edge's key.
    """
    keyed *= 2
    keyed[edges:] += 1
    keyed.sort()
    hit = keyed[_np.flatnonzero(_np.diff(keyed) == 1)]
    return hit[hit % 2 == 0] >> 1


@hot_loop
def _sweep_plan(
    graph: Graph,
) -> Tuple[List[int], bytearray, List[int], List[int], List[int]]:
    """The sweep's plan, in whole-array passes (see :func:`flat_one_pass_dominance`).

    Returns the vertices to visit in sweep order, the per-vertex plan
    (0 = no neighbour can dominate it, 1 = scan at its turn, 2 = removed at
    its turn), the reverse map as a CSR pair ``watch_at`` / ``watch_targets``
    (the vertices to flag for a scan when a vertex is removed) and the input
    degrees.  Only these O(n) lists outlive the call; the per-slot arrays
    of the plan are freed before the loop runs.  ``graph`` has an edge.
    """
    np = _np
    n = graph.n
    offsets, targets = graph.flat_csr()
    xadj = np.frombuffer(offsets, dtype=np.int64)
    adj = np.frombuffer(targets, dtype=np.int32)
    degv = np.diff(xadj)
    order = np.argsort(-degv, kind="stable")  # degree descending, id ascending
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    # A leaf starts at 0: its partner comes first and is removed, leaving
    # it isolated.
    state = (degv == 2).astype(np.uint8)
    is_leaf = degv == 1
    leaf_ids = np.flatnonzero(is_leaf)
    if leaf_ids.size:
        partner = adj[xadj[leaf_ids]]
        state[partner[degv[partner] >= 2]] = 2
        state[leaf_ids[is_leaf[partner] & (leaf_ids < partner)]] = 2
    # z1 / z2 of every vertex (-1: none) from two segmented maxima over
    # the slot ranks, the second with each row's top slot masked out.
    rows = np.flatnonzero(degv)
    starts = xadj[rows]
    slot_rank = rank[adj]
    top = np.maximum.reduceat(slot_rank, starts)
    z1 = np.full(n, -1, dtype=np.int64)
    z1[rows] = order[top]
    slot_rank[slot_rank == np.repeat(top, degv[rows])] = -1
    top = np.maximum.reduceat(slot_rank, starts)
    del slot_rank
    z2 = np.full(n, -1, dtype=np.int64)
    z2[rows] = np.where(top >= 0, order[top], -1)
    # The witness of every slot (u, v) of the planned rows, in row-major
    # order.  z2(v) is set for every v here: a leaf v would have made u
    # a leaf-wave vertex.
    planned = (state == 0) & (degv >= 3)
    planned_rows = np.flatnonzero(planned)
    slot_u = np.repeat(planned_rows, degv[planned_rows])
    slot_v = adj[np.repeat(planned, degv)]
    witness = z1[slot_v]
    own = np.flatnonzero(witness == slot_u)
    witness[own] = z2[slot_v[own]]
    # Probe: is the witness adjacent to u?  Edge keys u·n + v, probe keys
    # u·n + witness.
    half = slot_u.size
    keyed = np.empty(2 * half, dtype=np.int64)
    slot_u *= n  # the row base u·n of every slot, in place
    np.add(slot_u, slot_v, out=keyed[:half])
    np.add(slot_u, witness, out=keyed[half:])
    flagged = _edge_hits(keyed, half) // n
    state[flagged] = 1
    planned[flagged] = False
    # Reverse map z2(v) → z1(v) for every v whose z1 is still certified.
    # Only a vertex with a nonzero plan or a watch on it can ever be
    # removed, so only such a z2 needs watching.
    watched = (z2 >= 0) & planned[z1]
    target = z1[watched]
    source = z2[watched]
    removable = state != 0
    removable[target] = True
    keep = removable[source]
    source = source[keep]
    watch_targets: List[int] = target[keep][np.argsort(source)].tolist()
    watch_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=n), out=watch_ptr[1:])
    visit: List[int] = order[removable[order]].tolist()
    return visit, bytearray(state.tobytes()), watch_ptr.tolist(), watch_targets, degv.tolist()


@hot_loop
def flat_one_pass_dominance(graph: Graph) -> List[int]:
    """Degree-decreasing dominance sweep over the flat CSR rows.

    Returns the same removed-vertex list as
    :func:`~repro.core.dominance.one_pass_dominance`: the sweep visits the
    vertices once in initial degree descending, id ascending order, and
    removes a vertex ``u`` at its own turn iff some live neighbour ``v``
    dominates it (``N[v] ⊆ N[u]`` on the current residual graph).

    Removal happens only at a vertex's own turn, so every vertex after
    ``u`` in the order is still live at ``u``'s turn.  A whole-array plan
    (:func:`_sweep_plan`) uses that fact to settle most vertices before
    the Python loop starts:

    * **leaf wave** — a vertex with an initial leaf neighbour is dominated
      at its turn (a leaf's degree cannot change while its sole neighbour
      is alive, and the order puts the neighbour's turn first; of a K₂ the
      smaller id goes first), so it is removed without a scan;
    * **witness certificate** — for each neighbour ``v`` of a row ``u`` of
      input degree ≥ 3, the witness is ``v``'s latest-ordered neighbour
      ``z1(v)``, or its second-latest ``z2(v)`` when ``z1(v) = u``.  A
      witness that comes after ``u`` is live at ``u``'s turn; if it is
      not adjacent to ``u``, ``v`` cannot dominate ``u``.  All probes are
      answered at once: the row-major edge keys and probe keys are sorted
      together, and a probe that names an edge lands next to it.  A row
      whose every slot is so certified is skipped outright;
    * **reverse map** — the witness ``z2(v)`` comes before ``u = z1(v)``
      and may be removed first; the map flags ``z1(v)`` for a scan when
      its watched ``z2(v)`` is removed.

    The loop visits only vertices that may be removed and scans exactly
    the flagged rows: a failed probe, input degree 2 (such rows are
    cheaper to scan than to plan) or a fired watch.  A leaf is never
    removed unless it is the smaller end of a K₂: its partner's turn comes
    first.  The scan is exact and restructured three ways, none able to
    change a decision:

    * candidates first: rows that produce no candidates (or hold a leaf)
      never reach the subset scans;
    * subset tests by binary search: ``N[v] ⊆ N[u]`` bisects each live
      ``x ∈ N(v)`` into ``u``'s sorted row (the
      :meth:`~repro.graphs.static_graph.Graph.flat_csr` contract);
    * liveness folded into ``deg``: a removed vertex gets ``deg 0``, and
      inside any scanned row a live vertex has ``deg ≥ 1`` (it is adjacent
      to the live row owner).  A live vertex that *became* isolated is
      skipped at its turn; it has no neighbour left to be dominated by.
    """
    if not graph.m:
        return []  # no edges: no vertex has a dominator
    visit, plan, watch_at, watch_targets, deg = _sweep_plan(graph)
    xadj, adj = graph.flat_csr()  # the graph's own buffers: the sweep never mutates adjacency
    removed: List[int] = []
    candidates: List[int] = []  # reused across iterations (hot-loop purity)
    for u in visit:
        step = plan[u]
        if not step:
            continue
        row_u = adj[xadj[u] : xadj[u + 1]]
        if step == 1:
            du = deg[u]
            if not du:
                continue
            dominated = False
            candidates.clear()
            for w in row_u:
                dw = deg[w]
                if dw and dw <= du:
                    if dw == 1:
                        # Leaf neighbour: N[w] = {w, u} ⊆ N[u], no scan needed.
                        dominated = True
                        break
                    candidates.append(w)
            if not dominated and candidates:
                # Cheapest candidate first: a low-degree neighbour is both
                # the likeliest dominator and the cheapest subset test, and
                # the outcome is dominator-order independent.
                row_len = len(row_u)
                candidates.sort(key=deg.__getitem__)
                for v in candidates:
                    # v dominates u iff every other live neighbour of v is in N(u).
                    for x in adj[xadj[v] : xadj[v + 1]]:
                        if deg[x] and x != u:
                            j = bisect_left(row_u, x)
                            if j >= row_len or row_u[j] != x:
                                break
                    else:
                        dominated = True
                        break
            if not dominated:
                continue
        removed.append(u)
        deg[u] = 0
        for w in row_u:
            if deg[w]:
                deg[w] -= 1
        for t in watch_targets[watch_at[u] : watch_at[u + 1]]:
            plan[t] = 1
    return removed


class FlatTriangleWorkspace:
    """Flat CSR workspace with per-edge triangle counts for NearLinear.

    Public surface and decision behaviour are identical to
    :class:`~repro.core.dominance.TriangleWorkspace`; the representation is
    the flat layout of :class:`~repro.core.workspace.FlatWorkspace` plus:

    ``tri``
        Flat buffer of per-edge triangle counts, parallel to ``adj``:
        ``tri[i]`` is δ of the edge ``(v, adj[i])`` for any slot ``i`` in
        ``v``'s row.  Lemma 5.2's dominance test ``δ(v, u) = d(v) − 1``
        is then two flat reads.  (``adj``/``tri`` are plain lists rather
        than ``array('i')``: CPython boxes a fresh int on every typed-array
        indexed read, which measurably dominates the fused delete scan,
        while list reads hand back the already-boxed ids.)
    ``_stamp`` / ``_clock``
        The shared timestamped mark array: ``stamp[w] == clock`` means
        ``w`` is in the set currently being tested.  Resetting the set is
        a clock bump, so dominance maintenance never allocates.
    ``_stamp_slot``
        Parallel to ``_stamp``: the adjacency slot at which the marked
        vertex was seen, letting :meth:`settle_new_edge` update both
        directions of an edge without re-scanning the marking row.
    ``_tsum``
        Per-vertex triangle sum, ``_tsum[v] = Σ δ(v, x)`` over ``v``'s live
        slots, kept exact at every ``tri`` write.  Since every δ is ≥ 0,
        ``_tsum[v] < d(v) − 1`` proves no slot of ``v``'s row meets the
        Lemma 5.2 target, which lets :meth:`delete_vertex` and
        :meth:`decrement_degree` skip the row scan.

    Dead vertices are dropped lazily: every row has a live-end pointer
    ``_rend[v]`` and :meth:`delete_vertex` *compacts* a row while scanning
    it — live entries shift toward ``xadj[v]``, preserving their relative
    order, and ``_rend[v]`` shrinks.  A scanned row therefore costs what
    the oracle's shrinking dict costs; a skipped row keeps its dead slots
    until the next scan passes it, and every reader filters on ``alive``.
    Slots beyond ``_rend[v]`` are stale garbage that no scan may read, and
    the surviving slot order still mirrors the oracle's dict order — which
    is what makes the decision logs byte-identical.

    ``keep`` (a boolean mask over the input's vertices, or ``None`` for all
    of them) restricts the workspace to the induced subgraph on the kept
    vertices while staying in the input's ids: each kept row holds only
    its kept neighbours, in input row order, and a removed vertex starts
    dead with an empty row.  NearLinear passes its phase 1–2 survivors, so
    the main loop logs input ids and exports its kernel in them.
    """

    __slots__ = (
        "graph",
        "n",
        "adj",
        "xadj",
        "tri",
        "deg",
        "alive",
        "log",
        "v1",
        "v2",
        "dominated",
        "_selector",
        "_hint",
        "_rend",
        "_stamp",
        "_stamp_slot",
        "_clock",
        "_tsum",
        "_nlive",
        "_live_deg_sum",
    )

    def __init__(self, graph: Graph, keep: Optional[_np.ndarray] = None) -> None:
        np = _np
        self.graph = graph
        n = self.n = graph.n
        if keep is None:
            keep = np.ones(n, dtype=bool)
        # Each kept row holds only its kept neighbours, in input row order;
        # a removed vertex has an empty row and starts dead.
        rows = np.flatnonzero(keep)
        ends, adj = graph._induced_rows(
            rows, np.where(keep, np.arange(n, dtype=np.int64), -1)
        )
        deg = np.zeros(n, dtype=np.int64)
        deg[rows] = np.diff(ends, prepend=0)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=xadj[1:])
        live = deg != 0
        # Flat CSR storage as plain lists: the hot loops read boxed ints
        # and never pay CPython's per-read int boxing the way ``array('i')``
        # indexed reads do.
        offsets = xadj.tolist()
        self.xadj = offsets
        self.adj = adj.tolist()
        self.deg = deg.tolist()
        # The worklists and the kept isolated vertices' includes in one
        # whole-array pass, in the ascending order of the oracle's loop.
        self.alive = bytearray(live.astype(np.uint8).tobytes())
        self.log = DecisionLog()
        push_entries(self.log.entries, INCLUDE, np.flatnonzero(keep & ~live))
        self.v1: List[int] = np.flatnonzero(deg == 1).tolist()
        self.v2: List[int] = np.flatnonzero(deg == 2).tolist()
        self._selector: Optional[MaxDegreeSelector] = None
        self._hint = offsets[:-1]
        self._rend = offsets[1:]
        self._stamp = [0] * n
        self._stamp_slot = [0] * n
        self._clock = 0
        self._nlive = int(np.count_nonzero(live))
        self._live_deg_sum = len(adj)
        self.tri = [0] * len(adj)
        self._tsum = [0] * n
        self.dominated: List[int] = []
        if len(adj):
            self._count_triangles(adj, deg)

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    @hot_loop
    def _count_triangles(self, adj: _np.ndarray, deg: _np.ndarray) -> None:
        """Fill δ for every adjacency slot, ``_tsum`` and ``dominated``.

        The degree-ordered count of
        :func:`~repro.graphs.properties.triangle_counts` in whole-array
        passes: with vertices ranked by (degree, id), a triangle's
        lowest-ranked corner holds the other two as a pair of *forward*
        slots (towards a higher rank), so each triangle is one of O(m·α)
        such wedges.  Chunks of at most :data:`WEDGES_PER_BLOCK` wedges are
        closed at once by :func:`_edge_hits` against the forward rows
        they read; each triangle then adds one to its six slots.  ``_tsum``
        is two per triangle at each corner, and the dominance worklist
        starts as D = {u | ∃ (v,u) ∈ E with δ(v,u) = d(v) − 1}, in the
        oracle's append order (v ascending, row order).
        """
        np = _np
        n = self.n
        # Only vertices with a slot are ranked: a masked workspace may hold
        # few of them among many removed ones.
        ranked = np.flatnonzero(deg)
        rank = np.zeros(n, dtype=np.int32)
        rank[ranked[np.argsort(deg[ranked], kind="stable")]] = np.arange(
            len(ranked), dtype=np.int32
        )
        row = np.repeat(np.arange(n, dtype=np.int32), deg)
        forward = np.flatnonzero(rank[row] < rank[adj])
        src = row[forward]
        dst = adj[forward]
        del forward
        keys = src.astype(np.int64) * n + dst  # of the forward slots
        # first[s]: the wedges of the forward slots before s.  Slot s pairs
        # with every later forward slot of its row.
        row_end = np.cumsum(np.bincount(src, minlength=n))
        first = np.zeros(len(src) + 1, dtype=np.int64)
        after = row_end[src] - np.arange(1, len(src) + 1, dtype=np.int64)
        np.cumsum(after, out=first[1:])
        del row_end, after
        total = int(first[-1])
        marked = np.zeros(n, dtype=bool)
        apexes: List[_np.ndarray] = []  # per chunk: each triangle's apex
        pairs: List[_np.ndarray] = []  # and its closed probe key
        for lo in range(0, total, WEDGES_PER_BLOCK):
            hi = min(lo + WEDGES_PER_BLOCK, total)
            # Wedge j of the chunk pairs slot s with slot j − first[s] + s + 1.
            s0 = int(np.searchsorted(first, lo, side="right")) - 1
            s1 = int(np.searchsorted(first, hi - 1, side="right"))
            slot = np.repeat(
                np.arange(s0, s1, dtype=np.int64), np.diff(first[s0 : s1 + 1].clip(lo, hi))
            )
            partner = np.arange(lo + 1, hi + 1, dtype=np.int64)
            partner -= first[slot]
            partner += slot
            v = dst[slot].astype(np.int64)
            w = dst[partner].astype(np.int64)
            del partner
            low = np.where(rank[v] < rank[w], v, w)  # the lower-ranked end
            w += v
            w -= low  # the other end
            probes = low * n
            probes += w
            del v, w
            marked[low] = True
            reads = keys[marked[src]]
            marked[low] = False
            closed = _edge_hits(np.concatenate((reads, probes)), len(reads))
            del reads, low
            if not closed.size:
                continue
            # Only a probe from the row of a closed key can close; match
            # those few against the closed keys.
            closing = closed // n
            marked[closing] = True
            maybe = np.flatnonzero(marked[probes // n])
            marked[closing] = False
            at = np.searchsorted(closed, probes[maybe])
            at[at == closed.size] = 0
            hit = maybe[closed[at] == probes[maybe]]
            apexes.append(src[slot[hit]].astype(np.int64))
            pairs.append(probes[hit])
        tri = np.zeros(len(adj), dtype=np.int64)
        if apexes:
            # Triangle (u, v, w) adds one at slots uv, vu, uw, wu, vw, wv,
            # found by their row-major keys tail·n + head.
            u = np.concatenate(apexes)
            v, w = np.divmod(np.concatenate(pairs), n)
            tails = np.concatenate((u, v, u, w, v, w)) * n
            tails += np.concatenate((v, u, w, u, w, v))
            slot_keys = row.astype(np.int64) * n + adj
            tri = np.bincount(np.searchsorted(slot_keys, tails), minlength=len(adj))
            del slot_keys, tails
            self.tri = tri.tolist()
            corners = np.concatenate((u, v, w))
            self._tsum = (2 * np.bincount(corners, minlength=n)).tolist()
        self.dominated = adj[tri == deg[row] - 1].tolist()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices)."""
        alive = self.alive
        return [w for w in self.adj[self.xadj[v] : self._rend[v]] if alive[w]]

    #: The protocol's iterable spelling; an eager list is what it returns.
    iter_live_neighbors = live_neighbors

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists (scan the smaller side)."""
        deg = self.deg
        if deg[u] > deg[v]:
            u, v = v, u
        if not self.alive[v]:
            return False
        return v in self.adj[self.xadj[u] : self._rend[u]]

    def is_dominated(self, u: int) -> bool:
        """Re-check: is ``u`` currently dominated by some neighbour?

        Lemma 5.2 over the flat buffers: two array reads per live
        neighbour, no set intersection.
        """
        deg = self.deg
        alive = self.alive
        lo = self.xadj[u]
        hi = self._rend[u]
        for v, count in zip(self.adj[lo:hi], self.tri[lo:hi]):
            if alive[v] and count == deg[v] - 1:
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
        alive = self.alive
        deg = self.deg
        v1 = self.v1
        while v1:
            v = v1.pop()
            if alive[v] and deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None``."""
        alive = self.alive
        deg = self.deg
        v2 = self.v2
        while v2:
            v = v2.pop()
            if alive[v] and deg[v] == 2:
                return v
        return None

    def pop_dominated(self) -> Optional[int]:
        """Pop a *verified* dominated vertex (Algorithm 5 Line 8)."""
        alive = self.alive
        dominated = self.dominated
        is_dominated = self.is_dominated
        while dominated:
            u = dominated.pop()
            if alive[u] and is_dominated(u):
                return u
        return None

    @hot_loop
    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue).

        Returns ``None`` without building the selector's O(n) buckets once
        nothing is live (the reductions consumed the graph).
        """
        if self._selector is None:
            if not self._nlive:
                return None
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    @hot_loop
    def include(self, v: int) -> None:
        """Commit degree-zero ``v`` to the solution."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    @hot_loop
    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    @hot_loop
    def delete_vertex(self, u: int, reason: str = "exclude") -> None:
        """Delete ``u`` with full triangle/dominance maintenance.

        The Section 5 update rule over flat buffers: stamp N(u), then a
        single fused pass per neighbour ``v`` that (a) decrements δ of
        every stamped edge slot (each in-N(u) edge is seen once from each
        side), (b) surfaces new dominance candidates ``x`` with
        δ(v, x) = d(v) − 1, and (c) *compacts* the row — live entries
        shift to the front (order preserved) and ``_rend[v]`` shrinks, so
        dead slots are never rescanned.

        Fusing (a) and (b) is sound because all degree decrements happen
        before any row scan starts, and each row's δ slots are final once
        its own scan has passed them; the candidate append order (per
        neighbour, in row order) is exactly the oracle's.  No vertex dies
        between the scans and the re-file loop, so the alive tests see the
        same state the oracle's trailing candidate loop sees.

        ``v`` loses δ(u, v) with its slot for ``u`` and one per stamped
        slot, so ``_tsum[v]`` drops by 2·δ(u, v).  The scan of ``v``'s row
        is skipped when δ(u, v) = 0 (no slot is stamped) and
        ``_tsum[v] < d(v) − 1`` (no slot can meet the target): it could
        neither change a count nor surface a candidate.
        """
        adj = self.adj
        xadj = self.xadj
        tri = self.tri
        deg = self.deg
        alive = self.alive
        stamp = self._stamp
        rend = self._rend
        alive[u] = 0
        self._nlive -= 1
        self._live_deg_sum -= 2 * deg[u]
        if reason == "peel":
            self.log.peel(u)
        else:
            self.log.exclude(u)
        clock = self._clock + 1
        self._clock = clock
        tsum = self._tsum
        neighbours = []
        shared = []
        append = neighbours.append
        shared_append = shared.append
        lo = xadj[u]
        hi = rend[u]
        for w, t in zip(adj[lo:hi], tri[lo:hi]):
            if alive[w]:
                stamp[w] = clock
                append(w)
                shared_append(t)
                deg[w] -= 1
                tsum[w] -= t + t
        dominated_append = self.dominated.append
        for v, common in zip(neighbours, shared):
            target = deg[v] - 1
            if not common and tsum[v] < target:
                continue
            k = lo = xadj[v]
            hi = rend[v]
            for x, t in zip(adj[lo:hi], tri[lo:hi]):
                if alive[x]:
                    if stamp[x] == clock:
                        t -= 1
                    adj[k] = x
                    tri[k] = t
                    if t == target:
                        dominated_append(x)
                    k += 1
            rend[v] = k
        # Re-file degrees (candidates were surfaced in the fused pass).
        v1_append = self.v1.append
        v2_append = self.v2.append
        for v in neighbours:
            d = deg[v]
            if d == 1:
                v1_append(v)
            elif d == 2:
                v2_append(v)
            elif d == 0:
                self.include(v)

    # ------------------------------------------------------------------
    # Path-reduction support (the shared Lemma 4.1 driver; the fused main
    # loop calls only settle_new_edge and decrement_degree)
    # ------------------------------------------------------------------
    def remove_silently(self, v: int) -> None:
        """Mark a path-interior vertex dead; caller fixes endpoints.

        Interior vertices of a maximal degree-two path belong to no
        triangle, so no count maintenance is needed; neighbours skip the
        dead entry in place.
        """
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``v``'s row.

        The search starts at the per-vertex hint
        (:func:`~repro.core.degree_two_paths.rewire_slot`); δ of the
        just-created edge is reset to zero (and the
        retired edge's δ leaves ``_tsum[v]``) and later settled by
        :meth:`settle_new_edge` when both endpoints exist.
        """
        i = rewire_slot(self.adj, self._hint, v, self.xadj[v], self._rend[v], old, new)
        self._tsum[v] -= self.tri[i]
        self.tri[i] = 0

    @hot_loop
    def settle_new_edge(self, a: int, b: int) -> None:
        """Compute δ(a, b) for a just-created edge and propagate dominance.

        The row of the higher-degree endpoint ``b`` is stamped and the row
        of the lower-degree endpoint ``a`` scanned, as the oracle iterates
        over the smaller row.  Most new edges close no triangle: then
        δ(a, b) = 0, which both rewired slots already hold (a rewired slot
        lies on no triangle, see
        :func:`~repro.core.degree_two_paths.retire_flat_path`), no count
        or ``_tsum`` changes, and Lemma 5.2 can only newly hold for
        ``b`` when d(a) = 1 and for ``a`` when d(b) = 1, appended in that
        order.  Otherwise :meth:`_settle_shared` runs the full update on a
        fresh clock.
        """
        adj = self.adj
        xadj = self.xadj
        deg = self.deg
        alive = self.alive
        rend = self._rend
        if deg[a] > deg[b]:
            a, b = b, a
        stamp = self._stamp
        clock = self._clock + 1
        self._clock = clock
        for x in adj[xadj[b] : rend[b]]:
            if alive[x]:
                stamp[x] = clock
        # Only live vertices carry this clock, and b is not in its own row.
        for x in adj[xadj[a] : rend[a]]:
            if stamp[x] == clock:
                self._settle_shared(a, b)
                return
        dominated = self.dominated
        if deg[a] == 1:
            dominated.append(b)
        if deg[b] == 1:
            dominated.append(a)

    @hot_loop
    def _settle_shared(self, a: int, b: int) -> None:
        """:meth:`settle_new_edge` for an edge whose ends share a live
        neighbour (``deg[a] <= deg[b]``).

        Mirrors the oracle exactly (Figure 4(e) update).  ``_stamp_slot``
        remembers where in ``b``'s row each marked vertex sits, so the four
        per-common-vertex count updates need just one extra scan (of
        ``x``'s row).  ``a`` and ``b`` each gain 2·δ(a, b) in ``_tsum``
        (the new slot plus one per common neighbour); each common
        neighbour gains 2.
        """
        adj = self.adj
        xadj = self.xadj
        tri = self.tri
        deg = self.deg
        alive = self.alive
        stamp = self._stamp
        slot_of = self._stamp_slot
        clock = self._clock + 1
        self._clock = clock
        rend = self._rend
        slot_b_a = -1
        for j in range(xadj[b], rend[b]):
            x = adj[j]
            if alive[x]:
                stamp[x] = clock
                slot_of[x] = j
                if x == a:
                    slot_b_a = j
        common: List[Tuple[int, int]] = []
        append = common.append
        slot_a_b = -1
        for i in range(xadj[a], rend[a]):
            x = adj[i]
            if not alive[x]:
                continue
            if x == b:
                slot_a_b = i
            elif stamp[x] == clock:
                append((x, i))
        delta = len(common)
        tri[slot_a_b] = delta
        tri[slot_b_a] = delta
        tsum = self._tsum
        tsum[a] += delta + delta
        tsum[b] += delta + delta
        dominated = self.dominated
        deg_a_target = deg[a] - 1
        deg_b_target = deg[b] - 1
        for x, slot_a_x in common:
            slot_x_a = slot_x_b = -1
            for j in range(xadj[x], rend[x]):
                w = adj[j]
                if w == a:
                    slot_x_a = j
                elif w == b:
                    slot_x_b = j
            slot_b_x = slot_of[x]
            tri[slot_x_a] += 1
            tri[slot_a_x] += 1
            tri[slot_x_b] += 1
            tri[slot_b_x] += 1
            tsum[x] += 2
            target = deg[x] - 1
            if tri[slot_x_a] == target:
                dominated.append(a)
            if tri[slot_x_b] == target:
                dominated.append(b)
            if tri[slot_a_x] == deg_a_target:
                dominated.append(x)
            if tri[slot_b_x] == deg_b_target:
                dominated.append(x)
        if delta == deg_a_target:
            dominated.append(b)
        if delta == deg_b_target:
            dominated.append(a)

    @hot_loop
    def decrement_degree(self, v: int) -> None:
        """Degree bookkeeping for an even-path anchor (Figure 4(d)).

        d(v) drops while the triangle counts of v's edges stay put, so v
        may newly dominate a neighbour — unless ``_tsum[v]`` is below the
        new target, in which case no slot can meet it.
        """
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)
        if not self.alive[v]:
            return
        target = self.deg[v] - 1
        if self._tsum[v] < target:
            return
        alive = self.alive
        dominated = self.dominated
        lo = self.xadj[v]
        hi = self._rend[v]
        for x, count in zip(self.adj[lo:hi], self.tri[lo:hi]):
            if alive[x] and count == target:
                dominated.append(x)

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """Compacted live residual graph plus the id mapping.

        Row ``v``'s live slots end at ``_rend[v]``; the slots past it are
        stale copies left by compaction, masked out by ``rend``.  The ids
        are the input graph's.
        """
        np = _np
        return export_kernel_arrays(
            self.graph,
            np.array(self.adj, dtype=np.int64),
            np.array(self.xadj, dtype=np.int64),
            np.frombuffer(self.alive, dtype=np.uint8),
            np.array(self._rend, dtype=np.int64),
        )
