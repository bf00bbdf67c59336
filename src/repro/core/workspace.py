"""Mutable run-time graph state for the adjacency-array algorithms.

Two interchangeable backends implement the same mutation protocol:

* :class:`ArrayWorkspace` — the original list-of-lists backend, kept as the
  readable correctness oracle.  It mirrors the paper's 2m + O(n) memory
  discipline: the adjacency arrays copied from the input graph never grow —
  vertices are *marked* deleted (Section 3.2, "Implementation Details") and
  the degree-two path reductions mutate adjacency entries in place instead
  of inserting edges (Section 4, "Analysis and Implementation Details").
* :class:`FlatWorkspace` — the production backend: one flat ``int32``
  buffer of adjacency targets indexed by the graph's CSR offsets, flat
  degree and alive buffers, incrementally maintained live-vertex/live-edge
  counters, and a per-vertex position hint that makes repeated rewiring of
  the same slot O(1).  Construction is a C-level buffer copy instead of
  ``n`` list allocations.  This is the layout the paper itself describes
  (Section 2).  The buffers are numpy arrays, read by the scalar code
  through ``memoryview`` aliases and by the batched degree-one rounds
  (:func:`_degree_one_rounds`) as whole arrays.

Both workspaces own the degree-one / degree-two worklists (``V₌₁`` / ``V₌₂``
in the pseudocode), the lazy max-degree selector used by peeling, and the
:class:`~repro.core.trace.DecisionLog` that later reconstructs the solution.
Worklists are lazy stacks: vertices are pushed whenever their degree *reaches*
the target value and validated on pop, so each vertex may appear several
times but total queue traffic is bounded by the number of degree decrements,
i.e. O(m).

Given the same graph, the two backends make **identical decision sequences**:
adjacency rows start in the same (sorted) order, rewiring replaces the same
(unique) entry, and deletions re-file neighbours in the same order — a
property the differential test suite asserts log-for-log.  (The fused flat
drivers batch a degree-one worklist of at least :data:`BATCH_MIN_FRONTIER`
vertices, which can reorder decisions; below that width the logs stay
identical.)
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from .bucket_queue import MaxDegreeSelector
from .degree_two_paths import rewire_slot
from ..hotpath import hot_loop
from .trace import EXCLUDE, INCLUDE, DecisionLog

__all__ = ["ArrayWorkspace", "BATCH_MIN_FRONTIER", "FlatWorkspace", "compact_remap"]

#: Frontier width at which the fused flat LinearTime/BDOne drivers hand a
#: degree-one round to :func:`_degree_one_rounds`, and below which they
#: return to their scalar LIFO loop.  Every batched round pays a fixed
#: numpy cost, which a wide frontier amortises and a narrow one does not
#: (``docs/performance.md`` § "Per-round batching in the default driver"
#: gives the frontier widths behind the value).
BATCH_MIN_FRONTIER = 1024


@hot_loop
def push_entries(
    entries: List[Tuple[int, Tuple[int, ...]]], kind: int, batch: Any
) -> None:
    """Append one ``(kind, (v,))`` record per member of a numpy index array.

    ``tolist()`` converts once at C speed so the log holds pure Python ints
    (the JSON snapshot path and the differential tests both require that).
    The ``zip``/``repeat`` pairing builds every ``(kind, (v,))`` tuple in
    C — at tens of thousands of entries per sweep the interpreted genexp
    equivalent is a measurable slice of the whole sweep.  Kept outside the
    sweep kernels so they stay comprehension-free (RL001).
    """
    entries.extend(zip(repeat(kind), zip(batch.tolist())))


def numpy_buffers(
    graph: Graph, track_degree_two: bool
) -> Tuple[Any, Any, Any, Any, List[int], List[int], Any]:
    """Fresh numpy workspace buffers of ``graph`` and their starting worklists.

    Returns ``(adj, xadj, deg, alive, v1, v2, zeros)``: a mutable ``int32``
    copy of the CSR targets, an ``int64`` view of the offsets, ``int32``
    degrees and ``uint8`` alive flags; the ascending degree-one and (when
    tracked) degree-two vertices; and the isolated vertices, already
    marked dead, for the caller to log as inclusions.  One whole-array
    pass, in the order :class:`ArrayWorkspace`'s classification loop files
    them.
    """
    np = _np
    offsets, targets = graph.flat_csr()
    if graph.n:
        xadj = np.frombuffer(offsets, dtype=np.int64)
    else:
        xadj = np.zeros(1, dtype=np.int64)
    if len(targets):
        adj = np.frombuffer(targets, dtype=np.int32).copy()
    else:
        adj = np.zeros(0, dtype=np.int32)
    deg = np.diff(xadj).astype(np.int32)
    alive = np.ones(graph.n, dtype=np.uint8)
    zeros = np.flatnonzero(deg == 0)
    alive[zeros] = 0
    v1: List[int] = np.flatnonzero(deg == 1).tolist()
    v2: List[int] = np.flatnonzero(deg == 2).tolist() if track_degree_two else []
    return adj, xadj, deg, alive, v1, v2, zeros


def export_kernel_arrays(
    graph: Graph, adj: Any, xadj: Any, alive: Any, rend: Any = None
) -> Tuple[Graph, List[int]]:
    """The live residual graph of numpy workspace buffers, compacted.

    One vectorized pass: live slots are selected with a boolean mask (row
    and target both alive, and the slot below ``rend[row]`` when a row end
    array is given), remapped through the cumulative-sum id map and sorted
    per row by one sort of the int64 keys ``row·k + target`` (the rows are
    already non-decreasing) — the same sorted-row kernel and ``old_ids``
    list :meth:`ArrayWorkspace.export_kernel` builds.
    """
    np = _np
    n = graph.n
    alive_mask = alive != 0
    old_ids: List[int] = np.flatnonzero(alive_mask).tolist()
    name = f"{graph.name}-kernel" if graph.name else "kernel"
    if not old_ids:
        return Graph([0], [], name=name), old_ids
    k = len(old_ids)
    remap = np.cumsum(alive_mask.astype(np.int64)) - 1
    slot_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    live_slots = alive_mask[adj] & alive_mask[slot_rows]
    if rend is not None:
        live_slots &= np.arange(len(adj), dtype=np.int64) < rend[slot_rows]
    rows = remap[slot_rows[live_slots]]
    base = rows * k
    keys = remap[adj[live_slots]] + base
    keys.sort()
    keys -= base
    counts = np.bincount(rows, minlength=k)
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(offsets, keys, name=name), old_ids


@hot_loop
def _degree_one_rounds(
    adj: Any,
    xadj: Any,
    deg: Any,
    alive: Any,
    v1: List[int],
    v2: List[int],
    track2: bool,
    entries: List[Tuple[int, Tuple[int, ...]]],
    min_width: int,
) -> Tuple[int, int, int, int]:
    """Drain the degree-one frontier in vectorized rounds.

    Works on a :class:`FlatWorkspace`'s numpy buffers (``arrays``:
    ``adj``/``xadj``/``deg``/``alive``), its scalar ``v1``/``v2``
    worklists (``v2`` is fed only when ``track2``) and its decision-log
    ``entries``.  Merges ``v1`` into the pending frontier, then repeats:
    validate & de-duplicate the frontier, gather every member's sole live
    neighbour in one ragged segment gather, resolve the batch (K₂ pairs
    keep the larger id — the flat LIFO pop's choice — and every other
    target is excluded), mark the dying wave dead *before* gathering its
    rows (so intra-batch edges drop out), decrement the surviving
    neighbours with one scatter, and classify the crossings (0 → include,
    1 → next frontier, 2 → V₌₂).  A round may exclude a different, equally
    valid set of vertices than the scalar loop would.

    A validated frontier narrower than ``min_width`` is handed back to
    ``v1`` (ascending) unresolved, so a caller with a scalar loop can take
    over once batching no longer pays.

    Returns ``(excluded, rounds, nlive_drop, deg_sum_drop)``: the number of
    degree-one applications (one per excluded vertex, matching the flat
    driver's counter), the number of resolved rounds, and the drops of the
    live-vertex count and the live degree sum, which the caller applies to
    its counters.
    """
    np = _np
    np_unique = np.unique
    np_concatenate = np.concatenate
    np_asarray = np.asarray
    np_repeat = np.repeat
    np_arange = np.arange
    np_cumsum = np.cumsum
    np_empty = np.empty
    np_bincount = np.bincount
    np_flatnonzero = np.flatnonzero
    np_subtract = np.subtract
    subtract_at = np.subtract.at
    int32 = np.int32
    int64 = np.int64
    n = int(alive.size)
    v2_extend = v2.extend
    v1_extend = v1.extend
    pending = np_empty(0, dtype=int32)
    excluded = 0
    rounds = 0
    nlive_drop = 0
    deg_sum_drop = 0
    while True:
        if v1:
            # The scalar worklist may hold duplicates and already-settled
            # vertices; merging forces a de-dup.  Between rounds nothing
            # touches ``v1``, and the round's own product
            # (``affected[new_deg == 1]``) is sorted-unique by
            # construction, so this branch runs once per sweep in the
            # common case — ``np.unique`` stays off the per-round path.
            pending = np_unique(
                np_concatenate((pending, np_asarray(v1, dtype=int32)))
            )
            v1.clear()
        if pending.size == 0:
            break
        frontier = pending[(alive[pending] != 0) & (deg[pending] == 1)]
        pending = np_empty(0, dtype=int32)
        fsize = int(frontier.size)
        if fsize == 0:
            continue
        if fsize < min_width:
            v1_extend(frontier.tolist())
            break
        rounds += 1
        # -- sole live neighbour per frontier vertex (ragged gather) ----
        starts = xadj[frontier]
        lens = xadj[frontier + 1] - starts
        total = int(lens.sum())
        seg_ends = np_cumsum(lens)
        pos = np_arange(total, dtype=int64) - np_repeat(seg_ends - lens, lens)
        pos += np_repeat(starts, lens)
        nbrs = adj[pos]
        live_slots = alive[nbrs] != 0
        seg = np_repeat(np_arange(fsize, dtype=int64), lens)
        target = np_empty(fsize, dtype=int32)
        target[seg[live_slots]] = nbrs[live_slots]
        # -- split mutual K₂ pairs from ordinary targets ----------------
        pair = deg[target] == 1
        pair_u = frontier[pair]
        pair_v = target[pair]
        win = pair_u > pair_v
        included_pair = pair_u[win]
        dying = np_unique(np_concatenate((target[~pair], pair_v[win])))
        # -- mark the wave dead, then decrement the survivors -----------
        d_dying = int(deg[dying].sum()) + int(included_pair.size)
        alive[dying] = 0
        alive[included_pair] = 0
        nlive_drop += int(dying.size) + int(included_pair.size)
        starts = xadj[dying]
        lens = xadj[dying + 1] - starts
        total = int(lens.sum())
        seg_ends = np_cumsum(lens)
        pos = np_arange(total, dtype=int64) - np_repeat(seg_ends - lens, lens)
        pos += np_repeat(starts, lens)
        touched = adj[pos]
        touched = touched[alive[touched] != 0]
        tsize = int(touched.size)
        deg_sum_drop += d_dying + tsize
        # -- decrement the survivors & classify the crossings -----------
        # Two strategies with the same result: a dense bincount (O(n) per
        # round, one pass, no sort) when the round touches a sizable slice
        # of the graph, and sparse ``np.subtract.at`` + ``np.unique``
        # (O(t log t), no O(n) term) for tiny rounds — long chains produce
        # O(n) one-vertex rounds, where a dense pass per round would be
        # quadratic.
        if tsize * 8 >= n:
            delta = np_bincount(touched, minlength=n)
            np_subtract(deg, delta, out=deg, casting="unsafe")
            affected = np_flatnonzero(delta)
        else:
            subtract_at(deg, touched, 1)
            affected = np_unique(touched)
        new_deg = deg[affected]
        crossed_zero = affected[new_deg == 0]
        alive[crossed_zero] = 0
        nlive_drop += int(crossed_zero.size)
        push_entries(entries, EXCLUDE, dying)
        push_entries(entries, INCLUDE, included_pair)
        push_entries(entries, INCLUDE, crossed_zero)
        excluded += int(dying.size)
        if track2:
            v2_extend(affected[new_deg == 2].tolist())
        pending = affected[new_deg == 1]
    return excluded, rounds, nlive_drop, deg_sum_drop


def compact_remap(alive: Sequence[int], n: int) -> Tuple[array, List[int]]:
    """Flat old→new id map over the live vertices.

    Returns ``(remap, old_ids)`` where ``remap`` is an ``array('i')`` of
    length ``n`` holding the compacted new id of every live vertex (dead
    vertices map to ``-1``) and ``old_ids[new] = old``.  Shared by every
    workspace's ``export_kernel`` so kernel compaction needs no ``{old:
    new}`` dict of boxed pairs.
    """
    remap = array("i", bytes(4 * n))  # zero-filled
    old_ids: List[int] = []
    append = old_ids.append
    new = 0
    for v in range(n):
        if alive[v]:
            remap[v] = new
            append(v)
            new += 1
        else:
            remap[v] = -1
    return remap, old_ids


class ArrayWorkspace:
    """Deletion-tolerant adjacency-array state shared by BDOne/LinearTime."""

    __slots__ = (
        "graph",
        "n",
        "adj",
        "deg",
        "alive",
        "log",
        "v1",
        "v2",
        "_selector",
        "_nlive",
        "_live_deg_sum",
    )

    def __init__(self, graph: Graph, track_degree_two: bool = False) -> None:
        self.graph = graph
        self.n = graph.n
        self.adj: List[List[int]] = graph.adjacency_lists()
        self.deg: List[int] = graph.degrees()
        self.alive = bytearray([1]) * graph.n if graph.n else bytearray()
        self.log = DecisionLog()
        self.v1: List[int] = []
        self.v2: List[int] = []
        self._selector: Optional[MaxDegreeSelector] = None
        self._nlive = self.n
        self._live_deg_sum = 2 * graph.m
        for v in range(self.n):
            d = self.deg[v]
            if d == 0:
                self.alive[v] = 0
                self._nlive -= 1
                self.log.include(v)
            elif d == 1:
                self.v1.append(v)
            elif d == 2 and track_degree_two:
                self.v2.append(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices)."""
        alive = self.alive
        return [w for w in self.adj[v] if alive[w]]

    def iter_live_neighbors(self, v: int) -> List[int]:
        """Generator over current neighbours of ``v``."""
        alive = self.alive
        return (w for w in self.adj[v] if alive[w])

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists.

        Scans the smaller current neighbourhood, as the paper does instead
        of hashing all edges (Section 4, implementation details).
        """
        if self.deg[u] > self.deg[v]:
            u, v = v, u
        alive = self.alive
        for w in self.adj[u]:
            if w == v and alive[w]:
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
    # Mutations
    # ------------------------------------------------------------------
    def pop_degree_one(self) -> Optional[int]:
        """Pop a validated degree-one vertex, or ``None`` if V₌₁ is empty."""
        while self.v1:
            v = self.v1.pop()
            if self.alive[v] and self.deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None`` if V₌₂ is empty."""
        while self.v2:
            v = self.v2.pop()
            if self.alive[v] and self.deg[v] == 2:
                return v
        return None

    def include(self, v: int) -> None:
        """Commit ``v`` (degree zero) to the independent set."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    def delete_vertex(self, v: int, reason: str = "exclude") -> None:
        """Remove ``v`` and its edges; ``reason`` is ``exclude`` or ``peel``.

        Mirrors the paper's ``DeleteVertex``: each live neighbour's degree
        drops and the neighbour is re-filed into the appropriate worklist
        (or committed to the solution at degree zero).
        """
        alive = self.alive
        deg = self.deg
        alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= deg[v]
        if reason == "peel":
            self.log.peel(v)
        else:
            self.log.exclude(v)
        for w in self.adj[v]:
            if alive[w]:
                deg[w] -= 1
                self._live_deg_sum -= 1
                self._refile(w)

    def remove_silently(self, v: int) -> None:
        """Mark ``v`` dead without logging or touching neighbour degrees.

        Used by the path reductions for interior path vertices whose fate
        is deferred to the reconstruction stack; callers are responsible
        for fixing the degrees of the surviving endpoints.
        """
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``adj[v]``.

        This is the in-place edge modification of Section 4 that lets
        LinearTime "add" the edges of Figures 4(c)/4(e) without growing
        any adjacency array.
        """
        row = self.adj[v]
        row[row.index(old)] = new

    def settle_new_edge(self, a: int, b: int) -> None:
        """No-op hook: the array workspace keeps no per-edge metadata.

        The triangle workspace overrides this to recompute δ(a, b) after a
        Figure 4(e) rewiring; having the hook here lets both workspaces
        share the Lemma 4.1 driver.
        """

    def decrement_degree(self, v: int) -> None:
        """Drop ``deg(v)`` by one and re-file ``v`` (endpoint bookkeeping)."""
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)

    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    # ------------------------------------------------------------------
    # Peeling support
    # ------------------------------------------------------------------
    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue; O(m) total)."""
        if self._selector is None:
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """The live residual graph, compacted, plus the id mapping.

        Returns ``(kernel, old_ids)`` with ``old_ids[new] = original id``.
        Used when an algorithm stops right before its first peel to hand
        the kernel to a downstream solver (Section 6).
        """
        alive = self.alive
        remap, old_ids = compact_remap(alive, self.n)
        offsets = [0]
        targets: List[int] = []
        for old in old_ids:
            row = sorted(remap[w] for w in self.adj[old] if alive[w])
            targets.extend(row)
            offsets.append(len(targets))
        name = f"{self.graph.name}-kernel" if self.graph.name else "kernel"
        return Graph(offsets, targets, name=name), old_ids


class FlatWorkspace:
    """Flat-buffer CSR workspace — the cache-friendly production backend.

    Public surface and decision behaviour are identical to
    :class:`ArrayWorkspace`; the representation differs:

    ``adj``
        Every adjacency entry in one flat ``int32`` buffer, a mutable copy
        of the graph's CSR target buffer (2m words).
    ``xadj``
        The graph's CSR offsets (``array('q')``, shared read-only);
        vertex ``v``'s entries live at ``adj[xadj[v] : xadj[v + 1]]``.
    ``deg`` / ``alive``
        Flat ``int32`` / ``uint8`` buffers (O(n) words).
    ``arrays``
        The ``(adj, xadj, deg, alive)`` numpy arrays (``int32``, ``int64``,
        ``int32``, ``uint8``); ``adj``/``deg``/``alive`` above are
        ``memoryview`` aliases of the same memory, which index at
        ``array('i')`` speed and yield plain ints.

    Live-vertex and live-edge counts are maintained incrementally on every
    mutation, so kernel snapshots and progress reporting are O(1) instead
    of an O(n) rescan.  ``rewire`` keeps a per-vertex position hint: the
    Lemma 4.1 rewirings repeatedly retarget the *same* adjacency slot of a
    path anchor, so the hint turns the entry search into O(1) amortised.
    ``_rounds`` counts the batched degree-one rounds the fused drivers ran.
    """

    __slots__ = (
        "graph",
        "n",
        "adj",
        "xadj",
        "deg",
        "alive",
        "arrays",
        "log",
        "v1",
        "v2",
        "_selector",
        "_hint",
        "_nlive",
        "_live_deg_sum",
        "_rounds",
    )

    def __init__(self, graph: Graph, track_degree_two: bool = False) -> None:
        self.graph = graph
        n = self.n = graph.n
        offsets = self.xadj = graph.flat_csr()[0]
        np_adj, np_xadj, np_deg, np_alive, v1, v2, zeros = numpy_buffers(
            graph, track_degree_two
        )
        self.arrays: Tuple[Any, Any, Any, Any] = (np_adj, np_xadj, np_deg, np_alive)
        self.adj: Any = memoryview(np_adj)
        self.deg: Any = memoryview(np_deg)
        self.alive: Any = memoryview(np_alive)
        self.log = DecisionLog()
        self.v1: List[int] = v1
        self.v2: List[int] = v2
        self._selector: Optional[MaxDegreeSelector] = None
        self._hint = array("q", offsets[:-1]) if n else array("q")
        self._nlive = n - len(zeros)
        self._live_deg_sum = len(np_adj)
        self._rounds = 0
        push_entries(self.log.entries, INCLUDE, zeros)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices)."""
        alive = self.alive
        xadj = self.xadj
        return [w for w in self.adj[xadj[v] : xadj[v + 1]] if alive[w]]

    def iter_live_neighbors(self, v: int) -> List[int]:
        """Current neighbours of ``v`` (an iterable; eagerly materialised —
        a list comprehension over the row slice beats generator resumption
        on short rows).  The generic loops and the shared Lemma 4.1 driver
        read it; the fused drivers scan the rows themselves."""
        alive = self.alive
        xadj = self.xadj
        return [w for w in self.adj[xadj[v] : xadj[v + 1]] if alive[w]]

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists (scan the smaller side)."""
        deg = self.deg
        if deg[u] > deg[v]:
            u, v = v, u
        if not self.alive[v]:
            return False
        xadj = self.xadj
        return v in self.adj[xadj[u] : xadj[u + 1]]

    @property
    def live_vertex_count(self) -> int:
        """Number of not-yet-deleted vertices (O(1), counter-maintained)."""
        return self._nlive

    def live_edge_count(self) -> int:
        """Number of live edges (O(1), counter-maintained)."""
        return self._live_deg_sum // 2

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def pop_degree_one(self) -> Optional[int]:
        """Pop a validated degree-one vertex, or ``None`` if V₌₁ is empty."""
        alive = self.alive
        deg = self.deg
        v1 = self.v1
        while v1:
            v = v1.pop()
            if alive[v] and deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None`` if V₌₂ is empty."""
        alive = self.alive
        deg = self.deg
        v2 = self.v2
        while v2:
            v = v2.pop()
            if alive[v] and deg[v] == 2:
                return v
        return None

    @hot_loop
    def include(self, v: int) -> None:
        """Commit ``v`` (degree zero) to the independent set."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    def delete_vertex(self, v: int, reason: str = "exclude") -> None:
        """Remove ``v`` and its edges (degree drop + re-file per neighbour)."""
        alive = self.alive
        deg = self.deg
        adj = self.adj
        xadj = self.xadj
        alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= deg[v]
        if reason == "peel":
            self.log.peel(v)
        else:
            self.log.exclude(v)
        v1_append = self.v1.append
        v2_append = self.v2.append
        removed = 0
        for w in adj[xadj[v] : xadj[v + 1]]:
            if alive[w]:
                removed += 1
                d = deg[w] - 1
                deg[w] = d
                if d == 1:
                    v1_append(w)
                elif d == 2:
                    v2_append(w)
                elif d == 0:
                    alive[w] = 0
                    self._nlive -= 1
                    self.log.include(w)
        self._live_deg_sum -= removed

    def remove_silently(self, v: int) -> None:
        """Mark ``v`` dead without logging or touching neighbour degrees."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``v``'s row.

        The search starts at the per-vertex hint
        (:func:`~repro.core.degree_two_paths.rewire_slot`).
        """
        xadj = self.xadj
        rewire_slot(self.adj, self._hint, v, xadj[v], xadj[v + 1], old, new)

    def settle_new_edge(self, a: int, b: int) -> None:
        """No-op hook: the flat workspace keeps no per-edge metadata."""

    @hot_loop
    def decrement_degree(self, v: int) -> None:
        """Drop ``deg(v)`` by one and re-file ``v`` (endpoint bookkeeping)."""
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)

    @hot_loop
    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    # ------------------------------------------------------------------
    # Peeling support
    # ------------------------------------------------------------------
    @hot_loop
    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue; O(m) total).

        Short-circuits when the graph is already consumed — the common
        case for LinearTime on sparse inputs, where building the selector
        would be the only O(n) scan left in the run.
        """
        if self._selector is None:
            if self._nlive == 0:
                return None
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """The live residual graph, compacted, plus the id mapping."""
        adj, xadj, _, alive = self.arrays
        return export_kernel_arrays(self.graph, adj, xadj, alive)
