"""Flat-buffer local-search state — ARW's production backend.

:class:`FlatLocalSearchState` is the flat twin of
:class:`~repro.localsearch.arw.LocalSearchState`: identical public surface
and *identical move sequences* (the differential suite asserts equal
solution-size trajectories under a fixed RNG seed), with the bookkeeping
restructured for throughput:

* adjacency is read straight off the graph's CSR buffers — no
  ``neighbors()`` method call or tuple materialisation per move;
* the (1,2)-swap scan keeps an **incremental 1-tight-neighbour index**:
  ``_one_tight_count[x]`` is the number of 1-tight outside neighbours of
  solution vertex ``x``, maintained O(1) per tightness transition via the
  ``_one_holder`` witness array (``_one_holder[w]`` is the unique solution
  neighbour of a 1-tight vertex ``w``).  Solution vertices with fewer than
  two 1-tight neighbours — the overwhelming majority at a local optimum —
  are skipped without touching their adjacency;
* candidate non-adjacency tests use a shared **timestamped mark array**
  instead of building ``set(neighbors(u))`` per candidate, so the scan
  allocates nothing.

* :meth:`local_search` runs over a **dirty-vertex worklist** instead of
  rescanning all n vertices twice per pass.  :meth:`insert` and
  :meth:`remove` mark a vertex only when its status can have changed: a
  vertex entering the solution, and the new holder of a 2→1 tightness
  transition, are marked for the swap pass (a swap at ``x`` can appear
  only when ``x``'s set of 1-tight neighbours grows); a removed vertex and
  every 1→0 transition are marked for the free-insertion pass.
  Construction marks every vertex, so the first exhaust is a full scan;
  later ones visit the marks in the index order the oracle's ``range(n)``
  scans would reach them, so the move sequence is the oracle's.

* construction is a handful of **whole-array passes** over the graph's
  flat CSR instead of one :meth:`insert` per initial vertex: the
  tightness counters are a ``bincount`` of the slots leaving the initial
  set, and the 1-tight index is read off the slots that reach a 1-tight
  vertex.  ARW builds a state at its start and at every
  restart-from-best.

The only non-O(1) index maintenance is the 2→1 tightness transition on
:meth:`remove`, which rescans the affected neighbourhood to rediscover the
surviving solution neighbour — removals are rare next to swap scans, which
is exactly the trade the index wants.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import NotASolutionError
from ..graphs.static_graph import Graph
from ..hotpath import hot_loop

__all__ = ["FlatLocalSearchState"]


class FlatLocalSearchState:
    """Solution + tightness bookkeeping over flat CSR buffers."""

    __slots__ = (
        "graph",
        "in_solution",
        "tightness",
        "size",
        "_last_outside",
        "xadj",
        "adj",
        "_one_tight_count",
        "_one_holder",
        "_stamp",
        "_clock",
        "_free_marks",
        "_swap_marks",
        "_queued",
    )

    def __init__(self, graph: Graph, initial: Iterable[int]) -> None:
        """The state of solution ``initial`` (duplicates allowed).

        Raises :class:`~repro.errors.NotASolutionError` if ``initial`` is
        not an independent set of ``graph``.
        """
        self.graph = graph
        n = graph.n
        offsets, targets = graph.flat_csr()
        self.xadj = offsets
        self.adj = targets
        flags = np.zeros(n, dtype=np.uint8)
        flags[np.fromiter(initial, dtype=np.int64)] = 1
        rows = np.repeat(
            np.arange(n, dtype=np.int64),
            np.diff(np.frombuffer(offsets, dtype=np.int64)),
        )
        leaving = flags[rows] != 0
        # Slot i of a solution row gives vertex reached[i] one solution
        # neighbour, holders[i].
        holders = rows[leaving]
        if len(targets):
            reached = np.frombuffer(targets, dtype=np.int32)[leaving]
        else:
            reached = np.zeros(0, dtype=np.int32)
        tight = np.bincount(reached, minlength=n)
        clash = np.flatnonzero((flags != 0) & (tight != 0))
        if len(clash):
            raise NotASolutionError(
                f"initial set is not independent: vertex {int(clash[0])} "
                "has a solution neighbour"
            )
        # A 1-tight vertex is reached by exactly one slot, from its holder.
        one = tight[reached] == 1
        holder = np.zeros(n, dtype=np.int64)
        holder[reached[one]] = holders[one]
        self.in_solution = bytearray(flags)
        self.tightness = tight.tolist()
        self.size = int(np.count_nonzero(flags))
        # Perturbation priority: iteration at which a vertex last left the
        # solution (0 = never been inside); int64 words numpy reads in place.
        self._last_outside = array("q", bytes(8 * n))
        self._one_tight_count = np.bincount(holders[one], minlength=n).tolist()
        self._one_holder = holder.tolist()
        self._stamp = [0] * n
        self._clock = 0
        # Worklist: candidates for the next free-insertion pass (may repeat)
        # and for the next swap pass (unique; ``_queued[v]`` = v is pending).
        # Everything starts marked, so the first exhaust scans every vertex.
        self._free_marks = list(range(n))
        self._swap_marks = self._free_marks[:]
        self._queued = bytearray(b"\x01") * n

    # ------------------------------------------------------------------
    # Elementary moves
    # ------------------------------------------------------------------
    @hot_loop
    def insert(self, v: int) -> None:
        """Add ``v`` to the solution (caller guarantees independence)."""
        if self.in_solution[v]:
            return
        if self.tightness[v]:
            raise NotASolutionError(f"vertex {v} has a solution neighbour")
        tight = self.tightness
        holder = self._one_holder
        one_tight = self._one_tight_count
        self.in_solution[v] = 1
        self.size += 1
        xadj = self.xadj
        count = 0
        for w in self.adj[xadj[v] : xadj[v + 1]]:
            t = tight[w] + 1
            tight[w] = t
            if t == 1:
                # w's unique solution neighbour is now v.
                holder[w] = v
                count += 1
            elif t == 2:
                # w stops being 1-tight for its previous holder.
                one_tight[holder[w]] -= 1
        one_tight[v] = count
        queued = self._queued
        if not queued[v]:
            queued[v] = 1
            self._swap_marks.append(v)

    @hot_loop
    def remove(self, v: int, clock: int = 0) -> None:
        """Remove ``v`` from the solution."""
        in_solution = self.in_solution
        if not in_solution[v]:
            return
        tight = self.tightness
        holder = self._one_holder
        one_tight = self._one_tight_count
        adj = self.adj
        xadj = self.xadj
        free_marks = self._free_marks
        swap_marks = self._swap_marks
        queued = self._queued
        in_solution[v] = 0
        self.size -= 1
        self._last_outside[v] = clock
        # v itself is now outside with no solution neighbour.
        free_marks.append(v)
        for w in adj[xadj[v] : xadj[v + 1]]:
            t = tight[w] - 1
            tight[w] = t
            if t == 1:
                # w just became 1-tight: rediscover its surviving solution
                # neighbour (the one transition that costs a row scan).
                for x in adj[xadj[w] : xadj[w + 1]]:
                    if in_solution[x]:
                        holder[w] = x
                        one_tight[x] += 1
                        if not queued[x]:
                            queued[x] = 1
                            swap_marks.append(x)
                        break
            elif t == 0:
                # w was 1-tight held by v itself (v's index dies with it)
                # and is free now.
                free_marks.append(w)

    def force_insert(self, v: int, clock: int = 0) -> None:
        """Insert ``v``, evicting its solution neighbours (perturbation)."""
        if self.in_solution[v]:
            return
        in_solution = self.in_solution
        xadj = self.xadj
        for w in self.adj[xadj[v] : xadj[v + 1]]:
            if in_solution[w]:
                self.remove(w, clock)
        self.insert(v)

    def solution(self) -> Set[int]:
        """The current solution as a set."""
        flags = np.frombuffer(self.in_solution, dtype=np.uint8)
        return set(np.flatnonzero(flags).tolist())

    # ------------------------------------------------------------------
    # Moves of the ARW neighbourhood
    # ------------------------------------------------------------------
    # The comprehension is the C-speed gather idiom, which RL001 would
    # reject under @hot_loop — waived instead of marked.
    def one_tight_neighbors(self, x: int) -> List[int]:  # reprolint: disable=RL006
        """Non-solution neighbours of solution vertex ``x`` blocked only
        by ``x`` itself."""
        in_solution = self.in_solution
        tight = self.tightness
        xadj = self.xadj
        return [
            w
            for w in self.adj[xadj[x] : xadj[x + 1]]
            if not in_solution[w] and tight[w] == 1
        ]

    @hot_loop
    def find_one_two_swap(self, x: int) -> Optional[Tuple[int, int]]:
        """A pair of non-adjacent 1-tight neighbours of ``x``, if any.

        Same pair as the oracle's scan (first ``u`` in adjacency order that
        admits a partner, first such partner), reached faster: the
        1-tight index rejects hopeless ``x`` in O(1) and the stamp array
        replaces the per-candidate neighbour sets.
        """
        if self._one_tight_count[x] < 2:
            return None
        candidates = self.one_tight_neighbors(x)
        adj = self.adj
        xadj = self.xadj
        stamp = self._stamp
        clock = self._clock
        for i in range(len(candidates) - 1):
            u = candidates[i]
            clock += 1
            for y in adj[xadj[u] : xadj[u + 1]]:
                stamp[y] = clock
            for w in candidates[i + 1 :]:
                if stamp[w] != clock:
                    self._clock = clock
                    return u, w
        self._clock = clock
        return None

    def apply_one_two_swap(self, x: int, u: int, w: int) -> None:
        """Execute the swap: drop ``x``, insert ``u`` and ``w``."""
        self.remove(x)
        self.insert(u)
        self.insert(w)

    @hot_loop
    def local_search(self) -> int:
        """Exhaust (1,2)-swaps plus free insertions; returns improvement.

        Same pass structure (and therefore the same move sequence) as the
        oracle, over the marked vertices only.  The free-insertion pass
        walks its marks in sorted order (insertions never free a vertex, so
        no mark arrives mid-pass).  The swap pass pops a min-heap behind a
        cursor ``x``: a mark above ``x`` joins the current pass, one at or
        below it waits for the next round — exactly where a ``range(n)``
        scan would next reach it.  A mark that cannot swap yet (outside
        the solution, fewer than two 1-tight neighbours) is dropped: it is
        marked again if it ever gains a 1-tight neighbour.
        """
        gained = 0
        improved = True
        in_solution = self.in_solution
        tight = self.tightness
        one_tight = self._one_tight_count
        free_marks = self._free_marks
        swap_marks = self._swap_marks
        queued = self._queued
        insert = self.insert
        remove = self.remove
        find_one_two_swap = self.find_one_two_swap
        heap: List[int] = []
        deferred: List[int] = []
        while improved:
            improved = False
            free_marks.sort()
            for v in free_marks:
                # A repeated mark fails the test once v is inserted.
                if not in_solution[v] and not tight[v]:
                    insert(v)
                    gained += 1
                    improved = True
            free_marks.clear()
            for v in swap_marks:
                if in_solution[v] and one_tight[v] >= 2:
                    heap.append(v)
                else:
                    queued[v] = 0
            swap_marks.clear()
            heap.sort()
            while heap:
                x = heappop(heap)
                queued[x] = 0
                if not in_solution[x] or one_tight[x] < 2:
                    continue
                swap = find_one_two_swap(x)
                if swap is None:
                    continue
                remove(x)
                insert(swap[0])
                insert(swap[1])
                gained += 1
                improved = True
                for v in swap_marks:
                    if v <= x:
                        deferred.append(v)
                    elif in_solution[v] and one_tight[v] >= 2:
                        heappush(heap, v)
                    else:
                        queued[v] = 0
                swap_marks.clear()
            swap_marks.extend(deferred)
            deferred.clear()
        return gained
