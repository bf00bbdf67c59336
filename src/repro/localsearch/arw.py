"""The ARW iterated local search (Andrade–Resende–Werneck [2], Section A.5).

Given an initial independent set, ARW alternates

* a **local search** step that exhausts (1,2)-swaps: a solution vertex
  ``x`` is traded for two of its non-adjacent *1-tight* neighbours
  (non-solution vertices whose only solution neighbour is ``x``), growing
  the solution by one; and
* a **perturbation** step that forces ``f`` random outside vertices into
  the solution (``f = i + 1`` with probability ``1/2^i``), evicting their
  solution neighbours, with priority to vertices that have been outside
  the solution longest.

The tightness counters make insertions/deletions O(d(v)).  The oracle
:class:`LocalSearchState` below rescans every vertex per round and finds
a valid (1,2)-swap in O(m), following [2].  The production
:class:`~repro.localsearch.flat_state.FlatLocalSearchState` makes the same
moves but revisits only vertices whose neighbourhood changed, so after the
first exhaust an iteration costs the rows of the vertices it touches plus
one whole-array perturbation: a numpy pass over the solution bytes, one
``rng.random()`` value per outside vertex drawn in C as one block
(:func:`_random_block`), and a selection of the picks from the oldest age
group (no full sort).

:func:`arw` drives the loop under a time budget and reports every
improvement through a :class:`~repro.localsearch.events.ConvergenceRecorder`.
"""

from __future__ import annotations

import random
import time
from array import array
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import NotASolutionError
from ..graphs.static_graph import Graph
from ..obs.telemetry import get_telemetry, phase
from .events import ConvergenceRecorder
from .flat_state import FlatLocalSearchState

__all__ = ["LocalSearchState", "arw"]


class LocalSearchState:
    """Solution + tightness bookkeeping for (1,2)-swap local search."""

    __slots__ = ("graph", "in_solution", "tightness", "size", "_last_outside")

    def __init__(self, graph: Graph, initial: Iterable[int]) -> None:
        self.graph = graph
        self.in_solution = bytearray(graph.n)
        self.tightness = [0] * graph.n
        self.size = 0
        # Perturbation priority: iteration at which a vertex last left the
        # solution (0 = never been inside); int64 words numpy reads in place.
        self._last_outside = array("q", bytes(8 * graph.n))
        for v in initial:
            self.insert(v)

    # ------------------------------------------------------------------
    # Elementary moves
    # ------------------------------------------------------------------
    def insert(self, v: int) -> None:
        """Add ``v`` to the solution (caller guarantees independence)."""
        if self.in_solution[v]:
            return
        if self.tightness[v]:
            raise NotASolutionError(f"vertex {v} has a solution neighbour")
        self.in_solution[v] = 1
        self.size += 1
        for w in self.graph.neighbors(v):
            self.tightness[w] += 1

    def remove(self, v: int, clock: int = 0) -> None:
        """Remove ``v`` from the solution."""
        if not self.in_solution[v]:
            return
        self.in_solution[v] = 0
        self.size -= 1
        self._last_outside[v] = clock
        for w in self.graph.neighbors(v):
            self.tightness[w] -= 1

    def force_insert(self, v: int, clock: int = 0) -> None:
        """Insert ``v``, evicting its solution neighbours (perturbation)."""
        if self.in_solution[v]:
            return
        for w in self.graph.neighbors(v):
            if self.in_solution[w]:
                self.remove(w, clock)
        self.insert(v)

    def solution(self) -> Set[int]:
        """The current solution as a set."""
        return {v for v in range(self.graph.n) if self.in_solution[v]}

    # ------------------------------------------------------------------
    # Moves of the ARW neighbourhood
    # ------------------------------------------------------------------
    def one_tight_neighbors(self, x: int) -> List[int]:
        """Non-solution neighbours of solution vertex ``x`` blocked only
        by ``x`` itself."""
        return [
            w
            for w in self.graph.neighbors(x)
            if not self.in_solution[w] and self.tightness[w] == 1
        ]

    def find_one_two_swap(self, x: int) -> Optional[Tuple[int, int]]:
        """A pair of non-adjacent 1-tight neighbours of ``x``, if any."""
        candidates = self.one_tight_neighbors(x)
        if len(candidates) < 2:
            return None
        for i, u in enumerate(candidates):
            u_neighbours = set(self.graph.neighbors(u))
            for w in candidates[i + 1 :]:
                if w not in u_neighbours:
                    return u, w
            # Every other candidate is adjacent to u: u cannot pair up,
            # but later candidates might pair among themselves.
        return None

    def apply_one_two_swap(self, x: int, u: int, w: int) -> None:
        """Execute the swap: drop ``x``, insert ``u`` and ``w``."""
        self.remove(x)
        self.insert(u)
        self.insert(w)

    def local_search(self) -> int:
        """Exhaust (1,2)-swaps plus free insertions; returns improvement.

        Repeatedly scans solution vertices for a valid swap and inserts
        any 0-tight vertex on the way, until a full pass finds nothing.
        """
        gained = 0
        improved = True
        while improved:
            improved = False
            for v in range(self.graph.n):
                if not self.in_solution[v] and self.tightness[v] == 0:
                    self.insert(v)
                    gained += 1
                    improved = True
            for x in range(self.graph.n):
                if not self.in_solution[x]:
                    continue
                swap = self.find_one_two_swap(x)
                if swap is not None:
                    self.apply_one_two_swap(x, *swap)
                    gained += 1
                    improved = True
        return gained


def _perturbation_strength(rng: random.Random) -> int:
    """f = i + 1 with probability 1/2^i (Section A.5)."""
    strength = 1
    while rng.random() < 0.5:
        strength += 1
    return strength


def _smallest_keys(ages: np.ndarray, draws: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``(age, draw, position)`` keys, in
    key order: ``np.lexsort((draws, ages))[:k]`` found by selection.

    The ``k``-th smallest age splits the keys: every older-than-it key is
    picked, in key order, and the rest of the picks are the smallest draws
    of its tie group.  Most outside vertices share the oldest age, so that
    group usually holds all ``k`` picks; it is tried first, which skips
    the ``np.partition`` over every age.
    """
    if k >= len(ages):
        return np.lexsort((draws, ages))
    tied = np.flatnonzero(ages == ages.min())
    if len(tied) >= k:
        return tied[_smallest_draws(draws[tied], k)]
    kth_age = np.partition(ages, k - 1)[k - 1]
    older = np.flatnonzero(ages < kth_age)
    older = older[np.lexsort((draws[older], ages[older]))]
    tied = np.flatnonzero(ages == kth_age)
    return np.concatenate((older, tied[_smallest_draws(draws[tied], k - len(older))]))


def _smallest_draws(draws: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``(draw, position)`` keys, in key
    order (``1 <= k <= len(draws)``)."""
    if k < len(draws):
        (kept,) = np.nonzero(draws <= np.partition(draws, k - 1)[k - 1])
        return kept[np.argsort(draws[kept], kind="stable")[:k]]
    return np.argsort(draws, kind="stable")


def _random_block(
    rng: random.Random, mirror: np.random.RandomState, count: int
) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, drawn in C.

    ``random.Random`` and NumPy's legacy ``RandomState`` are the same
    MT19937 generator, and both turn two 32-bit outputs into a double by
    the same 53-bit formula (``(a >> 5) * 2**26 + (b >> 6)`` over
    ``2**53``), so loading ``rng``'s key and position into ``mirror``,
    drawing there and writing the advanced key and position back returns
    exactly ``[rng.random() for _ in range(count)]`` and leaves ``rng`` in
    exactly the state that loop would (``gauss_next`` is carried over
    untouched).  Both projects keep these streams stable across releases.
    ``mirror``'s own state is overwritten on every call.
    """
    version, internal, gauss_next = rng.getstate()
    mirror.set_state(("MT19937", internal[:-1], internal[-1]))
    draws = mirror.random_sample(count)
    _, key, position, _, _ = mirror.get_state()
    rng.setstate((version, (*key.tolist(), position), gauss_next))
    return draws


def _perturb(
    state,
    strength: int,
    rng: random.Random,
    mirror: np.random.RandomState,
    clock: int,
) -> bool:
    """Force in the ``strength`` outside vertices least recently inside.

    Ties on age break by one ``rng.random()`` draw per outside vertex, in
    index order, then by index — the keys and draw order of sorting the
    outside list by ``(age, rng.random())``, found with whole-array passes,
    one block of draws (:func:`_random_block` through ``mirror``) and a
    selection (:func:`_smallest_keys`) instead.  Returns ``False`` when no
    vertex is outside.
    """
    outside = np.flatnonzero(np.frombuffer(state.in_solution, dtype=np.uint8) == 0)
    count = len(outside)
    if not count:
        return False
    draws = _random_block(rng, mirror, count)
    ages = np.frombuffer(state._last_outside, dtype=np.int64)[outside]
    for v in outside[_smallest_keys(ages, draws, strength)].tolist():
        state.force_insert(v, clock=clock)
    return True


def arw(
    graph: Graph,
    initial: Iterable[int],
    time_budget: float = 1.0,
    seed: int = 0,
    recorder: Optional[ConvergenceRecorder] = None,
    max_iterations: Optional[int] = None,
    state_factory=None,
    rng: Optional[random.Random] = None,
) -> Tuple[Set[int], ConvergenceRecorder]:
    """Iterated local search from ``initial`` under a wall-clock budget.

    Returns ``(best_solution, recorder)``; the recorder holds the
    ``(t, |I|)`` improvement events.  Deterministic given ``seed`` up to
    wall-clock dependent iteration counts (pass ``max_iterations`` for
    fully reproducible runs).

    ``state_factory`` overrides the search-state constructor (default
    :class:`~repro.localsearch.flat_state.FlatLocalSearchState`; pass
    :class:`LocalSearchState` to pin the legacy oracle — both produce the
    identical move sequence under the same RNG stream, which the
    differential suite asserts).  ``rng`` injects a pre-seeded
    ``random.Random`` and takes precedence over ``seed``; the perturbations
    draw its values in blocks through a ``RandomState`` private to this
    call, which leaves ``rng`` exactly as one ``rng.random()`` call per
    value would.
    """
    if rng is None:
        rng = random.Random(seed)
    # Seeded with a constant (an entropy seed costs more): _random_block
    # overwrites its state before every draw.
    mirror = np.random.RandomState(0)
    if state_factory is None:
        state_factory = FlatLocalSearchState
    telemetry = get_telemetry()  # one global check per run
    # Iterations are far too frequent for per-iteration spans; the loop
    # feeds aggregate (count, total) timers instead, and only the initial
    # exhaustive scan gets a span of its own.
    timer = None if telemetry is None else telemetry.timer
    state = state_factory(graph, initial)
    if recorder is None:
        recorder = ConvergenceRecorder()
    with phase(telemetry, "swap-scan", algorithm="ARW", graph=graph.name) as span:
        state.local_search()
        span.meta["initial_size"] = state.size
    best = state.solution()
    recorder.record(len(best))
    iteration = 0
    while recorder.elapsed < time_budget:
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            break
        if timer is not None:
            tick = time.perf_counter()
        # Perturb: force in the f outside vertices least recently inside.
        strength = _perturbation_strength(rng)
        if not _perturb(state, strength, rng, mirror, iteration):
            break
        if timer is not None:
            now = time.perf_counter()
            timer("perturb", now - tick)
            tick = now
        state.local_search()
        if timer is not None:
            timer("swap-scan", time.perf_counter() - tick)
        if state.size > len(best):
            best = state.solution()
            recorder.record(len(best))
        elif state.size < len(best) - 2:
            # Drifted too far down: restart from the best solution found.
            state = state_factory(graph, best)
    return best, recorder
