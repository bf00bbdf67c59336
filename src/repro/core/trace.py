"""Decision logging and solution reconstruction for reducing-peeling runs.

Every algorithm in the framework makes three kinds of *final* decisions while
the graph shrinks (include / exclude / peel) plus two kinds of *deferred*
decisions whose resolution must wait until the rest of the graph is solved:

* **path entries** (Algorithm 4 Line 7) — vertices removed by a degree-two
  path reduction; popped in reverse push order, each is added to the solution
  exactly when none of its original neighbours made it in;
* **fold records** (Lemma 2.2(2) backtrack, Algorithm 3 Line 6) — a folded
  triple ``{u, v, w}`` whose supervertex reuses id ``w``; on replay, ``w`` in
  the solution means ``v`` joins it too, otherwise ``u`` does.

:class:`DecisionLog` records all five in one chronological list; replaying it
backwards resolves the deferred decisions in the correct dependency order,
after which the solution is extended to a maximal independent set
(Algorithm 1 Line 6).
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from ..hotpath import hot_loop

#: Below this many vertices the numpy prefilter in
#: :func:`extend_to_maximal` costs more than the scalar pass it saves.
_EXTEND_VEC_MIN_N = 2048

__all__ = [
    "Checkpoint",
    "DecisionLog",
    "ReplayOutcome",
    "extend_to_maximal",
    "INCLUDE",
    "EXCLUDE",
    "PEEL",
    "PATH",
    "FOLD",
]

#: Entry kinds, public so the specialized flat-buffer drivers can append
#: entries directly (one tuple per decision) instead of paying a method
#: call per reduction; :meth:`DecisionLog.replay` is the only consumer.
INCLUDE = 0
EXCLUDE = 1
PEEL = 2
PATH = 3
FOLD = 4

_INCLUDE = INCLUDE
_EXCLUDE = EXCLUDE
_PEEL = PEEL
_PATH = PATH
_FOLD = FOLD


class ReplayOutcome:
    """The reconstructed solution plus the Theorem-6.1 bookkeeping."""

    __slots__ = ("in_set", "peeled", "surviving_peels")

    def __init__(self, in_set: List[bool], peeled: int, surviving_peels: int) -> None:
        self.in_set = in_set
        self.peeled = peeled
        self.surviving_peels = surviving_peels

    @property
    def vertices(self) -> frozenset:
        """The solution as a frozenset of vertex ids."""
        return frozenset(compress(range(len(self.in_set)), self.in_set))

    @property
    def upper_bound(self) -> int:
        """``|I| + |R|`` — the Theorem-6.1 upper bound on α(G)."""
        return sum(self.in_set) + self.surviving_peels

    @property
    def is_exact(self) -> bool:
        """Whether the solution is certified maximum (``R`` empty)."""
        return self.surviving_peels == 0


def extend_to_maximal(in_set: List[bool], graph: Graph) -> None:
    """Extend ``in_set`` to a maximal independent set, in place.

    Greedy id-order pass over the flat CSR buffers (Algorithm 1 Line 6):
    per-vertex neighbourhood-tuple materialisation would dominate replay on
    large graphs.  This is also where peeled vertices get their chance to
    re-enter the solution and stop counting against the Theorem-6.1 bound.
    """
    offsets, targets = graph.flat_csr()
    if graph.n >= _EXTEND_VEC_MIN_N:
        # Prefilter: any vertex already blocked by the *initial* solution
        # can never enter (the pass only adds vertices), so one bincount
        # sweep removes it from consideration.  Survivors run the exact
        # scalar greedy below against the live ``in_set``, so the result
        # is byte-identical to the pure scan — typically over a scaffold
        # of a few percent of n.
        np = _np
        xadj = np.frombuffer(offsets, dtype=np.int64)
        if len(targets):
            adj = np.frombuffer(targets, dtype=np.int32)
        else:
            adj = np.zeros(0, dtype=np.int32)
        flags = np.frombuffer(bytearray(in_set), dtype=np.uint8)
        slot_rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(xadj))
        blocked = np.bincount(slot_rows[flags[adj] != 0], minlength=graph.n) > 0
        candidates = np.flatnonzero((flags == 0) & ~blocked).tolist()
        for v in candidates:
            for i in range(offsets[v], offsets[v + 1]):
                if in_set[targets[i]]:
                    break
            else:
                in_set[v] = True
        return
    for v in range(graph.n):
        if in_set[v]:
            continue
        for i in range(offsets[v], offsets[v + 1]):
            if in_set[targets[i]]:
                break
        else:
            in_set[v] = True


class DecisionLog:
    """Chronological record of reducing-peeling decisions."""

    __slots__ = ("_entries", "stats")

    def __init__(self) -> None:
        self._entries: List[Tuple[int, Tuple[int, ...]]] = []
        self.stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def include(self, v: int) -> None:
        """Vertex ``v`` is definitively in the independent set."""
        self._entries.append((_INCLUDE, (v,)))

    def exclude(self, v: int) -> None:
        """Vertex ``v`` was removed by an exact rule (not in the set)."""
        self._entries.append((_EXCLUDE, (v,)))

    def peel(self, v: int) -> None:
        """Vertex ``v`` was removed by the inexact (peeling) reduction."""
        self._entries.append((_PEEL, (v,)))

    def push_path(self, v: int, blocker_a: int, blocker_b: int) -> None:
        """Defer vertex ``v`` of a reduced degree-two path (stack entry).

        ``blocker_a`` / ``blocker_b`` are ``v``'s two *live* neighbours at
        removal time (path predecessor/successor or an anchor).  Replay
        adds ``v`` exactly when neither blocker made it into the solution —
        checking the live neighbourhood rather than the full original one
        keeps the Lemma 4.1 alternation exact even after earlier rewirings
        retired some of ``v``'s original edges.
        """
        self._entries.append((_PATH, (v, blocker_a, blocker_b)))

    def fold(self, u: int, v: int, w: int) -> None:
        """Record the folding of degree-two vertex ``u`` with neighbours
        ``v`` and ``w``; the supervertex survives under id ``w``."""
        self._entries.append((_FOLD, (u, v, w)))

    @hot_loop
    def bump(self, rule: str, amount: int = 1) -> None:
        """Increment the application counter for ``rule``."""
        self.stats[rule] = self.stats.get(rule, 0) + amount

    def extend(self, other: "DecisionLog") -> None:
        """Append another log's entries (in the same ids) and merge its stats."""
        self._entries.extend(other._entries)
        for rule, amount in other.stats.items():
            self.bump(rule, amount)

    def extend_mapped(self, other: "DecisionLog", id_map: Sequence[int]) -> None:
        """Append another log's entries with vertex ids translated.

        Used when an algorithm ran on a compacted subgraph: ``id_map[x]``
        is the original id of subgraph vertex ``x``.  Stats are merged.
        """
        append = self._entries.append
        get = id_map.__getitem__
        for kind, data in other._entries:
            if len(data) == 1:
                # Singleton entries dominate; building the pair directly
                # skips a generator + tuple() round-trip per entry.
                append((kind, (get(data[0]),)))
            else:
                append((kind, tuple(map(get, data))))
        for rule, amount in other.stats.items():
            self.bump(rule, amount)

    def copy(self) -> "DecisionLog":
        """An independent copy (entries and stats)."""
        clone = DecisionLog()
        clone._entries = list(self._entries)
        clone.stats = dict(self.stats)
        return clone

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """The raw chronological entry list ``[(kind, vertex-tuple), …]``.

        Exposed for the specialized drivers (which append to it directly in
        their hot loops) and for differential tests that assert two backends
        made byte-identical decision sequences.  Treat as append-only.
        """
        return self._entries

    @property
    def peel_count(self) -> int:
        """How many peel entries were recorded."""
        return sum(1 for kind, _ in self._entries if kind == _PEEL)

    @property
    def alpha_offset(self) -> int:
        """``α(original) − α(residual)``, valid when only exact rules ran.

        Each include contributes 1, each fold contributes 1, and every
        degree-two path application contributes half its pushed vertices
        (case 3 pushes ``|P| − 1`` vertices worth ``(|P| − 1)/2``; cases
        4/5 push ``|P|`` worth ``|P|/2`` — always exactly half).  Peels
        void the equality (they only guarantee ≥), so callers must check
        :attr:`peel_count` is zero before relying on this.
        """
        includes = folds = paths = 0
        for kind, _ in self._entries:
            if kind == _INCLUDE:
                includes += 1
            elif kind == _FOLD:
                folds += 1
            elif kind == _PATH:
                paths += 1
        return includes + folds + paths // 2

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def resolve(self, n: int) -> Tuple[List[bool], List[int]]:
        """Steps 1–2 of replay: commit includes, resolve deferred entries.

        Returns ``(in_set, peeled_vertices)`` *before* maximal extension;
        :func:`repro.obs.instrument.traced_replay` runs this and
        :func:`extend_to_maximal` under separate phases.
        """
        in_set = [False] * n
        peeled_vertices: List[int] = []
        # One forward pass commits includes and collects the (typically
        # few) deferred entries; only those replay backwards — their
        # relative order is chronological, so ``reversed`` sees them in
        # the same order a full backward walk of the log would.
        deferred: List[Tuple[int, Tuple[int, ...]]] = []
        for kind, data in self._entries:
            if kind == _INCLUDE:
                in_set[data[0]] = True
            elif kind == _PEEL:
                peeled_vertices.append(data[0])
            elif kind == _PATH or kind == _FOLD:
                deferred.append((kind, data))
        for kind, data in reversed(deferred):
            if kind == _PATH:
                v, blocker_a, blocker_b = data
                if not in_set[blocker_a] and not in_set[blocker_b]:
                    in_set[v] = True
            else:
                u, v, w = data
                if in_set[w]:
                    in_set[v] = True
                else:
                    in_set[u] = True
        return in_set, peeled_vertices

    def replay(self, graph: Graph, extend_maximal: bool = True) -> ReplayOutcome:
        """Reconstruct the independent set on the *original* graph.

        Processing order (mirrors the paper):

        1. commit all ``include`` decisions;
        2. walk the log backwards resolving path entries and fold records
           (Algorithm 4 Line 7 / Algorithm 3 Line 6);
        3. optionally extend to a maximal independent set, which also gives
           peeled vertices their chance to re-enter (Algorithm 1 Line 6).

        The body is :func:`repro.obs.instrument.traced_replay` with
        telemetry off; the drivers call that directly with their sink.
        """
        from ..obs.instrument import traced_replay

        return traced_replay(self, graph, None, "", extend_maximal)


class Checkpoint(NamedTuple):
    """A reducing-peeling run paused at its first stall (the would-be first
    peel), on the workspace it ran on.

    ``kernel``, ``old_ids`` and ``log`` are the ``*_reduce`` triple: the
    compacted residual graph, ``old_ids[kernel_id] = original_id`` and the
    decisions so far in original ids.  ``resume()`` finishes the run on the
    same workspace (call it at most once) and returns the whole run's log,
    equal to the log of an uninterrupted run; ``log`` is left as it was.
    """

    kernel: Graph
    old_ids: List[int]
    log: DecisionLog
    resume: Callable[[], DecisionLog]
