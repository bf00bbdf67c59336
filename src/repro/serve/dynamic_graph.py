"""A mutable graph that snapshots into the immutable solver representation.

:class:`~repro.graphs.static_graph.Graph` is deliberately immutable — every
solver in the library assumes frozen CSR buffers.  The serving layer sits in
front of that world: callers register a graph once and then mutate it
between queries (``add_edge`` / ``remove_edge`` / ``add_vertex`` /
``remove_vertex``, or a batched :meth:`DynamicGraph.apply`).

:class:`DynamicGraph` keeps the mutable adjacency as a list of sets over a
stable *dynamic id* space: ids are never reused, removed vertices stay
allocated-but-dead, and every mutation reports the set of live vertices
whose neighbourhood changed — the **dirty seeds** that drive localized
repair (:mod:`repro.serve.repair`).  :meth:`snapshot` compacts the live
vertices into a fresh immutable :class:`Graph` plus an id map, cached until
the next mutation so repeated warm queries pay nothing beyond a version
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as _np

from ..errors import ReproError, VertexError
from ..graphs.static_graph import Graph
from .fingerprint import graph_fingerprint

__all__ = ["DynamicGraph", "Mutation", "MUTATION_KINDS"]

#: The four mutation verbs, in wire-format spelling.
MUTATION_KINDS = ("add_edge", "remove_edge", "add_vertex", "remove_vertex")


@dataclass(frozen=True)
class Mutation:
    """One graph mutation in wire form.

    ``kind`` is one of :data:`MUTATION_KINDS`; ``u``/``v`` are dynamic
    vertex ids (``add_vertex`` uses neither, ``remove_vertex`` only ``u``).
    """

    kind: str
    u: Optional[int] = None
    v: Optional[int] = None

    def as_list(self) -> List[object]:
        """The JSONL wire encoding: ``["add_edge", u, v]`` etc."""
        if self.kind == "add_vertex":
            return [self.kind]
        if self.kind == "remove_vertex":
            return [self.kind, self.u]
        return [self.kind, self.u, self.v]

    @classmethod
    def from_list(cls, raw: List[object]) -> "Mutation":
        """Parse the wire encoding produced by :meth:`as_list`."""
        if not raw or raw[0] not in MUTATION_KINDS:
            raise ReproError(f"bad mutation {raw!r}; kinds: {MUTATION_KINDS}")
        kind = str(raw[0])
        if kind == "add_vertex":
            return cls(kind)
        if kind == "remove_vertex":
            if len(raw) < 2:
                raise ReproError(f"remove_vertex needs a vertex id, got {raw!r}")
            return cls(kind, int(raw[1]))  # type: ignore[arg-type]
        if len(raw) < 3:
            raise ReproError(f"{kind} needs two vertex ids, got {raw!r}")
        return cls(kind, int(raw[1]), int(raw[2]))  # type: ignore[arg-type]


class DynamicGraph:
    """Mutable, simple, undirected graph over a stable dynamic-id space."""

    __slots__ = (
        "name",
        "version",
        "_adj",
        "_alive",
        "_live",
        "_edges",
        "_snapshot",
        "_fingerprint",
        "_base",
        "_dirty_rows",
        "_liveness_dirty",
    )

    def __init__(self, graph: Optional[Graph] = None, name: str = "") -> None:
        if graph is not None:
            self._adj: List[Set[int]] = graph.adjacency_sets()
            self._alive = bytearray([1]) * graph.n if graph.n else bytearray()
            self._live = graph.n
            self._edges = graph.m
            self.name = name or graph.name
        else:
            self._adj = []
            self._alive = bytearray()
            self._live = 0
            self._edges = 0
            self.name = name
        #: Bumped on every effective mutation; snapshot/fingerprint caches
        #: are valid only for the version they were computed at.
        self.version = 0
        self._snapshot: Optional[Tuple[int, Graph, List[int]]] = None
        self._fingerprint: Optional[Tuple[int, str]] = None
        # Incremental-rebuild state: the last materialised snapshot
        # (graph, old_ids, dynamic->compact map), the dynamic ids whose
        # neighbourhood changed since it was built, and whether the live
        # vertex set itself changed (which invalidates the id map).
        self._base: Optional[Tuple[Graph, List[int], Dict[int, int]]] = None
        self._dirty_rows: Set[int] = set()
        self._liveness_dirty = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_allocated(self) -> int:
        """Total ids ever allocated (live + dead)."""
        return len(self._adj)

    @property
    def n(self) -> int:
        """Number of live vertices."""
        return self._live

    @property
    def m(self) -> int:
        """Number of live undirected edges."""
        return self._edges

    def is_live(self, v: int) -> bool:
        """Whether dynamic id ``v`` is currently a vertex of the graph."""
        return 0 <= v < len(self._adj) and bool(self._alive[v])

    def live_vertices(self) -> Iterator[int]:
        """Iterate over the live dynamic ids in ascending order."""
        alive = self._alive
        return (v for v in range(len(self._adj)) if alive[v])

    def degree(self, v: int) -> int:
        """Degree of live vertex ``v``."""
        self._check_live(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted neighbourhood of live vertex ``v`` (dynamic ids)."""
        self._check_live(v)
        return tuple(sorted(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` is present."""
        self._check_live(u)
        self._check_live(v)
        return v in self._adj[u]

    # ------------------------------------------------------------------
    # Mutations — each returns the set of dirty live seeds
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Allocate a fresh isolated vertex; returns its dynamic id."""
        v = len(self._adj)
        self._adj.append(set())
        self._alive.append(1)
        self._live += 1
        self._liveness_dirty = True
        self._bump()
        return v

    def remove_vertex(self, v: int) -> Set[int]:
        """Delete live vertex ``v`` and its incident edges.

        Returns the former neighbours — the live vertices whose
        neighbourhoods changed.  The id stays allocated and dead; it is
        never reused.
        """
        self._check_live(v)
        dirty = set(self._adj[v])
        for w in dirty:
            self._adj[w].discard(v)
        self._edges -= len(dirty)
        self._adj[v] = set()
        self._alive[v] = 0
        self._live -= 1
        self._liveness_dirty = True
        self._bump()
        return dirty

    def add_edge(self, u: int, v: int) -> Set[int]:
        """Insert the edge ``(u, v)``; no-op (empty dirty set) if present."""
        self._check_live(u)
        self._check_live(v)
        if u == v:
            raise ReproError(f"self-loop ({u}, {v}) not allowed")
        if v in self._adj[u]:
            return set()
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edges += 1
        self._dirty_rows.update((u, v))
        self._bump()
        return {u, v}

    def remove_edge(self, u: int, v: int) -> Set[int]:
        """Delete the edge ``(u, v)``; no-op (empty dirty set) if absent."""
        self._check_live(u)
        self._check_live(v)
        if v not in self._adj[u]:
            return set()
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edges -= 1
        self._dirty_rows.update((u, v))
        self._bump()
        return {u, v}

    def apply(self, mutations: Iterable[Mutation]) -> Set[int]:
        """Apply a mutation batch; returns the union of dirty seeds.

        ``add_vertex`` mutations contribute their new id to the dirty set,
        so a later query knows the newcomer needs a decision.
        """
        dirty: Set[int] = set()
        for mutation in mutations:
            if mutation.kind == "add_vertex":
                dirty.add(self.add_vertex())
            elif mutation.kind == "remove_vertex":
                dirty.discard(mutation.u)  # type: ignore[arg-type]
                dirty |= self.remove_vertex(mutation.u)  # type: ignore[arg-type]
            elif mutation.kind == "add_edge":
                dirty |= self.add_edge(mutation.u, mutation.v)  # type: ignore[arg-type]
            elif mutation.kind == "remove_edge":
                dirty |= self.remove_edge(mutation.u, mutation.v)  # type: ignore[arg-type]
            else:  # pragma: no cover - Mutation.from_list already validates
                raise ReproError(f"unknown mutation kind {mutation.kind!r}")
        return {v for v in dirty if self.is_live(v)}

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Graph, List[int]]:
        """The current graph as ``(immutable_graph, old_ids)``.

        ``old_ids[compact_id] = dynamic_id``; the result is cached until
        the next mutation, so repeated warm queries reuse one compaction.
        When the live vertex set is unchanged since the last build, only
        the mutated rows are re-sorted; every unchanged row is spliced from
        the previous snapshot's buffers in whole-array passes, so an edge
        flip on a large graph costs far less than a full O(n + m)
        recompaction in Python.
        """
        cached = self._snapshot
        if cached is not None and cached[0] == self.version:
            return cached[1], cached[2]
        adj = self._adj
        base = self._base
        if base is not None and not self._liveness_dirty:
            base_graph, old_ids, compact = base
            graph = self._splice(base_graph, old_ids, compact)
        else:
            old_ids = [v for v in range(len(adj)) if self._alive[v]]
            compact = {old: new for new, old in enumerate(old_ids)}
            if len(old_ids) == len(adj):  # every id live: identity map
                rows = [sorted(row) for row in adj]
            else:
                rows = [sorted(compact[w] for w in adj[old]) for old in old_ids]
            offsets = list(accumulate(chain((0,), map(len, rows))))
            graph = Graph(offsets, list(chain.from_iterable(rows)), name=self.name)
        self._base = (graph, old_ids, compact)
        self._dirty_rows = set()
        self._liveness_dirty = False
        self._snapshot = (self.version, graph, old_ids)
        return graph, old_ids

    def _splice(self, base: Graph, old_ids: List[int], compact: Dict[int, int]) -> Graph:
        """``base`` with the rows of :attr:`_dirty_rows` rebuilt from the
        adjacency sets; the vertex set and id map are unchanged."""
        np = _np
        dirty = sorted(compact[v] for v in self._dirty_rows)
        adj = self._adj
        rows = [sorted(compact[w] for w in adj[old_ids[new]]) for new in dirty]
        base_offsets, base_targets = base.flat_csr()
        old_lengths = np.diff(np.frombuffer(base_offsets, dtype=np.int64))
        lengths = old_lengths.copy()
        lengths[dirty] = [len(row) for row in rows]
        offsets = np.zeros(len(old_ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        rewritten = np.zeros(len(old_ids), dtype=bool)
        rewritten[dirty] = True
        # Unchanged rows keep their slots in the same order in both
        # buffers, so one masked gather moves all of them; the dirty rows
        # fill the remaining slots.
        targets = np.empty(int(offsets[-1]), dtype=np.int32)
        fresh = np.repeat(rewritten, lengths)
        kept = np.repeat(~rewritten, old_lengths)
        targets[~fresh] = np.frombuffer(base_targets, dtype=np.int32)[kept]
        targets[fresh] = np.fromiter(
            chain.from_iterable(rows), dtype=np.int32, count=int(lengths[dirty].sum())
        )
        return Graph(offsets, targets, name=self.name)

    def fingerprint(self) -> str:
        """The structural fingerprint of the current snapshot (cached)."""
        cached = self._fingerprint
        if cached is not None and cached[0] == self.version:
            return cached[1]
        graph, _ = self.snapshot()
        value = graph_fingerprint(graph)
        self._fingerprint = (self.version, value)
        return value

    # ------------------------------------------------------------------
    # Serialisation (service snapshots)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """A JSON-serialisable dump preserving the dynamic-id space."""
        return {
            "name": self.name,
            "n_allocated": len(self._adj),
            "alive": [v for v in range(len(self._adj)) if self._alive[v]],
            "edges": [
                [u, v]
                for u in range(len(self._adj))
                if self._alive[u]
                for v in sorted(self._adj[u])
                if u < v
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DynamicGraph":
        """Rebuild a graph dumped with :meth:`to_payload`."""
        dynamic = cls(name=str(payload.get("name", "")))
        n_allocated = int(payload["n_allocated"])  # type: ignore[arg-type]
        alive = {int(v) for v in payload.get("alive", [])}  # type: ignore[union-attr]
        dynamic._adj = [set() for _ in range(n_allocated)]
        dynamic._alive = bytearray(
            1 if v in alive else 0 for v in range(n_allocated)
        )
        dynamic._live = len(alive)
        for u, v in payload.get("edges", []):  # type: ignore[union-attr]
            u, v = int(u), int(v)
            if u not in alive or v not in alive:
                raise ReproError(f"snapshot edge ({u}, {v}) touches a dead vertex")
            dynamic._adj[u].add(v)
            dynamic._adj[v].add(u)
            dynamic._edges += 1
        return dynamic

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        self.version += 1
        self._snapshot = None
        self._fingerprint = None

    def _check_live(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise VertexError(v, len(self._adj))
        if not self._alive[v]:
            raise ReproError(f"vertex {v} was removed and its id is retired")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<DynamicGraph{label} n={self.n} m={self.m} v{self.version}>"
