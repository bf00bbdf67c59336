"""A mutable graph that snapshots into the immutable solver representation.

:class:`~repro.graphs.static_graph.Graph` is deliberately immutable — every
solver in the library assumes frozen CSR buffers.  The serving layer sits in
front of that world: callers register a graph once and then mutate it
between queries (``add_edge`` / ``remove_edge`` / ``add_vertex`` /
``remove_vertex``, or a batched :meth:`DynamicGraph.apply`).

:class:`DynamicGraph` works over a stable *dynamic id* space: ids are never
reused, removed vertices stay allocated-but-dead, and every mutation
reports the set of live vertices whose neighbourhood changed — the **dirty
seeds** that drive localized repair (:mod:`repro.serve.repair`).

Storage is one CSR plus copy-on-write rows.  The *base* is the last
materialised snapshot, an immutable :class:`Graph` whose compact ids map
to dynamic ids through an ascending id array (none while the two agree);
a freshly registered graph is its own base, so registering copies nothing
and the first snapshot is the registered graph.  A write copies only the
rows it touches into an overlay of Python sets.  :meth:`snapshot` splices
the overlay rows into the base's buffers in whole-array passes, and
compacts through :meth:`Graph._induced` only when a vertex died since the
base was built.  The result becomes the new base and the overlay empties,
so repeated warm queries pay nothing beyond a check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
        "_base",
        "_base_ids",
        "_base_span",
        "_rows",
        "_alive",
        "_live",
        "_edges",
        "_liveness_dirty",
        "_fingerprint",
    )

    def __init__(self, graph: Optional[Graph] = None, name: str = "") -> None:
        if graph is None:
            graph = Graph.empty(0)
        self.name = name or graph.name
        #: The last materialised snapshot; its compact id ``i`` is dynamic
        #: id ``_base_ids[i]``, or ``i`` itself while ``_base_ids`` is None.
        self._base = graph if graph.name == self.name else graph.renamed(self.name)
        self._base_ids: Optional["_np.ndarray"] = None
        #: Ids allocated when the base was built; larger ones were born since.
        self._base_span = graph.n
        #: Copy-on-write overlay: the rows (dynamic ids) written since the
        #: base was built, including every vertex born or removed since.
        self._rows: Dict[int, Set[int]] = {}
        self._alive = bytearray(b"\x01") * graph.n
        self._live = graph.n
        self._edges = graph.m
        #: Whether a vertex was born or removed since the base was built.
        self._liveness_dirty = False
        #: Bumped on every effective mutation; the fingerprint cache is
        #: valid only for the version it was computed at.
        self.version = 0
        self._fingerprint: Optional[Tuple[int, str]] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_allocated(self) -> int:
        """Total ids ever allocated (live + dead)."""
        return len(self._alive)

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
        return 0 <= v < len(self._alive) and bool(self._alive[v])

    def live_vertices(self) -> Iterator[int]:
        """Iterate over the live dynamic ids in ascending order."""
        alive = self._alive
        return (v for v in range(len(alive)) if alive[v])

    def degree(self, v: int) -> int:
        """Degree of live vertex ``v``."""
        self._check_live(v)
        row = self._rows.get(v)
        if row is not None:
            return len(row)
        offsets, _ = self._base.flat_csr()
        i = self._compact_id(v)
        return offsets[i + 1] - offsets[i]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted neighbourhood of live vertex ``v`` (dynamic ids)."""
        self._check_live(v)
        row = self._rows.get(v)
        if row is not None:
            return tuple(sorted(row))
        return tuple(self._base_row(v))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` is present."""
        self._check_live(u)
        self._check_live(v)
        return self._has(u, v)

    # ------------------------------------------------------------------
    # Mutations — each returns the set of dirty live seeds
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Allocate a fresh isolated vertex; returns its dynamic id."""
        v = len(self._alive)
        self._alive.append(1)
        self._rows[v] = set()
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
        row = self._rows.get(v)
        dirty = set(row) if row is not None else set(self._base_row(v))
        for w in dirty:
            self._writable(w).discard(v)
        self._edges -= len(dirty)
        self._rows[v] = set()
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
        if self._has(u, v):
            return set()
        self._writable(u).add(v)
        self._writable(v).add(u)
        self._edges += 1
        self._bump()
        return {u, v}

    def remove_edge(self, u: int, v: int) -> Set[int]:
        """Delete the edge ``(u, v)``; no-op (empty dirty set) if absent."""
        self._check_live(u)
        self._check_live(v)
        if not self._has(u, v):
            return set()
        self._writable(u).discard(v)
        self._writable(v).discard(u)
        self._edges -= 1
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
    def _compact(self) -> Tuple[Graph, Optional["_np.ndarray"]]:
        """The current graph as ``(immutable_graph, ids)``.

        ``ids`` is the ascending ``int64`` array with ``ids[compact_id] =
        dynamic_id``, or None when the two agree.  The graph is rebuilt
        only after a mutation; until the next one every call returns the
        same objects.
        """
        if self._rows or self._liveness_dirty:
            self._rebuild()
        return self._base, self._base_ids

    def snapshot(self) -> Tuple[Graph, List[int]]:
        """The current graph as ``(immutable_graph, old_ids)``.

        ``old_ids[compact_id] = dynamic_id``, as a list; :meth:`_compact`
        gives the same map as an array.  The graph is cached until the
        next mutation, so repeated warm queries reuse one compaction.
        """
        graph, ids = self._compact()
        return graph, list(range(graph.n)) if ids is None else ids.tolist()

    def _rebuild(self) -> None:
        """Splice the overlay into the base; compact if a vertex died.

        The rows are first laid out over the *extended* ids: the base's
        dynamic ids, then every id born since, which is ascending in
        dynamic id.  Unchanged rows keep their slots in the same order,
        so one masked gather moves all of them and the overlay rows fill
        the remaining slots.
        """
        np = _np
        base, ids, span = self._base, self._base_ids, self._base_span
        n_allocated = len(self._alive)
        extended = base.n + n_allocated - span
        written = sorted(self._rows)
        rows = [sorted(self._rows[v]) for v in written]
        base_offsets, base_targets = base.flat_csr()
        old_lengths = np.diff(np.frombuffer(base_offsets, dtype=np.int64))
        lengths = np.zeros(extended, dtype=np.int64)
        lengths[: base.n] = old_lengths
        where = self._extended_ids(np.array(written, dtype=np.int64))
        lengths[where] = [len(row) for row in rows]
        offsets = np.zeros(extended + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        rewritten = np.zeros(extended, dtype=bool)
        rewritten[where] = True
        targets = np.empty(int(offsets[-1]), dtype=np.int32)
        fresh = np.repeat(rewritten, lengths)
        if len(base_targets):
            kept = np.repeat(~rewritten[: base.n], old_lengths)
            targets[~fresh] = np.frombuffer(base_targets, dtype=np.int32)[kept]
        targets[fresh] = self._extended_ids(
            np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(fresh.sum()))
        )
        graph = Graph(offsets, targets, name=self.name)
        if self._liveness_dirty:
            # The dynamic id of every extended id, and which died.
            alive = np.frombuffer(self._alive, dtype=np.uint8)
            if ids is not None:
                ids = np.concatenate((ids, np.arange(span, n_allocated, dtype=np.int64)))
                alive = alive[ids]
            dead = alive == 0
            del alive  # no export of the flags may outlive this call
            if dead.any():
                keep = np.flatnonzero(~dead)
                graph = graph._induced(keep, self.name)
                ids = keep if ids is None else ids[keep]
        self._base, self._base_ids, self._base_span = graph, ids, n_allocated
        self._rows = {}
        self._liveness_dirty = False

    def _extended_ids(self, dynamic: "_np.ndarray") -> "_np.ndarray":
        """The extended ids (see :meth:`_rebuild`) of ``int64`` dynamic ids
        that were live at the base or born since."""
        ids, span = self._base_ids, self._base_span
        if ids is None:
            return dynamic
        born = dynamic >= span
        return _np.where(born, dynamic - span + len(ids), _np.searchsorted(ids, dynamic))

    def fingerprint(self) -> str:
        """The structural fingerprint of the current snapshot (cached)."""
        cached = self._fingerprint
        if cached is not None and cached[0] == self.version:
            return cached[1]
        value = graph_fingerprint(self._compact()[0])
        self._fingerprint = (self.version, value)
        return value

    # ------------------------------------------------------------------
    # Serialisation (service snapshots)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """A JSON-serialisable dump preserving the dynamic-id space."""
        np = _np
        graph, ids = self._compact()
        offsets, targets = graph.flat_csr()
        heads = np.repeat(
            np.arange(graph.n, dtype=np.int64),
            np.diff(np.frombuffer(offsets, dtype=np.int64)),
        )
        tails = np.frombuffer(targets, dtype=np.int32) if len(targets) else heads
        upper = heads < tails
        pairs = np.stack((heads[upper], tails[upper].astype(np.int64)), axis=1)
        if ids is not None:
            pairs = ids[pairs]
        return {
            "name": self.name,
            "n_allocated": len(self._alive),
            "alive": [v for v in range(len(self._alive)) if self._alive[v]],
            "edges": pairs.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DynamicGraph":
        """Rebuild a graph dumped with :meth:`to_payload`."""
        np = _np
        n_allocated = int(payload["n_allocated"])  # type: ignore[arg-type]
        alive = bytearray(n_allocated)
        for v in payload.get("alive", []):  # type: ignore[union-attr]
            if not 0 <= int(v) < n_allocated:
                raise ReproError(f"snapshot vertex {v} is outside {n_allocated} ids")
            alive[int(v)] = 1
        edges = np.array(payload.get("edges", []), dtype=np.int64).reshape(-1, 2)
        flags = np.frombuffer(bytes(alive), dtype=np.uint8)
        inside = (edges >= 0) & (edges < n_allocated)
        ends_live = inside.all(axis=1)
        ends_live[ends_live] = (flags[edges[ends_live]] != 0).all(axis=1)
        if not ends_live.all():
            u, v = edges[int(np.argmin(ends_live))].tolist()
            raise ReproError(f"snapshot edge ({u}, {v}) touches a dead vertex")
        graph = Graph.from_edges(n_allocated, edges)
        dynamic = cls(graph, name=str(payload.get("name", "")))
        dynamic._alive = alive
        dynamic._live = int(np.count_nonzero(flags))
        dynamic._liveness_dirty = dynamic._live < n_allocated
        return dynamic

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _compact_id(self, v: int) -> int:
        """The base id of dynamic id ``v`` (live at the base)."""
        ids = self._base_ids
        return v if ids is None else int(_np.searchsorted(ids, v))

    def _base_row(self, v: int) -> Sequence[int]:
        """The row of ``v`` in the base, as ascending dynamic ids; ``v``
        must be live and have no overlay row."""
        offsets, targets = self._base.flat_csr()
        i = self._compact_id(v)
        row = targets[offsets[i] : offsets[i + 1]]
        ids = self._base_ids
        if ids is None or not len(row):
            return row
        return ids[_np.frombuffer(row, dtype=_np.int32)].tolist()

    def _has(self, u: int, v: int) -> bool:
        """Whether live ``u`` and ``v`` are adjacent (binary search in the
        base row when ``u`` has no overlay row)."""
        row = self._rows.get(u)
        if row is not None:
            return v in row
        ids = self._base_ids
        if ids is None:
            target = v
        else:
            target = int(_np.searchsorted(ids, v))
            if target == len(ids) or ids[target] != v:
                return False  # born since the base: in no base row
        offsets, targets = self._base.flat_csr()
        i = self._compact_id(u)
        lo, hi = offsets[i], offsets[i + 1]
        at = bisect_left(targets, target, lo, hi)
        return at < hi and targets[at] == target

    def _writable(self, v: int) -> Set[int]:
        """The overlay row of live ``v``, copied from the base on first write."""
        row = self._rows.get(v)
        if row is None:
            row = self._rows[v] = set(self._base_row(v))
        return row

    def _bump(self) -> None:
        self.version += 1
        self._fingerprint = None

    def _check_live(self, v: int) -> None:
        if not 0 <= v < len(self._alive):
            raise VertexError(v, len(self._alive))
        if not self._alive[v]:
            raise ReproError(f"vertex {v} was removed and its id is retired")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<DynamicGraph{label} n={self.n} m={self.m} v{self.version}>"
