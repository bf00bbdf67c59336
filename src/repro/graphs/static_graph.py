"""Immutable adjacency-array graph — the paper's 2m + n representation.

The paper (Section 2, "Graph Representation") stores every neighbourhood
consecutively in one large array with a per-vertex start pointer, i.e. a CSR
layout using ``2m + n`` integers.  :class:`Graph` mirrors that layout with two
flat lists (``_offsets`` of length ``n + 1`` and ``_targets`` of length
``2m``), which keeps the memory model honest for the paper's space accounting
(see :mod:`repro.analysis.memory`) and makes neighbourhood iteration cheap.

Graphs are simple (no self-loops, no parallel edges) and undirected; every
edge ``(u, v)`` appears in both ``neighbors(u)`` and ``neighbors(v)``.
Instances are immutable: all mutation happens either in
:class:`repro.graphs.builder.GraphBuilder` (construction time) or inside the
per-algorithm workspaces (run time).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as _np

from ..errors import VertexError

__all__ = ["Graph"]

#: Below this vertex count the plain-Python subgraph path wins (numpy call
#: overhead dominates on small graphs).
_SUBGRAPH_NUMPY_CUTOFF = 2048


def _csr_from_edge_array(n: int, edges: "_np.ndarray") -> Tuple["_np.ndarray", "_np.ndarray"]:
    """CSR ``(offsets, targets)`` of an ``(k, 2)`` edge array: drop loops,
    dedupe by one sort over ``min·n + max`` keys, symmetrise, sort rows, and
    count offsets.

    Raises the :class:`VertexError` the builder would raise first.  A
    function of its own so that its sort buffers (several times the size of
    ``targets``) are freed before the caller builds the Python tuples.
    """
    if n < 0:
        raise VertexError(n, 0)
    pairs = edges.astype(_np.int64, copy=False)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        first = int(bad.argmax())
        vertex = int(u[first]) if not 0 <= u[first] < n else int(v[first])
        raise VertexError(vertex, n)
    base = max(n, 1)
    loop_free = u != v
    lo = _np.minimum(u, v)[loop_free]
    hi = _np.maximum(u, v)[loop_free]
    keys = _np.sort(lo * base + hi)
    # Sort-and-mask dedupe: numpy's hashing ``unique`` is far slower here.
    fresh = _np.ones(keys.size, dtype=bool)
    _np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    lo, hi = _np.divmod(keys, base)
    both = _np.concatenate((keys, hi * base + lo))
    both.sort()
    rows, targets = _np.divmod(both, base)
    offsets = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets, targets


class Graph:
    """An immutable, simple, undirected graph in adjacency-array form.

    Parameters
    ----------
    offsets:
        CSR row pointers; ``offsets[v] .. offsets[v + 1]`` delimits the
        neighbourhood of vertex ``v``.  Length ``n + 1``.
    targets:
        Concatenated neighbour lists, each sorted ascending.  Length ``2m``.
    name:
        Optional human-readable name used in reports and benchmarks.

    Use :class:`repro.graphs.builder.GraphBuilder` or
    :meth:`Graph.from_edges` instead of calling this constructor directly;
    both validate and normalise their input, the constructor trusts it.
    """

    __slots__ = ("_offsets", "_targets", "_flat", "name")

    def __init__(self, offsets: Sequence[int], targets: Sequence[int], name: str = "") -> None:
        self._offsets: Tuple[int, ...] = tuple(offsets)
        self._targets: Tuple[int, ...] = tuple(targets)
        self._flat: Optional[Tuple[array, array]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]], name: str = "") -> "Graph":
        """Build a graph on ``n`` vertices from an iterable of edges.

        Self-loops and duplicate edges are silently dropped, matching the
        usual clean-up applied to raw SNAP edge lists.  Vertex ids must lie
        in ``[0, n)``.

        A signed-integer numpy array of shape ``(k, 2)`` is built in
        whole-array passes (see :meth:`_from_edge_array`); any other
        iterable goes through :class:`~repro.graphs.builder.GraphBuilder`.
        Both produce the same graph.
        """
        if (
            isinstance(edges, _np.ndarray)
            and edges.ndim == 2
            and edges.shape[1] == 2
            and _np.issubdtype(edges.dtype, _np.signedinteger)
        ):
            return cls._from_edge_array(n, edges, name)
        # Import here to avoid a circular import at module load time.
        from .builder import GraphBuilder

        builder = GraphBuilder(n, name=name)
        for u, v in edges:
            builder.add_edge(u, v)
        return builder.build()

    @classmethod
    def _from_edge_array(cls, n: int, edges: "_np.ndarray", name: str) -> "Graph":
        """The graph of an ``(k, 2)`` edge array, from :func:`_csr_from_edge_array`."""
        offsets, targets = _csr_from_edge_array(n, edges)
        return cls._from_csr(offsets, targets, name)

    @classmethod
    def _from_csr(cls, offsets: "_np.ndarray", targets: "_np.ndarray", name: str) -> "Graph":
        """The graph of numpy CSR buffers, with its :meth:`flat_csr` cache
        filled from the same buffers, so no flat workspace converts the
        tuples again."""
        # Each vertex id is one shared int object, as in the builder's rows,
        # rather than a fresh object per CSR slot (2m of them).
        vertex_ids = _np.arange(len(offsets) - 1, dtype=_np.int64).astype(object)
        graph = cls(offsets.tolist(), vertex_ids[targets].tolist(), name=name)
        graph._flat = (
            array("q", offsets.tobytes()),
            array("i", targets.astype(_np.int32).tobytes()),
        )
        return graph

    @classmethod
    def empty(cls, n: int, name: str = "") -> "Graph":
        """Return the edgeless graph on ``n`` vertices."""
        return cls([0] * (n + 1), [], name=name)

    def renamed(self, name: str) -> "Graph":
        """A copy of this graph carrying a different display name."""
        return Graph(self._offsets, self._targets, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._offsets) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self._targets) // 2

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return self._offsets[v + 1] - self._offsets[v]

    def degrees(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id."""
        offs = self._offsets
        return [offs[v + 1] - offs[v] for v in range(self.n)]

    def max_degree(self) -> int:
        """Maximum vertex degree Δ (0 for the empty graph)."""
        if self.n == 0:
            return 0
        return max(self.degrees())

    def average_degree(self) -> float:
        """Average degree 2m / n (0.0 for the empty graph)."""
        if self.n == 0:
            return 0.0
        return 2.0 * self.m / self.n

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted neighbourhood N(v) as a tuple."""
        self._check_vertex(v)
        return self._targets[self._offsets[v] : self._offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` is present (binary search, O(log d))."""
        self._check_vertex(u)
        self._check_vertex(v)
        lo, hi = self._offsets[u], self._offsets[u + 1]
        if hi - lo > self._offsets[v + 1] - self._offsets[v]:
            # Search the smaller neighbourhood.
            u, v = v, u
            lo, hi = self._offsets[u], self._offsets[u + 1]
        idx = bisect_left(self._targets, v, lo, hi)
        return idx < hi and self._targets[idx] == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges once each, as ``(u, v)`` with u < v."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        """The vertex id range ``0 .. n-1``."""
        return range(self.n)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, keep: Iterable[int]) -> Tuple["Graph", list[int]]:
        """Induced subgraph on ``keep``.

        Returns ``(subgraph, old_ids)`` where ``old_ids[new_id]`` maps the
        compacted vertex ids of the subgraph back to this graph's ids.
        """
        old_ids = sorted(set(keep))
        if old_ids and not (0 <= old_ids[0] and old_ids[-1] < self.n):
            for v in old_ids:
                self._check_vertex(v)
        name = f"{self.name}[{len(old_ids)}]" if self.name else ""
        if self.n >= _SUBGRAPH_NUMPY_CUTOFF:
            return self._subgraph_numpy(old_ids, name), old_ids
        new_id = {old: new for new, old in enumerate(old_ids)}
        offsets = [0]
        targets: list[int] = []
        for old in old_ids:
            row = [new_id[w] for w in self.neighbors(old) if w in new_id]
            targets.extend(row)
            offsets.append(len(targets))
        return Graph(offsets, targets, name=name), old_ids

    def _subgraph_numpy(self, old_ids: list[int], name: str) -> "Graph":
        """Vectorised induced-subgraph extraction (same output as the
        dict-remap path: kept rows in id order, rows stay sorted because the
        id remap is monotone).  Zero-copy views over the cached
        :meth:`flat_csr` buffers; the result carries its own (see
        :meth:`_from_csr`), and its tuples hold plain ints so downstream
        code never sees numpy scalars."""
        offs_arr, tgts_arr = self.flat_csr()
        offs = _np.frombuffer(offs_arr, dtype=_np.int64)
        tgts = (
            _np.frombuffer(tgts_arr, dtype=_np.int32)
            if len(tgts_arr)
            else _np.zeros(0, dtype=_np.int32)
        )
        n = self.n
        mask = _np.zeros(n, dtype=bool)
        keep_arr = _np.fromiter(old_ids, dtype=_np.int64, count=len(old_ids))
        mask[keep_arr] = True
        new_id = _np.cumsum(mask) - 1
        row_of_slot = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(offs))
        slot_keep = mask[row_of_slot] & mask[tgts]
        kept_targets = new_id[tgts[slot_keep]]
        per_row = _np.bincount(
            new_id[row_of_slot[slot_keep]], minlength=len(old_ids)
        )
        offsets = _np.zeros(len(old_ids) + 1, dtype=_np.int64)
        _np.cumsum(per_row, out=offsets[1:])
        return Graph._from_csr(offsets, kept_targets, name)

    def complement(self) -> "Graph":
        """The complement graph (dense; intended for small graphs only)."""
        offsets = [0]
        targets: list[int] = []
        for u in range(self.n):
            nbrs = set(self.neighbors(u))
            row = [v for v in range(self.n) if v != u and v not in nbrs]
            targets.extend(row)
            offsets.append(len(targets))
        return Graph(offsets, targets, name=f"~{self.name}" if self.name else "")

    def csr_arrays(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:  # reprolint: disable=RL006
        """The raw CSR arrays ``(offsets, targets)`` (read-only tuples).

        Exposed for numeric backends (e.g. building a ``scipy.sparse``
        matrix without re-walking the adjacency).
        """
        return self._offsets, self._targets

    def flat_csr(self) -> Tuple[array, array]:  # reprolint: disable=RL006
        """The CSR layout as flat numeric buffers ``(offsets, targets)``.

        ``offsets`` is an ``array('q')`` of length ``n + 1`` and ``targets``
        an ``array('i')`` of length ``2m`` — exactly the 2m + O(n) words of
        the paper's accounting, with no per-vertex Python list objects.
        The arrays are built once and cached on the graph; they are shared,
        so callers that mutate (the run-time workspaces) must take a copy
        (``targets[:]`` is a C-level memcpy).
        """
        if self._flat is None:
            self._flat = (array("q", self._offsets), array("i", self._targets))
        return self._flat

    def adjacency_lists(self) -> list[list[int]]:
        """A fresh mutable list-of-lists copy of the adjacency structure."""
        return [list(self.neighbors(v)) for v in range(self.n)]

    def adjacency_sets(self) -> list[set[int]]:
        """A fresh mutable list-of-sets copy of the adjacency structure."""
        return [set(self.neighbors(v)) for v in range(self.n)]

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._offsets == other._offsets and self._targets == other._targets

    def __hash__(self) -> int:
        return hash((self._offsets, self._targets))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.m}>"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexError(v, self.n)
