"""Immutable adjacency-array graph — the paper's 2m + n representation.

The paper (Section 2, "Graph Representation") stores every neighbourhood
consecutively in one large array with a per-vertex start pointer, i.e. a CSR
layout using ``2m + n`` integers.  :class:`Graph` *is* that layout: two flat
numeric buffers, an ``array('q')`` of ``n + 1`` row offsets and an
``array('i')`` of ``2m`` concatenated neighbour ids, and nothing else.  The
solvers, the verifier, the LP and the fingerprint read the buffers in place
(:meth:`Graph.flat_csr`), which keeps the memory model honest for the
paper's space accounting (see :mod:`repro.analysis.memory`).

Graphs are simple (no self-loops, no parallel edges) and undirected; every
edge ``(u, v)`` appears in both ``neighbors(u)`` and ``neighbors(v)``.
Instances are immutable: all mutation happens either in
:class:`repro.graphs.builder.GraphBuilder` (construction time) or inside the
per-algorithm workspaces (run time), which copy the buffers they write.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as _np

from ..errors import VertexError
from ..hotpath import hot_loop

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
    ``targets``) are freed before the caller builds the graph's buffers.
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


def _buffer(typecode: str, dtype: type, values: Sequence[int]) -> array:
    """``values`` as an ``array(typecode)``: an array of that typecode as
    is, a numpy array by one cast into an exactly sized array of ``dtype``
    words, any other sequence by one pass."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    if isinstance(values, _np.ndarray):
        buffer = array(typecode, [0]) * len(values)
        _np.frombuffer(buffer, dtype=dtype)[:] = values
        return buffer
    return array(typecode, values)


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

    The graph holds the two buffers of :meth:`flat_csr` and its name, and
    nothing else.  Any integer sequence (list, tuple, numpy array) is
    converted once; an ``array('q')`` / ``array('i')`` is kept as given, so
    the caller must not write into it afterwards.

    Use :class:`repro.graphs.builder.GraphBuilder` or
    :meth:`Graph.from_edges` instead of calling this constructor directly;
    both validate and normalise their input, the constructor trusts it.
    """

    __slots__ = ("_offsets", "_targets", "name")

    def __init__(self, offsets: Sequence[int], targets: Sequence[int], name: str = "") -> None:
        self._offsets = _buffer("q", _np.int64, offsets)
        self._targets = _buffer("i", _np.int32, targets)
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
        whole-array passes (see :func:`_csr_from_edge_array`); any other
        iterable goes through :class:`~repro.graphs.builder.GraphBuilder`.
        Both produce the same graph.
        """
        if (
            isinstance(edges, _np.ndarray)
            and edges.ndim == 2
            and edges.shape[1] == 2
            and _np.issubdtype(edges.dtype, _np.signedinteger)
        ):
            return cls(*_csr_from_edge_array(n, edges), name=name)
        # Import here to avoid a circular import at module load time.
        from .builder import GraphBuilder

        builder = GraphBuilder(n, name=name)
        for u, v in edges:
            builder.add_edge(u, v)
        return builder.build()

    @classmethod
    def empty(cls, n: int, name: str = "") -> "Graph":
        """Return the edgeless graph on ``n`` vertices."""
        return cls([0] * (n + 1), [], name=name)

    def renamed(self, name: str) -> "Graph":
        """A graph carrying a different display name; it shares this
        graph's buffers."""
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
        return _np.diff(_np.frombuffer(self._offsets, dtype=_np.int64)).tolist()

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
        """The sorted neighbourhood N(v) as a tuple of plain ints."""
        self._check_vertex(v)
        return tuple(self._targets[self._offsets[v] : self._offsets[v + 1]])

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
            keep_ids = _np.fromiter(old_ids, dtype=_np.int64, count=len(old_ids))
            return self._induced(keep_ids, name), old_ids
        new_id = {old: new for new, old in enumerate(old_ids)}
        offsets = [0]
        targets: list[int] = []
        for old in old_ids:
            row = [new_id[w] for w in self.neighbors(old) if w in new_id]
            targets.extend(row)
            offsets.append(len(targets))
        return Graph(offsets, targets, name=name), old_ids

    def _induced(
        self, keep_ids: "_np.ndarray", name: str, label: "Optional[_np.ndarray]" = None
    ) -> "Graph":
        """The subgraph induced by the ascending ``int64`` ids ``keep_ids``.

        The same output as the dict-remap path of :meth:`subgraph`: kept
        rows in id order, rows still sorted because the relabel is
        monotone.  ``label`` is the relabel table of
        :meth:`_induced_rows`; without one, a table of n words is filled
        here.  A caller that cuts many pieces closed under adjacency (the
        connected components of one graph) passes one table shared by all
        of them: each vertex's rank inside its own piece."""
        if label is None:
            # One C-level fill of n words; only kept ids get a new id,
            # every other entry stays -1.
            label = _np.full(self.n, -1, dtype=_np.int64)
            label[keep_ids] = _np.arange(len(keep_ids), dtype=_np.int64)
        offsets = _np.zeros(len(keep_ids) + 1, dtype=_np.int64)
        offsets[1:], targets = self._induced_rows(keep_ids, label)
        return Graph(offsets, targets, name=name)

    def _induced_rows(
        self, keep_ids: "_np.ndarray", label: "_np.ndarray"
    ) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """The rows of the ascending ``int64`` ids ``keep_ids``, each cut to
        its kept neighbours, in O(|keep| + the kept rows' slots).

        ``label`` maps every vertex to its id in the result, or to −1 when
        it is not kept.  Returns the running slot count at each kept row's
        end and the labelled targets, rows concatenated in ``keep_ids``
        order and each in its row order."""
        ends, neighbours = self._gather_rows(keep_ids)
        if not len(neighbours):
            return _np.zeros(len(keep_ids), dtype=_np.int64), _np.zeros(0, dtype=_np.int64)
        targets = label[neighbours]
        kept = targets >= 0
        hits = _np.zeros(len(targets) + 1, dtype=_np.int64)
        _np.cumsum(kept, out=hits[1:])
        return hits[ends], targets[kept]

    def _gather_rows(self, ids: "_np.ndarray") -> Tuple["_np.ndarray", "_np.ndarray"]:
        """The rows of the ``int64`` vertex ids ``ids``, concatenated.

        Returns the running slot count at each row's end and the
        ``int32`` neighbour ids, rows in ``ids`` order and each in its
        row order.  Only those rows are read from the buffers, so the
        cost is O(|ids| + their degrees), whatever the graph's size."""
        offs = _np.frombuffer(self._offsets, dtype=_np.int64)
        starts = offs[ids]
        lengths = offs[ids + 1] - starts
        ends = _np.cumsum(lengths)
        total = int(ends[-1]) if len(ends) else 0
        if not total:
            return ends, _np.zeros(0, dtype=_np.int32)
        # Slot j of the gathered rows sits at its row's start plus its
        # place in the row.
        slots = _np.arange(total, dtype=_np.int64)
        slots += _np.repeat(starts - ends + lengths, lengths)
        return ends, _np.frombuffer(self._targets, dtype=_np.int32)[slots]

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

    @hot_loop
    def flat_csr(self) -> Tuple[array, array]:
        """The graph's CSR buffers ``(offsets, targets)``.

        ``offsets`` is an ``array('q')`` of length ``n + 1`` and ``targets``
        an ``array('i')`` of length ``2m`` — exactly the 2m + O(n) words of
        the paper's accounting, with no per-vertex Python list objects.
        They are the graph itself, not a copy, so callers that mutate (the
        run-time workspaces) must take a copy (``targets[:]`` is a C-level
        memcpy).
        """
        return self._offsets, self._targets

    def adjacency_lists(self) -> list[list[int]]:
        """A fresh mutable list-of-lists copy of the adjacency structure."""
        offsets, targets = self._offsets, self._targets.tolist()
        return [targets[offsets[v] : offsets[v + 1]] for v in range(self.n)]

    def adjacency_sets(self) -> list[set[int]]:
        """A fresh mutable list-of-sets copy of the adjacency structure."""
        return [set(row) for row in self.adjacency_lists()]

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._offsets == other._offsets and self._targets == other._targets

    def __hash__(self) -> int:
        return hash((self._offsets.tobytes(), self._targets.tobytes()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.m}>"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexError(v, self.n)
