"""Incremental construction of :class:`~repro.graphs.static_graph.Graph`.

The builder accepts edges in any order, drops self-loops and duplicates, and
emits the immutable adjacency-array representation (simple, undirected,
sorted neighbourhoods).  It is the incremental path for small or streamed
edge sets, and the oracle that :meth:`Graph.from_edges`'s whole-array build
for numpy edge arrays is tested against.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..errors import EdgeError, VertexError
from .static_graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates edges and builds an immutable :class:`Graph`.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids must lie in ``[0, n)``.
    name:
        Name forwarded to the built graph.
    strict:
        When true, adding a self-loop or a duplicate edge raises
        :class:`~repro.errors.EdgeError` instead of being ignored.
    """

    def __init__(self, n: int, name: str = "", strict: bool = False) -> None:
        if n < 0:
            raise VertexError(n, 0)
        self._n = n
        self._name = name
        self._strict = strict
        self._adjacency: list[set[int]] = [set() for _ in range(n)]
        self._m = 0

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of distinct undirected edges added so far."""
        return self._m

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its id."""
        self._adjacency.append(set())
        self._n += 1
        return self._n - 1

    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it was a
        self-loop or duplicate (in non-strict mode).
        """
        self._check(u)
        self._check(v)
        if u == v:
            if self._strict:
                raise EdgeError(f"self-loop at vertex {u}")
            return False
        if v in self._adjacency[u]:
            if self._strict:
                raise EdgeError(f"duplicate edge ({u}, {v})")
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._m += 1
        return True

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many edges; returns the number of new edges actually added."""
        return sum(1 for u, v in edges if self.add_edge(u, v))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` has been added."""
        self._check(u)
        self._check(v)
        return v in self._adjacency[u]

    def build(self) -> Graph:
        """Emit the immutable adjacency-array graph."""
        offsets = [0]
        targets: list[int] = []
        for u in range(self._n):
            row = sorted(self._adjacency[u])
            targets.extend(row)
            offsets.append(len(targets))
        return Graph(offsets, targets, name=self._name)

    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)
