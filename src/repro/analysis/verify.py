"""Solution verification: independence, maximality, vertex covers.

Every algorithm's output is checked through these helpers in the test
suite; they are also part of the public API so downstream users can audit
results cheaply (all checks are O(n + m)).

Independence and maximality are whole-array numpy passes over
:meth:`~repro.graphs.static_graph.Graph.flat_csr`: mark the selected
vertices, count each vertex's selected neighbours with one prefix sum over
the marked targets, then test both conditions on the counts.  An ``int``
id outside ``[0, n)`` fails both checks at once.  Ids that are not plain
``int`` take the per-vertex loop, which gives the same answers.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Set, Tuple

import numpy as _np

from ..errors import NotASolutionError
from ..graphs.static_graph import Graph

__all__ = [
    "is_independent_set",
    "is_maximal_independent_set",
    "is_vertex_cover",
    "assert_valid_solution",
    "complement_vertex_cover",
    "greedy_maximal_extension",
]


def _on_array_path(selected: Set[int]) -> bool:
    """Whether the whole-array pass applies: only plain ``int`` ids."""
    return not selected or set(map(type, selected)) == {int}


def _mark(graph: Graph, selected: Set[int]) -> Optional[Tuple[Any, Any]]:
    """``(chosen, covered)`` boolean arrays, or ``None`` for an id outside ``[0, n)``.

    ``chosen[v]`` marks the selected vertices and ``covered[v]`` the
    vertices with at least one selected neighbour.
    """
    n = graph.n
    np = _np
    try:
        ids = np.fromiter(selected, dtype=np.int64, count=len(selected))
    except OverflowError:  # an id beyond int64 is outside [0, n) too
        return None
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        return None
    offsets, targets = graph.flat_csr()
    chosen = np.zeros(n, dtype=bool)
    chosen[ids] = True
    running = np.zeros(len(targets) + 1, dtype=np.int64)
    if len(targets):
        np.cumsum(chosen[np.frombuffer(targets, dtype=np.int32)], out=running[1:])
    xadj = np.frombuffer(offsets, dtype=np.int64)
    covered = running[xadj[1:]] != running[xadj[:-1]]
    return chosen, covered


def _independent_by_loop(graph: Graph, selected: Set[int]) -> bool:
    if any(not 0 <= v < graph.n for v in selected):
        return False
    for v in selected:
        for w in graph.neighbors(v):
            if w in selected:
                return False
    return True


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether ``vertices`` is an independent set of ``graph``."""
    selected = set(vertices)
    if not _on_array_path(selected):
        return _independent_by_loop(graph, selected)
    marked = _mark(graph, selected)
    if marked is None:
        return False
    chosen, covered = marked
    return not bool((chosen & covered).any())


def is_maximal_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether ``vertices`` is independent and inclusion-maximal."""
    selected = set(vertices)
    if _on_array_path(selected):
        marked = _mark(graph, selected)
        if marked is None:
            return False
        chosen, covered = marked
        return not bool((chosen & covered).any()) and bool((chosen | covered).all())
    if not _independent_by_loop(graph, selected):
        return False
    for v in range(graph.n):
        if v not in selected and not any(w in selected for w in graph.neighbors(v)):
            return False
    return True


def is_vertex_cover(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether ``vertices`` covers every edge of ``graph``."""
    selected = set(vertices)
    return all(u in selected or v in selected for u, v in graph.edges())


def assert_valid_solution(graph: Graph, vertices: Iterable[int], maximal: bool = True) -> None:
    """Raise :class:`~repro.errors.NotASolutionError` on an invalid solution."""
    selected = set(vertices)
    if not is_independent_set(graph, selected):
        raise NotASolutionError(f"{sorted(selected)} is not an independent set")
    if maximal and not is_maximal_independent_set(graph, selected):
        raise NotASolutionError(f"{sorted(selected)} is not maximal")


def complement_vertex_cover(graph: Graph, independent_set: Iterable[int]) -> Set[int]:
    """The vertex cover ``V \\ I`` corresponding to an independent set.

    The equivalence the paper leans on throughout: ``I`` is a (maximum)
    independent set iff ``V \\ I`` is a (minimum) vertex cover.
    """
    selected = set(independent_set)
    assert_valid_solution(graph, selected, maximal=False)
    return {v for v in range(graph.n) if v not in selected}


def greedy_maximal_extension(graph: Graph, vertices: Iterable[int]) -> Set[int]:
    """Extend an independent set to a maximal one (first-fit order)."""
    selected = set(vertices)
    assert_valid_solution(graph, selected, maximal=False)
    blocked: List[bool] = [False] * graph.n
    for v in selected:
        blocked[v] = True
        for w in graph.neighbors(v):
            blocked[w] = True
    for v in range(graph.n):
        if not blocked[v]:
            selected.add(v)
            blocked[v] = True
            for w in graph.neighbors(v):
                blocked[w] = True
    return selected
