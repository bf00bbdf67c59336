"""Memory accounting: the paper's word-count model plus live measurement.

Table 1 gives each algorithm's space complexity in *words* (integers):

* BDOne / LinearTime — ``2m + O(n)``: the static adjacency array plus a
  constant number of n-sized arrays (degrees, flags, worklists, the
  singly-linked lazy bucket structure);
* NearLinear — ``4m + O(n)``: adjacency plus one triangle count per
  directed edge;
* BDTwo — ``6m + O(n)``: doubly-linked adjacency lists with mutual
  references (three words per directed edge).

The paper measured resident memory with ``memusage``; in Python the
per-object overhead would drown the structural signal, so
:func:`model_words` reports the paper's structural word counts (preserving
the 3× BDTwo-vs-rest ratio, which is a data-structure property) and
:func:`measure_peak_bytes` offers a tracemalloc-based live measurement for
anyone who wants raw interpreter numbers (through
:class:`~repro.obs.memory.MemoryProbe`, so it nests inside an enclosing
trace).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..errors import ReproError
from ..graphs.static_graph import Graph

__all__ = ["MODEL_WORDS_PER_EDGE", "model_words", "measure_peak_bytes"]

#: Words of edge storage per *undirected* edge, per algorithm (Table 1).
MODEL_WORDS_PER_EDGE: Dict[str, int] = {
    "Greedy": 2,
    "DU": 2,
    "SemiE": 2,
    "BDOne": 2,
    "LinearTime": 2,
    "NearLinear": 4,
    "BDTwo": 6,
}

#: n-sized auxiliary arrays each algorithm keeps (degree, flags, queues…).
_MODEL_WORDS_PER_VERTEX: Dict[str, int] = {
    "Greedy": 3,
    "DU": 4,
    "SemiE": 5,
    "BDOne": 5,
    "LinearTime": 6,
    "NearLinear": 7,
    "BDTwo": 6,
}


def model_words(algorithm: str, graph: Graph) -> int:
    """Structural memory of ``algorithm`` on ``graph`` in integer words.

    Mirrors Table 1's ``c·m + O(n)`` with the constants the paper's
    representations imply.  Raises for unknown algorithm names.
    """
    try:
        per_edge = MODEL_WORDS_PER_EDGE[algorithm]
        per_vertex = _MODEL_WORDS_PER_VERTEX[algorithm]
    except KeyError:
        raise ReproError(
            f"no memory model for {algorithm!r}; known: {sorted(MODEL_WORDS_PER_EDGE)}"
        ) from None
    return per_edge * graph.m + per_vertex * graph.n


def measure_peak_bytes(fn: Callable[[], object]) -> Tuple[object, int]:
    """Run ``fn`` and return ``(result, peak_heap_bytes)`` via tracemalloc.

    An enclosing trace (a :class:`~repro.obs.memory.MemoryProbe`, or a
    caller's own ``tracemalloc.start()``) keeps running and keeps its peak.
    """
    # Imported here: repro.obs imports the core drivers, which import
    # repro.analysis.
    from ..obs.memory import MemoryProbe

    with MemoryProbe() as probe:
        result = fn()
    return result, probe.peak_bytes
