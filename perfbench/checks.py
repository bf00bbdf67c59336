"""Answer checks that do not trust the program under test.

Every answer is checked against the benchmark's own copy of the graph:
the set must be independent and maximal, its upper bound must be at least
its size, and a result flagged exact must meet its bound.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

from inputs import EdgeArrays


def check_members(graph: EdgeArrays, members: np.ndarray) -> Optional[str]:
    """``None`` when ``members`` is a maximal independent set of ``graph``."""
    if members.size and (members.min() < 0 or members.max() >= graph.n):
        return "vertex id out of range"
    chosen = np.zeros(graph.n, dtype=bool)
    chosen[members] = True
    if int(np.count_nonzero(chosen)) != members.size:
        return "repeated vertex"
    if bool((chosen[graph.a] & chosen[graph.b]).any()):
        return "not independent"
    covered = chosen.copy()
    covered[graph.b[chosen[graph.a]]] = True
    covered[graph.a[chosen[graph.b]]] = True
    if not bool(covered.all()):
        return "not maximal"
    return None


def read_answer(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        return np.array(handle.read().split(), dtype=np.int64)


def check_bound(size: int, upper_bound: Optional[int], is_exact: bool) -> Optional[str]:
    if upper_bound is None:
        return None
    if upper_bound < size:
        return f"upper bound {upper_bound} < |I| {size}"
    if is_exact and upper_bound != size:
        return f"flagged exact but |I| {size} != bound {upper_bound}"
    return None


class Mirror:
    """The benchmark's own copy of one served graph, mutated in request order."""

    def __init__(self, graph: EdgeArrays) -> None:
        self.n = graph.n
        self.adj: List[Set[int]] = [set() for _ in range(graph.n)]
        for u, v in zip(graph.a.tolist(), graph.b.tolist()):
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.m = graph.m

    def apply(self, op: str, u: int, v: int) -> None:
        if op == "add_edge" and v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.m += 1
        elif op == "remove_edge" and v in self.adj[u]:
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            self.m -= 1

    def check(self, members: Iterable[int]) -> Optional[str]:
        chosen = set(members)
        if any(not 0 <= v < self.n for v in chosen):
            return "vertex id out of range"
        adj = self.adj
        for v in chosen:
            if not adj[v].isdisjoint(chosen):
                return "not independent"
        for v in range(self.n):
            if v not in chosen and adj[v].isdisjoint(chosen):
                return "not maximal"
        return None
