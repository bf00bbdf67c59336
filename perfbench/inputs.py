"""Seeded input generation, independent of the program under test.

Graphs are drawn with numpy from the benchmark seed and written as plain
SNAP-style edge lists.  Vertices are relabelled ``0..n-1`` with isolated
vertices dropped, so the ids the program reads back are the file's labels
and answers can be checked against the generator's own edge arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EdgeArrays:
    """A simple undirected graph as two endpoint arrays (``a[i] < b[i]``)."""

    n: int
    a: np.ndarray
    b: np.ndarray

    @property
    def m(self) -> int:
        return int(self.a.size)


def _simple(u: np.ndarray, v: np.ndarray) -> EdgeArrays:
    """Drop loops and duplicates, then relabel the touched vertices ``0..n-1``."""
    keep = u != v
    lo = np.minimum(u[keep], v[keep]).astype(np.int64)
    hi = np.maximum(u[keep], v[keep]).astype(np.int64)
    keys = np.unique(lo * (1 << 32) + hi)
    lo, hi = keys >> 32, keys & 0xFFFFFFFF
    ids, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    return EdgeArrays(int(ids.size), inverse[: lo.size], inverse[lo.size :])


def chung_lu(n: int, beta: float, average_degree: float, rng: np.random.Generator) -> EdgeArrays:
    """Chung–Lu power-law graph: endpoints drawn with probability ∝ ``(i+i0)^(-1/(β-1))``."""
    exponent = 1.0 / (beta - 1.0)
    i0 = max(1.0, n ** (1.0 - exponent * 0.5) / 10.0)
    weights = (np.arange(n) + i0) ** (-exponent)
    p = weights / weights.sum()
    m = int(n * average_degree / 2)
    return _simple(rng.choice(n, size=m, p=p), rng.choice(n, size=m, p=p))


def gnm(n: int, average_degree: float, rng: np.random.Generator) -> EdgeArrays:
    """Uniform random graph with ``n·d/2`` edge draws (loops and repeats dropped)."""
    m = int(n * average_degree / 2)
    return _simple(rng.integers(0, n, m), rng.integers(0, n, m))


def write_edge_list(path: str, graph: EdgeArrays) -> None:
    text = "\n".join(map("%d %d".__mod__, zip(graph.a.tolist(), graph.b.tolist())))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
