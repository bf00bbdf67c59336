"""A fixed interpreter-bound reference loop that rescales every reported time.

The benchmark runs on shared hosts whose Python speed drifts by ±20%
from one minute to the next.  Op walls measured in one process track a
fixed pure-Python workload run in the same process at the same time
closely: across repeated runs of one op, the ratio of the op's median
wall to this loop's median wall stayed within ±3% while the raw medians
moved by ±20%.  So each run samples this loop next to its own work and
multiplies every time it reports by ``NOMINAL_S / median(samples)``:
times read as seconds on a host where the loop takes ``NOMINAL_S``.

The loop is the benchmark's own code and never changes with the program,
so a change to the program moves the scaled times exactly as it moves
the raw ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

#: Median wall of one :meth:`Reference.sample` on the host where the
#: benchmark was defined (2-vCPU x86-64 VM at 2.1 GHz, CPython 3.11).
NOMINAL_S = 0.037


class Reference:
    """Samples the reference loop; :func:`factor` turns the samples into a scale."""

    SIZE = 20_000

    def __init__(self) -> None:
        rng = random.Random(2017)
        self._adj = [[rng.randrange(self.SIZE) for _ in range(6)] for _ in range(self.SIZE)]
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Time ``count`` runs of three depth-first sweeps over a fixed random graph."""
        adj, size = self._adj, self.SIZE
        # Collections would scan the program's heap, tying the sample to it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                self.samples.append(self._sweep(adj, size))
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def _sweep(adj: List[List[int]], size: int) -> float:
        start = time.perf_counter()
        for _ in range(3):
            seen = bytearray(size)
            order = []
            for root in range(size):
                if seen[root]:
                    continue
                seen[root] = 1
                stack = [root]
                while stack:
                    u = stack.pop()
                    order.append(u)
                    for w in adj[u]:
                        if not seen[w]:
                            seen[w] = 1
                            stack.append(w)
        return time.perf_counter() - start


def factor(samples: List[float]) -> float:
    """Multiplier that turns walls measured beside ``samples`` into nominal-host seconds."""
    return NOMINAL_S / statistics.median(samples)
