"""Bin-sort-like degree selectors (paper Section 3.2).

The peeling step needs "the vertex with the highest degree" under dynamic
degree changes.  The paper uses a bucket structure with one bin per degree
value and the *lazy update* strategy: since degrees only decrease in BDOne /
LinearTime / NearLinear, a vertex's bucket is corrected only at pop time,
which lets the structure use plain stacks instead of doubly-linked lists.

:class:`MaxDegreeSelector` implements exactly that, with an extra
``notify_increase`` hook so BDTwo (where contraction can *grow* a degree,
Section 3.3) can reuse it: an increased vertex is re-pushed at its new degree
and the max pointer is bumped; stale copies are filtered at pop time.

:class:`MinDegreeSelector` is the mirror image used by the DU baseline
(adaptive minimum-degree greedy).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["MaxDegreeSelector", "MinDegreeSelector"]


class MaxDegreeSelector:
    """Lazy bucket queue returning the maximum-degree live vertex.

    Parameters
    ----------
    degrees:
        The algorithm's live degree array.  The selector keeps a reference
        and always validates popped candidates against it.
    alive:
        Live flags (any sequence supporting integer truthiness lookups),
        shared with the algorithm the same way.
    """

    __slots__ = ("_degrees", "_alive", "_buckets", "_current")

    def __init__(self, degrees: Sequence[int], alive: Sequence[int]) -> None:  # reprolint: disable=RL006
        self._degrees = degrees
        self._alive = alive
        max_degree = max(degrees, default=0)
        self._buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
        for v, d in enumerate(degrees):
            if alive[v] and d > 0:
                self._buckets[d].append(v)
        self._current = max_degree

    def notify_increase(self, v: int) -> None:
        """Re-file ``v`` after its degree grew (BDTwo contraction)."""
        d = self._degrees[v]
        while d >= len(self._buckets):
            self._buckets.append([])
        self._buckets[d].append(v)
        if d > self._current:
            self._current = d

    def pop_max(self) -> Optional[int]:
        """Pop and return a live vertex of maximum degree, or ``None``.

        Runs in amortised O(1 + relocations): stale entries are either
        dropped (dead vertex or duplicate) or moved down to their true
        bucket, and the max pointer never re-scans upward unless
        :meth:`notify_increase` raised it.
        """
        buckets = self._buckets
        degrees = self._degrees
        alive = self._alive
        current = self._current
        while current > 0:
            bucket = buckets[current]
            while bucket:
                v = bucket.pop()
                if not alive[v]:
                    continue
                d = degrees[v]
                if d == current:
                    self._current = current
                    return v
                if 0 < d < current:
                    buckets[d].append(v)  # lazy relocation
                # d > current can only happen transiently in BDTwo; the
                # fresh copy pushed by notify_increase covers it, so the
                # stale one is simply dropped.
            current -= 1
        self._current = 0
        return None


class MinDegreeSelector:
    """Lazy bucket queue returning the minimum-degree live vertex.

    Degrees in DU only decrease, so a popped vertex may sit *above* its true
    bucket; relocation moves entries down and the min pointer is lowered on
    every relocation, keeping the total work linear.
    """

    __slots__ = ("_degrees", "_alive", "_buckets", "_current")

    def __init__(self, degrees: Sequence[int], alive: Sequence[int]) -> None:
        self._degrees = degrees
        self._alive = alive
        max_degree = max(degrees, default=0)
        self._buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
        for v, d in enumerate(degrees):
            if alive[v]:
                self._buckets[d].append(v)
        self._current = 0

    def notify_decrease(self, v: int) -> None:
        """Re-file ``v`` after its degree dropped."""
        d = self._degrees[v]
        self._buckets[d].append(v)
        if d < self._current:
            self._current = d

    def pop_min(self) -> Optional[int]:
        """Pop and return a live vertex of minimum degree, or ``None``."""
        buckets = self._buckets
        degrees = self._degrees
        alive = self._alive
        current = self._current
        while current < len(buckets):
            bucket = buckets[current]
            while bucket:
                v = bucket.pop()
                if not alive[v]:
                    continue
                if degrees[v] == current:
                    self._current = current
                    return v
                # Stale entry: the fresh copy pushed by notify_decrease is
                # in a lower bucket and was, or will be, seen first.
            current += 1
        self._current = len(buckets)
        return None
