"""Bounded LRU cache of solved kernel state, keyed by graph fingerprint.

Strash ("On the Power of Simple Reductions") argues the kernel — not the
raw graph — is the asset worth keeping warm: it is what every repeated
query re-derives and what all the solve time flows through.  The cache
therefore stores, per ``(fingerprint, algorithm)`` pair, the *outcome* of
solving a snapshot: the solution in the snapshot's compact id space, the
Theorem-6.1 bound, and the rule counters.  Two graphs registered with
one service that are structurally identical share entries — the
fingerprint, not the handle, is the key.

The cache is bounded (LRU eviction) because a mutation-heavy workload
creates a new fingerprint per mutation batch and would otherwise grow the
map without limit.  Hit/miss/eviction counters feed the service's
telemetry (``serve:cache-hit`` / ``serve:cache-miss``).

It is the only cache level.  Each shard worker of the sharded front-end
(:mod:`repro.serve.router`) hosts its own service and so its own cache;
a graph id always lands on the same shard, so that shard's LRU is where
its answers are warm.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..obs.metrics import (
    METRIC_SERVE_CACHE_ENTRIES,
    METRIC_SERVE_CACHE_EVICTIONS,
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_CACHE_MISSES,
    MetricsRegistry,
)

__all__ = ["CacheEntry", "KernelCache"]


@dataclass(frozen=True)
class CacheEntry:
    """One solved snapshot, in the snapshot's compact id space.

    ``solution`` uses compact ids (``0 .. n-1`` of the fingerprinted
    snapshot) so the entry is handle-independent; callers translate through
    their own ``old_ids`` map.  ``exact_bound`` records whether
    ``upper_bound`` is a Theorem-6.1 certificate (cold solves) or a
    carried bound (repaired solutions; see
    :class:`~repro.serve.service.ServeResult`).
    """

    fingerprint: str
    algorithm: str
    solution: Tuple[int, ...]
    upper_bound: int
    is_exact: bool
    exact_bound: bool
    rule_counts: Dict[str, int] = field(default_factory=dict)
    solver_elapsed: float = 0.0

    @property
    def size(self) -> int:
        """Solution cardinality."""
        return len(self.solution)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form (service snapshots)."""
        return {
            "fingerprint": self.fingerprint,
            "algorithm": self.algorithm,
            "solution": list(self.solution),
            "upper_bound": self.upper_bound,
            "is_exact": self.is_exact,
            "exact_bound": self.exact_bound,
            "rule_counts": dict(self.rule_counts),
            "solver_elapsed": self.solver_elapsed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CacheEntry":
        """Rebuild an entry dumped with :meth:`to_payload`."""
        return cls(
            fingerprint=str(payload["fingerprint"]),
            algorithm=str(payload["algorithm"]),
            solution=tuple(int(v) for v in payload["solution"]),  # type: ignore[union-attr]
            upper_bound=int(payload["upper_bound"]),  # type: ignore[arg-type]
            is_exact=bool(payload["is_exact"]),
            exact_bound=bool(payload["exact_bound"]),
            rule_counts={
                str(k): int(v)
                for k, v in payload.get("rule_counts", {}).items()  # type: ignore[union-attr]
            },
            solver_elapsed=float(payload.get("solver_elapsed", 0.0)),  # type: ignore[arg-type]
        )


class KernelCache:
    """Bounded LRU map ``(fingerprint, algorithm) -> CacheEntry``.

    Traffic accounting (hits, misses, evictions, entries) lives only in a
    :class:`~repro.obs.metrics.MetricsRegistry` — pass the owning service's
    registry to share one source of truth, or let the cache build a private
    one.

    All operations are thread-safe: thread-mode shard dispatchers share one
    process and hammer their caches concurrently.
    """

    def __init__(
        self,
        capacity: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], CacheEntry]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            label="kernel-cache"
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, algorithm: str) -> Optional[CacheEntry]:
        """Look up an entry, refreshing its LRU position on a hit."""
        key = (fingerprint, algorithm)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            self.metrics.inc(METRIC_SERVE_CACHE_HITS)
        else:
            self.metrics.inc(METRIC_SERVE_CACHE_MISSES)
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        key = (entry.fingerprint, entry.algorithm)
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            entries = len(self._entries)
        if evicted:
            self.metrics.inc(METRIC_SERVE_CACHE_EVICTIONS, evicted)
        self.metrics.set_gauge(METRIC_SERVE_CACHE_ENTRIES, entries)

    def entries(self) -> Tuple[CacheEntry, ...]:
        """The cached entries, LRU-oldest first (snapshot order)."""
        return tuple(self._entries.values())

    def __repr__(self) -> str:
        return f"<KernelCache {len(self._entries)}/{self.capacity}>"
