"""Bounded LRU cache of solved kernel state, keyed by graph fingerprint.

Strash ("On the Power of Simple Reductions") argues the kernel — not the
raw graph — is the asset worth keeping warm: it is what every repeated
query re-derives and what all the solve time flows through.  The cache
therefore stores, per ``(fingerprint, algorithm)`` pair, the *outcome* of
solving a snapshot: the solution in the snapshot's compact id space, the
Theorem-6.1 bound, and the rule counters.  Two registered graphs that are structurally identical share
entries — the fingerprint, not the handle, is the key.

The cache is bounded (LRU eviction) because a mutation-heavy workload
creates a new fingerprint per mutation batch and would otherwise grow the
map without limit.  Hit/miss/eviction counters feed the service's
telemetry (``serve:cache-hit`` / ``serve:cache-miss``).

For the sharded front-end (:mod:`repro.serve.frontend`) the per-worker
LRU grows a second level: a :class:`SharedCacheTier` — a fleet-wide
fingerprint-keyed map of entry *payloads* living in a
``multiprocessing.Manager`` dict (process workers) or a plain dict
(thread workers).  A worker that misses locally consults the tier before
solving, so a graph solved by one worker is a cache hit for all of
them; tier hits are promoted into the local LRU and counted separately
(``repro_serve_cache_shared_hits_total``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, MutableMapping, Optional, Tuple

from ..obs.metrics import (
    METRIC_SERVE_CACHE_ENTRIES,
    METRIC_SERVE_CACHE_EVICTIONS,
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_CACHE_MISSES,
    METRIC_SERVE_CACHE_SHARED_HITS,
    MetricsRegistry,
)

__all__ = ["CacheEntry", "KernelCache", "SharedCacheTier"]


@dataclass(frozen=True)
class CacheEntry:
    """One solved snapshot, in the snapshot's compact id space.

    ``solution`` uses compact ids (``0 .. n-1`` of the fingerprinted
    snapshot) so the entry is handle-independent; callers translate through
    their own ``old_ids`` map.  ``exact_bound`` records whether
    ``upper_bound`` is a Theorem-6.1 certificate (cold solves) or the
    trivial ``n`` (repaired solutions, which carry no certificate).
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


class SharedCacheTier:
    """A fleet-wide second cache level: fingerprint-keyed entry payloads.

    The store is any mutable mapping of ``"fingerprint|algorithm"`` →
    :meth:`CacheEntry.to_payload` dicts: a plain dict for thread-mode shard
    workers, a ``multiprocessing.Manager().dict()`` proxy for process
    workers (the proxy pickles, so the tier rides the worker spawn payload).
    Eviction is bounded but deliberately coarse — payloads carry an
    insertion sequence number and the oldest is dropped when the tier is
    full; the precise LRU lives in each worker's local
    :class:`KernelCache`.
    """

    _SEQ_KEY = "__tier_seq__"

    def __init__(
        self,
        store: Optional[MutableMapping] = None,
        lock: Optional[object] = None,
        capacity: int = 512,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"tier capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._store: MutableMapping = store if store is not None else {}
        self._lock = lock if lock is not None else threading.Lock()

    @staticmethod
    def _key(fingerprint: str, algorithm: str) -> str:
        return f"{fingerprint}|{algorithm}"

    def __len__(self) -> int:
        with self._lock:
            return len(self._store) - (1 if self._SEQ_KEY in self._store else 0)

    def get(self, fingerprint: str, algorithm: str) -> Optional[CacheEntry]:
        """Look up an entry; ``None`` when the fleet has not solved it."""
        with self._lock:
            payload = self._store.get(self._key(fingerprint, algorithm))
        if payload is None:
            return None
        return CacheEntry.from_payload(payload)

    def put(self, entry: CacheEntry) -> None:
        """Publish an entry payload for the whole fleet, evicting oldest."""
        payload = entry.to_payload()
        with self._lock:
            seq = int(self._store.get(self._SEQ_KEY, 0)) + 1
            self._store[self._SEQ_KEY] = seq
            payload["__seq"] = seq
            self._store[self._key(entry.fingerprint, entry.algorithm)] = payload
            while len(self._store) - 1 > self.capacity:
                oldest = min(
                    (
                        (value.get("__seq", 0), key)
                        for key, value in self._store.items()
                        if key != self._SEQ_KEY
                    ),
                )[1]
                del self._store[oldest]

    def __repr__(self) -> str:
        return f"<SharedCacheTier {len(self)}/{self.capacity}>"


class KernelCache:
    """Bounded LRU map ``(fingerprint, algorithm) -> CacheEntry``.

    Traffic accounting lives in a :class:`~repro.obs.metrics.MetricsRegistry`
    — pass the owning service's registry to share one source of truth, or
    let the cache build a private one.  The classic ``hits`` / ``misses`` /
    ``evictions`` attributes are thin read-only views over the registry, so
    the dict-style :meth:`counters` and a Prometheus scrape can never
    disagree.

    With a :class:`SharedCacheTier` attached, a local miss consults the
    tier before reporting a miss: a tier hit is promoted into the local LRU
    and counted as ``shared_hits`` (never double-counted as a miss), so
    ``hits + shared_hits + misses`` always equals the number of lookups.
    All operations are thread-safe: thread-mode shard dispatchers share one
    process and hammer their caches concurrently.
    """

    def __init__(
        self,
        capacity: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        tier: Optional[SharedCacheTier] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], CacheEntry]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            label="kernel-cache"
        )
        self._tier = tier
        self._lock = threading.Lock()

    def attach_tier(self, tier: Optional[SharedCacheTier]) -> None:
        """Attach (or detach, with ``None``) the fleet-shared second level."""
        self._tier = tier

    @property
    def tier(self) -> Optional[SharedCacheTier]:
        """The attached shared tier, if any."""
        return self._tier

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Local lookup hits (registry view)."""
        return int(self.metrics.value(METRIC_SERVE_CACHE_HITS))

    @property
    def shared_hits(self) -> int:
        """Lookups answered by the shared tier (registry view)."""
        return int(self.metrics.value(METRIC_SERVE_CACHE_SHARED_HITS))

    @property
    def misses(self) -> int:
        """Lookup misses (registry view)."""
        return int(self.metrics.value(METRIC_SERVE_CACHE_MISSES))

    @property
    def evictions(self) -> int:
        """LRU evictions (registry view)."""
        return int(self.metrics.value(METRIC_SERVE_CACHE_EVICTIONS))

    def get(self, fingerprint: str, algorithm: str) -> Optional[CacheEntry]:
        """Look up an entry, refreshing its LRU position on a hit.

        Falls through to the shared tier on a local miss; only a miss in
        *both* levels counts as a miss.
        """
        key = (fingerprint, algorithm)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            self.metrics.inc(METRIC_SERVE_CACHE_HITS)
            return entry
        if self._tier is not None:
            shared = self._tier.get(fingerprint, algorithm)
            if shared is not None:
                self._put_local(shared)
                self.metrics.inc(METRIC_SERVE_CACHE_SHARED_HITS)
                return shared
        self.metrics.inc(METRIC_SERVE_CACHE_MISSES)
        return None

    def _put_local(self, entry: CacheEntry) -> None:
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

    def put(self, entry: CacheEntry) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full.

        The entry is also published to the shared tier (when attached) so
        sibling workers see it on their next lookup.
        """
        self._put_local(entry)
        if self._tier is not None:
            self._tier.put(entry)

    def clear(self) -> None:
        """Drop every local entry (counters are kept — they describe
        traffic; the shared tier is left for the rest of the fleet)."""
        with self._lock:
            self._entries.clear()
        self.metrics.set_gauge(METRIC_SERVE_CACHE_ENTRIES, 0)

    @property
    def hit_rate(self) -> float:
        """Hits (local + shared) over total lookups (0.0 before any)."""
        served = self.hits + self.shared_hits
        total = served + self.misses
        return served / total if total else 0.0

    def counters(self) -> Dict[str, object]:
        """A JSON-serialisable stats view for reports and snapshots."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "shared_hits": self.shared_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def entries(self) -> Tuple[CacheEntry, ...]:
        """The cached entries, LRU-oldest first (snapshot order)."""
        return tuple(self._entries.values())

    def __repr__(self) -> str:
        return (
            f"<KernelCache {len(self._entries)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
