"""Concurrent-access contracts for KernelCache + the shared metrics registry.

Thread-mode shard workers (see :mod:`repro.serve.router`) live in one
process: every dispatcher thread hammers its worker's
:class:`~repro.serve.cache.KernelCache` and, through it, one
:class:`~repro.obs.metrics.MetricsRegistry`.  These tests pin down the
invariants the sharded front-end leans on:

* registry counters never lose updates under contention;
* ``hits + misses == lookups`` exactly — no lookup is double-counted or
  dropped;
* the LRU never exceeds capacity;
* a cache and a service sharing a registry agree with the registry —
  the classic double-count drift a second accounting path would cause.
"""

import threading

from repro.obs.metrics import (
    METRIC_FRONTEND_REQUESTS,
    METRIC_SERVE_CACHE_ENTRIES,
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_CACHE_MISSES,
    METRIC_SERVE_REQUESTS,
    MetricsRegistry,
)
from repro.serve.cache import CacheEntry, KernelCache


def make_entry(tag: str, algorithm: str = "linear_time") -> CacheEntry:
    return CacheEntry(
        fingerprint=f"fp-{tag}",
        algorithm=algorithm,
        solution=(0, 2, 4),
        upper_bound=3,
        is_exact=True,
        exact_bound=True,
    )


def run_threads(worker, count=8):
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestRegistryUnderContention:
    def test_inc_never_loses_updates(self):
        registry = MetricsRegistry(label="test")
        per_thread, threads = 2000, 8

        def worker(_i):
            for _ in range(per_thread):
                registry.inc(METRIC_SERVE_REQUESTS)

        run_threads(worker, threads)
        assert registry.value(METRIC_SERVE_REQUESTS) == per_thread * threads

    def test_labelled_series_stay_independent(self):
        registry = MetricsRegistry(label="test")
        per_thread = 500

        def worker(i):
            for _ in range(per_thread):
                registry.inc(METRIC_FRONTEND_REQUESTS, op=f"op{i % 4}")

        run_threads(worker, 8)
        assert registry.total(METRIC_FRONTEND_REQUESTS) == per_thread * 8
        for op in range(4):
            assert registry.value(METRIC_FRONTEND_REQUESTS, op=f"op{op}") == per_thread * 2


class TestKernelCacheUnderContention:
    def test_lookup_accounting_is_exact(self):
        cache = KernelCache(capacity=16)
        per_thread, threads = 400, 8
        # Half the keys exist, half never will: every get books exactly
        # one of hit/miss.
        for tag in range(8):
            cache.put(make_entry(f"warm{tag}"))

        def worker(i):
            for step in range(per_thread):
                if step % 2:
                    cache.get(f"fp-warm{step % 8}", "linear_time")
                else:
                    cache.get(f"fp-cold{i}-{step}", "linear_time")

        run_threads(worker, threads)
        lookups = per_thread * threads
        metrics = cache.metrics
        hits = metrics.value(METRIC_SERVE_CACHE_HITS)
        assert hits + metrics.value(METRIC_SERVE_CACHE_MISSES) == lookups
        assert len(cache) <= cache.capacity

    def test_concurrent_puts_keep_lru_bounded(self):
        cache = KernelCache(capacity=8)

        def worker(i):
            for step in range(200):
                cache.put(make_entry(f"w{i}-{step}"))

        run_threads(worker, 8)
        assert len(cache) <= cache.capacity
        assert cache.metrics.value(METRIC_SERVE_CACHE_ENTRIES) <= cache.capacity

    def test_shared_registry_has_no_drift(self):
        # A cache wired to an external registry counts every lookup into
        # it exactly once, with no private second account.
        registry = MetricsRegistry(label="svc")
        cache = KernelCache(capacity=8, metrics=registry)
        cache.put(make_entry("a"))

        def worker(i):
            for step in range(250):
                cache.get("fp-a", "linear_time")
                cache.get(f"fp-nope{i}-{step}", "linear_time")
                registry.inc(METRIC_SERVE_REQUESTS)

        run_threads(worker, 8)
        assert cache.metrics is registry
        assert registry.value(METRIC_SERVE_CACHE_HITS) == 2000
        assert registry.value(METRIC_SERVE_CACHE_MISSES) == 2000
        assert registry.value(METRIC_SERVE_REQUESTS) == 2000
