"""KernelCache LRU semantics and graph fingerprint properties."""

import pytest

from repro.graphs import Graph
from repro.graphs.generators import gnm_random_graph
from repro.obs.metrics import (
    METRIC_SERVE_CACHE_EVICTIONS,
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_CACHE_MISSES,
)
from repro.serve import CacheEntry, KernelCache, graph_fingerprint


def _entry(tag: str, algorithm: str = "linear_time") -> CacheEntry:
    return CacheEntry(
        fingerprint=tag,
        algorithm=algorithm,
        solution=(0, 2, 4),
        upper_bound=3,
        is_exact=True,
        exact_bound=True,
    )


class TestFingerprint:
    def test_equal_graphs_hash_equal(self):
        a = gnm_random_graph(40, 80, seed=1)
        b = gnm_random_graph(40, 80, seed=1)
        assert a == b
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_any_structural_change_changes_digest(self):
        base = Graph.from_edges(4, [(0, 1), (2, 3)])
        variants = [
            Graph.from_edges(4, [(0, 1), (1, 2)]),   # different edge set
            Graph.from_edges(5, [(0, 1), (2, 3)]),   # extra isolated vertex
            Graph.from_edges(4, [(0, 1)]),           # fewer edges
        ]
        digests = {graph_fingerprint(g) for g in [base] + variants}
        assert len(digests) == len(variants) + 1

    def test_name_does_not_affect_digest(self):
        a = Graph.from_edges(3, [(0, 1)], name="alpha")
        b = Graph.from_edges(3, [(0, 1)], name="beta")
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_digest_is_hex_sha256(self):
        digest = graph_fingerprint(Graph.from_edges(2, [(0, 1)]))
        assert len(digest) == 64
        int(digest, 16)  # raises on anything but hex


class TestKernelCache:
    def test_get_put_and_counters(self):
        cache = KernelCache(capacity=4)
        assert cache.get("fp", "linear_time") is None
        cache.put(_entry("fp"))
        hit = cache.get("fp", "linear_time")
        assert hit is not None and hit.size == 3
        assert cache.metrics.value(METRIC_SERVE_CACHE_HITS) == 1
        assert cache.metrics.value(METRIC_SERVE_CACHE_MISSES) == 1

    def test_algorithm_is_part_of_key(self):
        cache = KernelCache(capacity=4)
        cache.put(_entry("fp", "linear_time"))
        assert cache.get("fp", "near_linear") is None
        assert cache.get("fp", "linear_time") is not None

    def test_lru_eviction_order(self):
        cache = KernelCache(capacity=2)
        cache.put(_entry("a"))
        cache.put(_entry("b"))
        cache.get("a", "linear_time")  # refresh a; b is now LRU
        cache.put(_entry("c"))
        assert cache.get("b", "linear_time") is None
        assert cache.get("a", "linear_time") is not None
        assert cache.get("c", "linear_time") is not None
        assert cache.metrics.value(METRIC_SERVE_CACHE_EVICTIONS) == 1

    def test_put_refresh_does_not_grow(self):
        cache = KernelCache(capacity=2)
        cache.put(_entry("a"))
        cache.put(_entry("a"))
        assert len(cache) == 1
        assert cache.metrics.value(METRIC_SERVE_CACHE_EVICTIONS) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            KernelCache(capacity=0)

    def test_entries_snapshot_order(self):
        cache = KernelCache(capacity=3)
        for tag in ("a", "b", "c"):
            cache.put(_entry(tag))
        cache.get("a", "linear_time")
        assert [e.fingerprint for e in cache.entries()] == ["b", "c", "a"]


class TestCacheEntryPayload:
    def test_round_trip(self):
        entry = CacheEntry(
            fingerprint="f" * 64,
            algorithm="near_linear",
            solution=(1, 3, 5, 7),
            upper_bound=5,
            is_exact=False,
            exact_bound=True,
            rule_counts={"degree-one": 4},
            solver_elapsed=0.125,
        )
        assert CacheEntry.from_payload(entry.to_payload()) == entry

    def test_payload_is_json_safe(self):
        import json

        payload = _entry("fp").to_payload()
        assert json.loads(json.dumps(payload)) == payload
