"""The metrics registry: counters/gauges/histograms, expositions, sessions.

The contract under test: every metric name is vetted against
``METRIC_KEYS`` at write time, histogram quantiles are exact to within one
log-bucket ratio, the Prometheus text exposition round-trips through the
strict parser, and the process-global session leaves no residue after
exit (zero-cost-when-disabled).
"""

import math

import pytest

from repro.obs.metrics import (
    METRIC_FRONTEND_SHED,
    METRIC_KEYS,
    METRIC_SERVE_CACHE_ENTRIES,
    METRIC_SERVE_REQUEST_SECONDS,
    METRIC_SERVE_REQUESTS,
    METRIC_SERVE_SOLVER_SECONDS,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    iter_series,
    metrics_session,
    parse_prometheus,
    quantile_samples,
)


@pytest.fixture(autouse=True)
def _no_global_registry():
    disable_metrics()
    yield
    disable_metrics()


class TestRegistryBasics:
    def test_counter_labels_are_independent_series(self):
        registry = MetricsRegistry()
        registry.inc(METRIC_SERVE_REQUESTS, op="solve", source="cache")
        registry.inc(METRIC_SERVE_REQUESTS, 2, op="solve", source="cold")
        registry.inc(METRIC_SERVE_REQUESTS, op="mutate")
        assert registry.value(METRIC_SERVE_REQUESTS, op="solve", source="cache") == 1
        assert registry.value(METRIC_SERVE_REQUESTS, op="solve", source="cold") == 2
        assert registry.total(METRIC_SERVE_REQUESTS) == 4

    def test_label_order_does_not_mint_new_series(self):
        registry = MetricsRegistry()
        registry.inc(METRIC_FRONTEND_SHED, shard="0", reason="deadline")
        registry.inc(METRIC_FRONTEND_SHED, reason="deadline", shard="0")
        assert registry.value(METRIC_FRONTEND_SHED, shard="0", reason="deadline") == 2
        assert len(registry.counter_series(METRIC_FRONTEND_SHED)) == 1

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge(METRIC_SERVE_CACHE_ENTRIES, 5)
        registry.set_gauge(METRIC_SERVE_CACHE_ENTRIES, 3)
        assert registry.value(METRIC_SERVE_CACHE_ENTRIES) == 3

    def test_unregistered_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.inc("repro_made_up_total")
        with pytest.raises(KeyError):
            registry.set_gauge("bogus_gauge", 1)
        with pytest.raises(KeyError):
            registry.observe("bogus_seconds", 0.5)

    def test_metric_keys_cover_every_constant(self):
        assert METRIC_SERVE_REQUESTS in METRIC_KEYS
        assert METRIC_FRONTEND_SHED in METRIC_KEYS
        # Exposition names stay Prometheus-legal.
        assert all(name.replace("_", "a").isalnum() for name in METRIC_KEYS)


class TestHistogram:
    def test_quantile_within_one_bucket_ratio(self):
        histogram = Histogram()
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s
        for value in values:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = values[int(q * len(values)) - 1]
            estimate = histogram.quantile(q)
            assert exact / 2 <= estimate <= exact * 2

    def test_quantile_clamped_to_observed_range(self):
        histogram = Histogram()
        histogram.observe(0.25)
        assert histogram.quantile(0.5) == 0.25
        assert histogram.quantile(0.99) == 0.25

    def test_empty_histogram_is_zero(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0

    def test_registry_observe_feeds_quantiles(self):
        registry = MetricsRegistry()
        for value in (0.010, 0.012, 0.5):
            registry.observe(METRIC_SERVE_REQUEST_SECONDS, value, op="solve")
        p99 = registry.quantile(METRIC_SERVE_REQUEST_SECONDS, 0.99, op="solve")
        assert 0.25 <= p99 <= 1.0


class TestExpositions:
    def _populated(self):
        registry = MetricsRegistry(label="test")
        registry.inc(METRIC_SERVE_REQUESTS, 3, op="solve", source="cache")
        registry.set_gauge(METRIC_SERVE_CACHE_ENTRIES, 2)
        for value in (0.004, 0.008, 0.016):
            registry.observe(METRIC_SERVE_SOLVER_SECONDS, value, mode="cold", backend="flat")
        return registry

    def test_prometheus_round_trip(self):
        registry = self._populated()
        samples = parse_prometheus(registry.to_prometheus())
        assert samples[
            (METRIC_SERVE_REQUESTS, (("op", "solve"), ("source", "cache")))
        ] == 3.0
        assert samples[(METRIC_SERVE_CACHE_ENTRIES, ())] == 2.0
        count_name = f"{METRIC_SERVE_SOLVER_SECONDS}_count"
        assert any(name == count_name and value == 3.0
                   for (name, _), value in samples.items())

    def test_prometheus_buckets_are_cumulative_and_end_at_inf(self):
        registry = self._populated()
        samples = parse_prometheus(registry.to_prometheus())
        bucket_name = f"{METRIC_SERVE_SOLVER_SECONDS}_bucket"
        buckets = [
            (dict(labels)["le"], value)
            for (name, labels), value in samples.items()
            if name == bucket_name
        ]
        assert any(le == "+Inf" and value == 3.0 for le, value in buckets)
        finite = sorted(
            (float(le), value) for le, value in buckets if le != "+Inf"
        )
        counts = [value for _, value in finite]
        assert counts == sorted(counts)  # cumulative

    def test_p99_gauges_derived(self):
        registry = self._populated()
        samples = parse_prometheus(registry.to_prometheus())
        p99 = quantile_samples(samples, METRIC_SERVE_SOLVER_SECONDS, "p99")
        assert len(p99) == 1 and p99[0] > 0

    def test_iter_series_filters_by_name(self):
        registry = self._populated()
        samples = parse_prometheus(registry.to_prometheus())
        rows = list(iter_series(samples, METRIC_SERVE_REQUESTS))
        assert rows == [((("op", "solve"), ("source", "cache")), 3.0)]

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a sample\n")
        with pytest.raises(ValueError):
            parse_prometheus('name{unclosed="x} 1\n')

    def test_parser_accepts_inf(self):
        samples = parse_prometheus('series_bucket{le="+Inf"} 4\n')
        assert samples[("series_bucket", (("le", "+Inf"),))] == 4.0
        assert math.isfinite(4.0)

    def test_jsonl_records(self, tmp_path):
        registry = self._populated()
        path = tmp_path / "metrics.jsonl"
        count = registry.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count == 3
        records = registry.to_records()
        kinds = {record["kind"] for record in records}
        assert kinds == {"counter", "gauge", "histogram"}
        histogram = next(r for r in records if r["kind"] == "histogram")
        assert histogram["count"] == 3
        assert set(histogram["quantiles"]) == {"p50", "p90", "p99"}


class TestGlobalSession:
    def test_disabled_by_default(self):
        assert get_metrics() is None

    def test_enable_disable_round_trip(self):
        registry = enable_metrics(label="run")
        assert get_metrics() is registry
        assert disable_metrics() is registry
        assert get_metrics() is None

    def test_session_restores_on_exit(self):
        with metrics_session(label="scoped") as registry:
            assert get_metrics() is registry
            registry.inc(METRIC_SERVE_REQUESTS, op="solve", source="cold")
        assert get_metrics() is None
        # The registry survives the session for post-hoc exposition.
        assert registry.total(METRIC_SERVE_REQUESTS) == 1

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with metrics_session(label="scoped"):
                raise RuntimeError("boom")
        assert get_metrics() is None
