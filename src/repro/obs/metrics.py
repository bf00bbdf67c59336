"""Process-global metrics: counters, gauges, log-bucketed histograms.

Telemetry (:mod:`repro.obs.telemetry`) answers "where did *this run* spend
its time"; metrics answer the production question — "what are the request
rates, hit rates, and latency quantiles of this process *right now*".  The
serving layer (:mod:`repro.serve`) publishes into a
:class:`MetricsRegistry`, and two exposition formats get the numbers out:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text format every
  scraper speaks (histograms as cumulative ``_bucket{le=...}`` series plus
  precomputed ``_p50``/``_p90``/``_p99`` gauges);
* :meth:`MetricsRegistry.to_records` — JSON-serialisable records in the
  same shape the JSONL trace files use, so a metrics snapshot can ride in
  a telemetry trace via :func:`repro.obs.trace_io.write_trace`.

The design rules mirror the telemetry ones:

* **one registry check per request.**  Callers bind
  :func:`get_metrics` once per request (never per loop iteration); a
  ``None`` return is the entire disabled-mode cost.  Solver hot loops never
  see this module at all — only request-level code publishes metrics.
* **names come from the registry.**  Every metric name is a ``METRIC_*``
  constant registered in :data:`METRIC_KEYS`; the registry rejects unknown
  names at runtime and reprolint RL003 rejects unregistered literals
  statically, so dashboards and alerts never chase a renamed series.
* **histograms are log-bucketed.**  Latencies span six orders of
  magnitude; geometric buckets (factor 2 from 1µs up) keep the quantile
  error bounded by the bucket ratio at every scale with a few dozen
  integers of state.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "METRIC_KEYS",
    "METRIC_SERVE_REQUESTS",
    "METRIC_SERVE_REQUEST_SECONDS",
    "METRIC_SERVE_SOLVER_SECONDS",
    "METRIC_SERVE_CACHE_HITS",
    "METRIC_SERVE_CACHE_MISSES",
    "METRIC_SERVE_CACHE_EVICTIONS",
    "METRIC_SERVE_CACHE_ENTRIES",
    "METRIC_SERVE_CACHE_SHARED_HITS",
    "METRIC_SERVE_GRAPHS",
    "METRIC_SERVE_MUTATIONS",
    "METRIC_SERVE_REPAIRS",
    "METRIC_SERVE_REPAIR_VERTICES",
    "METRIC_SERVE_REPAIR_COMPONENTS",
    "METRIC_SERVE_FULL_RESOLVES",
    "METRIC_SERVE_STALE_RETURNS",
    "METRIC_FRONTEND_REQUESTS",
    "METRIC_FRONTEND_REQUEST_SECONDS",
    "METRIC_FRONTEND_QUEUE_DEPTH",
    "METRIC_FRONTEND_SHED",
    "METRIC_FRONTEND_BATCHES",
    "METRIC_FRONTEND_BATCH_SIZE",
    "METRIC_FRONTEND_COALESCED",
    "METRIC_FRONTEND_PROTOCOL_ERRORS",
    "METRIC_FRONTEND_CONNECTIONS",
    "MetricsRegistry",
    "Histogram",
    "enable_metrics",
    "disable_metrics",
    "get_metrics",
    "metrics_session",
    "parse_prometheus",
]

# ---------------------------------------------------------------------------
# Metric-name registry (one canonical spelling per series; RL003-checked)
# ---------------------------------------------------------------------------
#: Requests answered by the serving layer, labelled ``op`` (solve /
#: upper_bound / mutate / register) and ``source`` (cache / cold / repair /
#: stale — empty for non-query ops).
METRIC_SERVE_REQUESTS = "repro_serve_requests_total"
#: End-to-end request latency histogram, labelled ``op``.
METRIC_SERVE_REQUEST_SECONDS = "repro_serve_request_seconds"
#: Solver-only seconds inside cold solves and repairs, labelled ``op``.
METRIC_SERVE_SOLVER_SECONDS = "repro_serve_solver_seconds"
METRIC_SERVE_CACHE_HITS = "repro_serve_cache_hits_total"
METRIC_SERVE_CACHE_MISSES = "repro_serve_cache_misses_total"
METRIC_SERVE_CACHE_EVICTIONS = "repro_serve_cache_evictions_total"
METRIC_SERVE_CACHE_ENTRIES = "repro_serve_cache_entries"
METRIC_SERVE_GRAPHS = "repro_serve_graphs"
METRIC_SERVE_MUTATIONS = "repro_serve_mutations_total"
METRIC_SERVE_REPAIRS = "repro_serve_repairs_total"
METRIC_SERVE_REPAIR_VERTICES = "repro_serve_repair_vertices_total"
METRIC_SERVE_REPAIR_COMPONENTS = "repro_serve_repair_components_total"
METRIC_SERVE_FULL_RESOLVES = "repro_serve_full_resolves_total"
#: Timeout degradations: the budget ran out and a patched stale answer shipped.
METRIC_SERVE_STALE_RETURNS = "repro_serve_stale_returns_total"
#: Kernel-cache lookups that missed locally but hit the fleet-shared tier
#: (a graph kernelized by one shard worker answering on another).
METRIC_SERVE_CACHE_SHARED_HITS = "repro_serve_cache_shared_hits_total"
#: Requests admitted by the async front-end, labelled ``op`` and ``shard``.
METRIC_FRONTEND_REQUESTS = "repro_frontend_requests_total"
#: End-to-end front-end latency (admission to response), labelled ``op``.
METRIC_FRONTEND_REQUEST_SECONDS = "repro_frontend_request_seconds"
#: Live admission-queue depth per shard (gauge, labelled ``shard``).
METRIC_FRONTEND_QUEUE_DEPTH = "repro_frontend_queue_depth"
#: Requests shed by admission control, labelled ``shard`` and ``reason``
#: (``queue_full`` / ``deadline``).
METRIC_FRONTEND_SHED = "repro_frontend_shed_total"
#: Dispatched worker batches per shard.
METRIC_FRONTEND_BATCHES = "repro_frontend_batches_total"
#: Batch-size distribution (requests per dispatched batch).
METRIC_FRONTEND_BATCH_SIZE = "repro_frontend_batch_size"
#: Solve requests answered by a micro-batch leader's solve (followers).
METRIC_FRONTEND_COALESCED = "repro_frontend_coalesced_total"
#: Malformed / oversized / undecodable request lines.
METRIC_FRONTEND_PROTOCOL_ERRORS = "repro_frontend_protocol_errors_total"
#: Open client connections (gauge).
METRIC_FRONTEND_CONNECTIONS = "repro_frontend_connections"

#: The full metric-name registry reprolint RL003 checks write sites against.
METRIC_KEYS = frozenset(
    {
        METRIC_SERVE_REQUESTS,
        METRIC_SERVE_REQUEST_SECONDS,
        METRIC_SERVE_SOLVER_SECONDS,
        METRIC_SERVE_CACHE_HITS,
        METRIC_SERVE_CACHE_MISSES,
        METRIC_SERVE_CACHE_EVICTIONS,
        METRIC_SERVE_CACHE_ENTRIES,
        METRIC_SERVE_CACHE_SHARED_HITS,
        METRIC_SERVE_GRAPHS,
        METRIC_SERVE_MUTATIONS,
        METRIC_SERVE_REPAIRS,
        METRIC_SERVE_REPAIR_VERTICES,
        METRIC_SERVE_REPAIR_COMPONENTS,
        METRIC_SERVE_FULL_RESOLVES,
        METRIC_SERVE_STALE_RETURNS,
        METRIC_FRONTEND_REQUESTS,
        METRIC_FRONTEND_REQUEST_SECONDS,
        METRIC_FRONTEND_QUEUE_DEPTH,
        METRIC_FRONTEND_SHED,
        METRIC_FRONTEND_BATCHES,
        METRIC_FRONTEND_BATCH_SIZE,
        METRIC_FRONTEND_COALESCED,
        METRIC_FRONTEND_PROTOCOL_ERRORS,
        METRIC_FRONTEND_CONNECTIONS,
    }
)

#: Histogram bucket geometry: upper bounds ``_BUCKET_START * 2**i`` for
#: ``i < _BUCKET_COUNT``, then +Inf.  1µs … ~134s covers every latency the
#: service can legally produce; quantile error is bounded by the factor-2
#: bucket ratio.
_BUCKET_START = 1e-6
_BUCKET_GROWTH = 2.0
_BUCKET_COUNT = 28

#: The quantiles precomputed in both exposition formats.
QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in items)
    return "{" + body + "}"


class Histogram:
    """One log-bucketed latency distribution (one label set of a series).

    State is ``_BUCKET_COUNT + 1`` integers (the last is the +Inf overflow)
    plus ``count`` / ``total`` / ``minimum`` / ``maximum``; observations are
    an ``int(log2)`` and an increment — cheap enough for per-request use.
    """

    __slots__ = ("buckets", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets = [0] * (_BUCKET_COUNT + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        value = max(0.0, float(value))
        if value <= _BUCKET_START:
            index = 0
        else:
            index = int(math.log(value / _BUCKET_START, _BUCKET_GROWTH)) + 1
            if index > _BUCKET_COUNT:
                index = _BUCKET_COUNT
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @staticmethod
    def bound(index: int) -> float:
        """The inclusive upper bound of bucket ``index`` (+Inf for the last)."""
        if index >= _BUCKET_COUNT:
            return math.inf
        return _BUCKET_START * _BUCKET_GROWTH**index

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the buckets.

        Walks the cumulative counts to the target rank and interpolates
        geometrically inside the winning bucket; the estimate is exact to
        within one bucket ratio (factor 2), clamped to the observed
        min/max so tiny samples stay sensible.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            if bucket == 0:
                continue
            if seen + bucket >= target:
                upper = self.bound(index)
                lower = _BUCKET_START * _BUCKET_GROWTH ** (index - 1) if index else 0.0
                if math.isinf(upper):
                    return self.maximum
                fraction = (target - seen) / bucket
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            seen += bucket
        return self.maximum

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"<Histogram n={self.count} mean={self.mean:.6f}>"


class MetricsRegistry:
    """In-memory metrics store for one process.

    Series are keyed by ``(name, labels)``; ``name`` must come from
    :data:`METRIC_KEYS` (unknown names raise ``KeyError`` — the runtime
    twin of the RL003 static check).  Counters and gauges are floats,
    histograms :class:`Histogram` objects.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._counters: Dict[str, Dict[_LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[_LabelKey, Histogram]] = {}
        # Writes are read-modify-write sequences; the serving layer hits one
        # registry from dispatcher threads and thread-mode shard workers
        # concurrently, so each write takes this (uncontended-cheap) lock.
        self._write_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Write API
    # ------------------------------------------------------------------
    @staticmethod
    def _check(name: str) -> str:
        if name not in METRIC_KEYS:
            raise KeyError(
                f"metric name {name!r} is not registered in "
                "repro.obs.metrics.METRIC_KEYS; add a METRIC_* constant"
            )
        return name

    def inc(self, name: str, amount: float = 1, **labels: str) -> None:
        """Add ``amount`` to the counter series ``name`` at ``labels``."""
        series = self._counters.setdefault(self._check(name), {})
        key = _label_key(labels)
        with self._write_lock:
            series[key] = series.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge series ``name`` at ``labels`` to ``value``."""
        series = self._gauges.setdefault(self._check(name), {})
        with self._write_lock:
            series[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into the histogram series ``name``."""
        series = self._histograms.setdefault(self._check(name), {})
        key = _label_key(labels)
        with self._write_lock:
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: str) -> float:
        """Counter/gauge value at exactly ``labels`` (0.0 when unset)."""
        key = _label_key(labels)
        for table in (self._counters, self._gauges):
            series = table.get(name)
            if series is not None and key in series:
                return series[key]
        return 0.0

    def total(self, name: str) -> float:
        """Counter value summed over every label set of the series."""
        return sum(self._counters.get(name, {}).values())

    def histogram(self, name: str, **labels: str) -> Optional[Histogram]:
        """The histogram at exactly ``labels``, or ``None``."""
        return self._histograms.get(name, {}).get(_label_key(labels))

    def quantile(self, name: str, q: float, **labels: str) -> float:
        """Quantile estimate of a histogram series (0.0 when empty)."""
        histogram = self.histogram(name, **labels)
        return histogram.quantile(q) if histogram is not None else 0.0

    def counter_series(self, name: str) -> Dict[_LabelKey, float]:
        """Every label set of a counter series (a copy)."""
        return dict(self._counters.get(name, {}))

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Counters and gauges are one sample per label set; histograms emit
        cumulative ``_bucket{le=...}`` series, ``_sum``/``_count``, and
        derived ``_p50``/``_p90``/``_p99`` gauges (quantiles precomputed
        here because the scrape side of a log-bucketed histogram cannot
        beat the source's estimate).
        """
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(self._counters[name].items()):
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name in sorted(self._gauges):
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(self._gauges[name].items()):
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name in sorted(self._histograms):
            lines.append(f"# TYPE {name} histogram")
            for key, histogram in sorted(self._histograms[name].items()):
                cumulative = 0
                for index, bucket in enumerate(histogram.buckets):
                    cumulative += bucket
                    if bucket == 0 and index != len(histogram.buckets) - 1:
                        continue
                    bound = histogram.bound(index)
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_render_labels(key, [('le', le)])} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(key)} "
                    f"{_format_value(histogram.total)}"
                )
                lines.append(f"{name}_count{_render_labels(key)} {histogram.count}")
            for q in QUANTILES:
                suffix = f"_p{int(q * 100)}"
                lines.append(f"# TYPE {name}{suffix} gauge")
                for key, histogram in sorted(self._histograms[name].items()):
                    lines.append(
                        f"{name}{suffix}{_render_labels(key)} "
                        f"{_format_value(histogram.quantile(q))}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_records(self) -> List[Dict[str, object]]:
        """JSON-serialisable metric records (the JSONL exposition).

        Record shape matches the trace files' one-object-per-line
        convention (``type="metric"``), so a snapshot can be appended to a
        telemetry trace or written standalone with
        :func:`repro.obs.trace_io.write_trace`.
        """
        records: List[Dict[str, object]] = []
        for name in sorted(self._counters):
            for key, value in sorted(self._counters[name].items()):
                records.append(
                    {
                        "type": "metric",
                        "kind": "counter",
                        "name": name,
                        "labels": dict(key),
                        "value": value,
                    }
                )
        for name in sorted(self._gauges):
            for key, value in sorted(self._gauges[name].items()):
                records.append(
                    {
                        "type": "metric",
                        "kind": "gauge",
                        "name": name,
                        "labels": dict(key),
                        "value": value,
                    }
                )
        for name in sorted(self._histograms):
            for key, histogram in sorted(self._histograms[name].items()):
                records.append(
                    {
                        "type": "metric",
                        "kind": "histogram",
                        "name": name,
                        "labels": dict(key),
                        "count": histogram.count,
                        "sum": histogram.total,
                        "min": 0.0 if histogram.count == 0 else histogram.minimum,
                        "max": histogram.maximum,
                        "quantiles": {
                            f"p{int(q * 100)}": histogram.quantile(q)
                            for q in QUANTILES
                        },
                    }
                )
        return records

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_records` to ``path`` as JSON lines; returns count."""
        records = self.to_records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return len(records)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry label={self.label!r} "
            f"counters={len(self._counters)} gauges={len(self._gauges)} "
            f"histograms={len(self._histograms)}>"
        )


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# Process-global flag (same shape as the telemetry one)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[MetricsRegistry] = None


def enable_metrics(label: str = "") -> MetricsRegistry:
    """Turn metrics on for this process; returns the active registry.

    Re-enabling replaces the active registry (a fresh scrape surface), so
    long-lived processes can rotate without unbounded label growth.
    """
    global _ACTIVE
    _ACTIVE = MetricsRegistry(label=label)
    return _ACTIVE


def disable_metrics() -> Optional[MetricsRegistry]:
    """Turn metrics off; returns the registry that was active (if any)."""
    global _ACTIVE
    active, _ACTIVE = _ACTIVE, None
    return active


def get_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics are off.

    Like :func:`repro.obs.telemetry.get_telemetry`, this is the one check
    request-level code makes — bind the result once per request.
    """
    return _ACTIVE


class metrics_session:
    """Enable metrics for the block; yields the registry, disables on exit."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.registry: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self.registry = enable_metrics(self.label)
        return self.registry

    def __exit__(self, *exc: object) -> bool:
        global _ACTIVE
        if _ACTIVE is self.registry:
            disable_metrics()
        return False


# ---------------------------------------------------------------------------
# Prometheus text parsing (CI smoke + tests; not a full scraper)
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="([^"]*)"')


def parse_prometheus(
    text: str,
) -> Dict[Tuple[str, _LabelKey], float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    Strict on purpose — a malformed sample line raises ``ValueError`` so
    the CI smoke check fails loudly instead of silently skipping series.
    Comment (``#``) and blank lines are ignored.
    """
    samples: Dict[Tuple[str, _LabelKey], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        raw_labels = match.group("labels") or ""
        labels = _LABEL_RE.findall(raw_labels)
        rendered = "".join(f'{k}="{v}",' for k, v in labels)
        stripped = raw_labels.replace(" ", "")
        if stripped and stripped.rstrip(",") != rendered.rstrip(","):
            raise ValueError(f"malformed labels on line {lineno}: {line!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            if match.group("value") == "+Inf":
                value = math.inf
            elif match.group("value") == "-Inf":
                value = -math.inf
            else:
                raise ValueError(
                    f"malformed value on line {lineno}: {line!r}"
                ) from None
        samples[(match.group("name"), tuple(sorted(labels)))] = value
    return samples


def quantile_samples(
    samples: Dict[Tuple[str, _LabelKey], float], name: str, quantile: str
) -> List[float]:
    """All values of the ``<name>_<quantile>`` gauge series in ``samples``."""
    wanted = f"{name}_{quantile}"
    return [
        value for (sample_name, _), value in samples.items() if sample_name == wanted
    ]


def iter_series(
    samples: Dict[Tuple[str, _LabelKey], float], name: str
) -> Iterable[Tuple[_LabelKey, float]]:
    """Iterate the label sets of one series in a parsed exposition."""
    for (sample_name, labels), value in samples.items():
        if sample_name == name:
            yield labels, value
