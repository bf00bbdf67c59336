"""Observability subsystem: phase spans, peeling profiles, trace files.

Built for near-zero overhead when off: algorithms ask
:func:`get_telemetry` once per run, and a ``None`` return makes every phase
boundary a no-op.  When a sink is active they emit *phase-level*
spans (setup / reduce / replay / extend / swap-scan …) with rule-counter
snapshots and peeling-profile samples at the boundaries.  A traced run
runs the same drivers as an untraced one.

Entry points::

    from repro.obs import telemetry_session, write_trace, render_report

    with telemetry_session("my-run") as tele:
        result = linear_time(graph)
    write_trace("trace.jsonl", tele.to_records())
    print(render_report(tele.to_records()))

or from the shell::

    python -m repro solve graph.metis --algorithm LinearTime \\
        --telemetry trace.jsonl
    python -m repro obs report trace.jsonl
"""

from .instrument import traced_replay
from .memory import MemoryProbe, probe_record
from .metrics import (
    METRIC_KEYS,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_session,
    parse_prometheus,
)
from .report import profile_is_monotone, render_report, summarize
from .telemetry import (
    Span,
    Telemetry,
    disable,
    enable,
    get_telemetry,
    phase,
    telemetry_session,
)
from .trace_io import load_trace, write_trace

__all__ = [
    "METRIC_KEYS",
    "Histogram",
    "MemoryProbe",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "disable",
    "disable_metrics",
    "enable",
    "enable_metrics",
    "get_metrics",
    "get_telemetry",
    "load_trace",
    "metrics_session",
    "parse_prometheus",
    "phase",
    "probe_record",
    "profile_is_monotone",
    "render_report",
    "summarize",
    "telemetry_session",
    "traced_replay",
    "write_trace",
]
