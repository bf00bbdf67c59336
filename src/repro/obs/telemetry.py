"""Telemetry primitives: spans, counters, timers, and the process flag.

The paper's claims are per-phase — reducing vs. peeling work ratios, the
Theorem-6.1 certificate, the 2m/4m/6m space envelopes — so the drivers need
a way to say *where* time and work went without paying for it when nobody
is looking.  The design rules:

* **one global check per driver run.**  Drivers call :func:`get_telemetry`
  exactly once at entry; a ``None`` return is the entire disabled-mode cost.
  No per-reduction branches, no per-event callbacks — the flat hot loops
  stay flat.
* **spans are phase-level**, not event-level.  A span covers a contiguous
  phase (setup / reduce / replay / extend / swap-scan …); the reducing vs.
  peeling breakdown comes from snapshotting the decision log's rule
  counters at the phase boundary, which is one dict copy per phase.
* **timers aggregate repeated phases.**  ARW's per-iteration swap scans
  would explode into thousands of spans; a timer keeps ``(count, total)``
  per name instead.

Everything is in-memory until :meth:`Telemetry.to_records` serialises it
for the JSON-lines emitter (:mod:`repro.obs.trace_io`).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "Telemetry",
    "enable",
    "disable",
    "get_telemetry",
    "telemetry_session",
    "phase",
]


class Span:
    """One timed phase.  ``meta`` stays mutable inside the ``with`` block so
    drivers can attach counter snapshots at the phase boundary."""

    __slots__ = ("name", "start", "wall", "meta", "pid", "depth")

    def __init__(self, name: str, meta: Dict[str, object]) -> None:
        self.name = name
        self.meta = meta
        self.start = 0.0
        self.wall = 0.0
        self.pid = os.getpid()
        self.depth = 0

    def to_record(self) -> Dict[str, object]:
        """The JSON-serialisable trace record for this span."""
        record: Dict[str, object] = {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "wall": self.wall,
            "pid": self.pid,
            "depth": self.depth,
        }
        if self.meta:
            record["meta"] = self.meta
        return record

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.wall * 1e3:.2f}ms depth={self.depth}>"


class _NoopSpan:
    """Stand-in yielded by :func:`phase` when telemetry is disabled; absorbs
    ``meta`` writes so drivers keep a single code path."""

    __slots__ = ("meta",)

    def __init__(self) -> None:
        self.meta: Dict[str, object] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class Telemetry:
    """In-memory telemetry sink for one process.

    Attributes
    ----------
    label:
        Free-form run label.
    spans / counters / timers / profiles / extra:
        The collected primitives; ``extra`` holds free-form records such as
        memory probes.
    context:
        Fields stamped onto every span created while set (see
        :meth:`scoped`) — the service uses it for per-request attribution
        and repair for per-component attribution.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.started_at = time.time()
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, List[float]] = {}  # name -> [count, total]
        self.profiles: List[Dict[str, object]] = []
        self.extra: List[Dict[str, object]] = []
        self.context: Dict[str, object] = {}
        self._depth = 0

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **meta):
        """Record a phase span around the ``with`` body.

        The span is appended on exit (even if the body raises, so partial
        runs still leave a trace).  Nested spans record their depth; the
        summaries sum depth-0 spans only, keeping nested totals honest.
        """
        if self.context:
            merged = dict(self.context)
            merged.update(meta)
            meta = merged
        span = Span(name, meta)
        span.depth = self._depth
        self._depth += 1
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            now = time.perf_counter()
            span.start = t0 - self.origin
            span.wall = now - t0
            span.pid = os.getpid()
            self._depth -= 1
            self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump the named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_counters(self, stats: Dict[str, int]) -> None:
        """Merge a counter dict (e.g. a decision log's rule stats)."""
        counters = self.counters
        for key, amount in stats.items():
            counters[key] = counters.get(key, 0) + amount

    def timer(self, name: str, seconds: float) -> None:
        """Accumulate one observation into the named aggregate timer."""
        cell = self.timers.get(name)
        if cell is None:
            self.timers[name] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    @contextmanager
    def timed(self, name: str):
        """Context-manager sugar over :meth:`timer`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timer(name, time.perf_counter() - t0)

    def profile(self, algorithm: str, graph: str) -> List[tuple]:
        """Open a peeling-profile record; returns the mutable sample list.

        Samples are ``(events, live_vertices, live_edges, current_bound)``
        tuples the drivers append at their phase boundaries
        (:func:`repro.obs.instrument.profile_sample`).
        """
        samples: List[tuple] = []
        record: Dict[str, object] = {
            "type": "profile",
            "algorithm": algorithm,
            "graph": graph,
            "pid": os.getpid(),
            "samples": samples,
        }
        if self.context:
            record.update(
                (k, v) for k, v in self.context.items() if k not in record
            )
        self.profiles.append(record)
        return samples

    def record(self, record: Dict[str, object]) -> None:
        """Append a free-form record (memory probes …).

        Like spans and profiles, the record is stamped with the active
        :meth:`scoped` context fields (request id, tenant, component) —
        keys the record already carries win.
        """
        if self.context:
            record.update(
                (k, v) for k, v in self.context.items() if k not in record
            )
        self.extra.append(record)

    # ------------------------------------------------------------------
    # Context stamping
    # ------------------------------------------------------------------
    @contextmanager
    def scoped(self, **fields):
        """Stamp ``fields`` onto every span/profile opened in the block."""
        previous = self.context
        merged = dict(previous)
        merged.update(fields)
        self.context = merged
        try:
            yield
        finally:
            self.context = previous

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, object]]:
        """Every collected primitive as JSON-serialisable trace records.

        The first record is the run ``meta`` line; counters and timers are
        emitted as one record each so small traces stay small.
        """
        records: List[Dict[str, object]] = [
            {
                "type": "meta",
                "label": self.label,
                "pid": self.pid,
                "started_at": self.started_at,
            }
        ]
        records.extend(span.to_record() for span in self.spans)
        if self.counters:
            records.append(
                {"type": "counters", "pid": self.pid, "values": dict(self.counters)}
            )
        for name, (count, total) in sorted(self.timers.items()):
            records.append(
                {
                    "type": "timer",
                    "name": name,
                    "pid": self.pid,
                    "count": count,
                    "total": total,
                }
            )
        records.extend(self.profiles)
        records.extend(self.extra)
        return records

    def span_total(self, depth: int = 0) -> float:
        """Sum of wall seconds over spans at the given nesting depth."""
        return sum(span.wall for span in self.spans if span.depth == depth)

    def __repr__(self) -> str:
        return (
            f"<Telemetry label={self.label!r} spans={len(self.spans)} "
            f"counters={len(self.counters)} profiles={len(self.profiles)}>"
        )


# ---------------------------------------------------------------------------
# Process-global flag
# ---------------------------------------------------------------------------
_ACTIVE: Optional[Telemetry] = None


def enable(label: str = "") -> Telemetry:
    """Turn telemetry on for this process; returns the active sink.

    Re-enabling replaces the active sink.
    """
    global _ACTIVE
    _ACTIVE = Telemetry(label=label)
    return _ACTIVE


def disable() -> Optional[Telemetry]:
    """Turn telemetry off; returns the sink that was active (if any)."""
    global _ACTIVE
    active, _ACTIVE = _ACTIVE, None
    return active


def get_telemetry() -> Optional[Telemetry]:
    """The active sink, or ``None`` when telemetry is off.

    This is the one check drivers make per run — bind the result to a local
    and branch on it at phase boundaries only.
    """
    return _ACTIVE


@contextmanager
def telemetry_session(label: str = ""):
    """Enable telemetry for the block; yields the sink, disables on exit."""
    telemetry = enable(label=label)
    try:
        yield telemetry
    finally:
        if _ACTIVE is telemetry:
            disable()


def phase(telemetry: Optional[Telemetry], name: str, **meta):
    """A span when telemetry is on, a no-op context otherwise.

    Lets drivers keep one code path: ``with phase(tele, "reduce") as sp``
    costs a tiny throwaway object when disabled and a real span when
    enabled.  Only for phase boundaries — never call this per event.
    """
    if telemetry is None:
        return _NoopSpan()
    return telemetry.span(name, **meta)
