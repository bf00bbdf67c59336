"""JSON-lines trace emission and loading.

A *trace* is a sequence of JSON records, one per line — the format every
observability stack speaks natively and ``jq`` chews through.  Record
``type``s: ``meta`` (run header), ``span``, ``counters``, ``timer``,
``profile``, ``memory``, plus anything a caller appends via
:meth:`~repro.obs.telemetry.Telemetry.record`.

Every span and profile record carries the ``pid`` of the process that
made it, and spans opened under :meth:`~repro.obs.telemetry.Telemetry.scoped`
carry its fields (``component``, request id, tenant), which is what the
report's per-component and per-request sections read.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

__all__ = ["write_trace", "load_trace"]


def write_trace(path: str, records: Iterable[Dict[str, object]]) -> int:
    """Write trace records to ``path`` as JSON lines; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_trace(path: str) -> List[Dict[str, object]]:
    """Read a JSON-lines trace back into a record list (blank lines skipped)."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
