"""Telemetry at the drivers' phase boundaries: replay and peeling profiles.

A traced run builds the same workspace and runs the same driver as an
untraced one; telemetry only reads the state the drivers leave at their
phase boundaries.

* :func:`traced_replay` is the one replay body: solution reconstruction
  (:meth:`~repro.core.trace.DecisionLog.resolve`) and the maximal-extension
  sweep run under ``replay`` / ``extend`` phases, which are no-ops when
  telemetry is off.
* :func:`profile_sample` appends one **peeling-profile** point —
  ``(events, live_vertices, live_edges, current_bound)`` — read from the
  workspace's O(1) live counters and its decision log.  ``events`` is the
  number of log entries so far; ``current_bound`` is
  ``includes_so_far + live_vertices``, a running upper bound on the final
  solution size.  The drivers sample after setup, at the end of the
  reduce phase (the stall, for a checkpointed run) and after a resume.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Any, List, Optional

from ..core.trace import INCLUDE, DecisionLog, ReplayOutcome, extend_to_maximal
from .telemetry import Telemetry, phase

__all__ = ["profile_sample", "traced_replay"]

_kind = itemgetter(0)


def profile_sample(samples: Optional[List[tuple]], workspace: Any) -> None:
    """Append ``workspace``'s current profile point to ``samples``.

    ``samples`` is the list :meth:`~repro.obs.telemetry.Telemetry.profile`
    returned, or ``None`` when telemetry is off (then this does nothing).
    Includes are counted over the log suffix after the previous sample, so
    a whole profile costs one pass over the log.
    """
    if samples is None:
        return
    entries = workspace.log.entries
    start = includes = 0
    if samples:
        start, live, _, bound = samples[-1]
        includes = bound - live
    includes += list(map(_kind, islice(entries, start, None))).count(INCLUDE)
    live = workspace.live_vertex_count
    samples.append((len(entries), live, workspace.live_edge_count(), includes + live))


def traced_replay(
    log: DecisionLog,
    graph,
    telemetry: Optional[Telemetry],
    algorithm: str,
    extend: bool = True,
) -> ReplayOutcome:
    """Replay a decision log under ``replay`` and ``extend`` phases.

    The body of :meth:`~repro.core.trace.DecisionLog.replay`; with a sink
    the two steps of solution reconstruction are timed separately, so a
    trace shows deferred-decision resolution apart from the
    maximal-extension sweep.
    """
    with phase(telemetry, "replay", algorithm=algorithm, graph=graph.name) as span:
        in_set, peeled = log.resolve(graph.n)
        span.meta["log_entries"] = len(log)
    if extend:
        with phase(telemetry, "extend", algorithm=algorithm, graph=graph.name):
            extend_to_maximal(in_set, graph)
    surviving = sum(1 for v in peeled if not in_set[v])
    return ReplayOutcome(in_set, len(peeled), surviving)
