"""A reference loop that runs beside the server and times its CPU throughout a stream.

    python3 perfbench/probe.py        # runs until SIGTERM, then prints JSON

The serve workload's server shares a CPU whose speed wanders by up to 2x
from one second to the next, and the wander on one CPU of a shared host
does not follow the other's.  Reference samples taken only before and
after a stream therefore missed the speed the stream itself ran at.

So the probe runs on the server's CPU for the whole stream, at
``SCHED_IDLE``: the server preempts it the moment it has work, and the
probe only uses time the server leaves idle.  It runs short units, each a
depth-first sweep over a small fixed graph, and records when each began
and ended.  A unit that overlapped a request in flight may have been
preempted, so :func:`scales` drops it; the units left time the CPU alone,
whatever the program does.  The units within ``WINDOW_S / 2`` of a
request's due time give its scale, ``NOMINAL_UNIT_S / median(unit walls)``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Median wall of one unit on an idle CPU of the host where the benchmark
#: was defined (2-vCPU x86-64 VM at 2.1 GHz, CPython 3.11).
NOMINAL_UNIT_S = 0.00037
SIZE = 1_000
#: Width of the windows a scale is taken over, and the fewest clean units
#: a window needs; a thinner window takes the whole stream's scale.  The
#: speed moves within a second: over eight runs, windows of 1 s, 0.25 s
#: and 0.1 s left spreads of 0.083, 0.071 and 0.027 in ``req_p99_ms``.
WINDOW_S = 0.1
MIN_UNITS = 20
#: Server work just outside a request's send-to-reply span (parsing before
#: the client's send returns, bookkeeping after the reply) is covered too.
MARGIN_S = 0.0005


def run_probe() -> Dict[str, List[float]]:
    """Run units until SIGTERM; returns their start and end times."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    rng = random.Random(2017)
    adj = [[rng.randrange(SIZE) for _ in range(6)] for _ in range(SIZE)]
    starts: List[float] = []
    ends: List[float] = []
    gc.disable()
    print("ready", flush=True)
    while not stop:
        start = time.perf_counter()
        seen = bytearray(SIZE)
        order = []
        for root in range(SIZE):
            if seen[root]:
                continue
            seen[root] = 1
            stack = [root]
            while stack:
                u = stack.pop()
                order.append(u)
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)
        starts.append(start)
        ends.append(time.perf_counter())
    return {"start": starts, "end": ends}


def scales(
    units: Dict[str, List[float]], busy: Sequence[Tuple[float, float]], times: Sequence[float]
) -> Tuple[List[float], float, int]:
    """Scale at each of ``times``, the whole stream's scale, and the clean units used.

    ``busy`` holds the client's send-to-reply span of every request; a
    unit that overlaps one (widened by ``MARGIN_S``) is dropped.  All
    times are ``time.perf_counter()`` readings, which on Linux come from
    one system-wide monotonic clock.
    """
    starts = np.asarray(units["start"])
    ends = np.asarray(units["end"])
    spans = sorted((lo - MARGIN_S, hi + MARGIN_S) for lo, hi in busy)
    merged: List[List[float]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if merged:
        lows, highs = np.asarray(merged).T
        index = np.searchsorted(highs, starts)
        overlapped = index < len(highs)
        overlapped[overlapped] = lows[index[overlapped]] <= ends[overlapped]
        clean = ~overlapped
    else:
        clean = np.ones(len(starts), dtype=bool)
    starts, walls = starts[clean], (ends - starts)[clean]
    if not len(walls):
        raise RuntimeError("the probe recorded no unit clear of the requests")
    whole = NOMINAL_UNIT_S / float(np.median(walls))
    result = []
    for moment in times:
        window = walls[np.abs(starts - moment) <= WINDOW_S / 2]
        result.append(NOMINAL_UNIT_S / float(np.median(window)) if len(window) >= MIN_UNITS else whole)
    return result, whole, int(len(walls))


if __name__ == "__main__":
    json.dump(run_probe(), sys.stdout)
