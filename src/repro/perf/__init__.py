"""Performance subsystem: parallel per-component driving and regression tracking.

Two pieces live here:

* :func:`solve_by_components_parallel` — the multiprocessing twin of
  :func:`repro.core.components.solve_by_components`.  Components above a
  size threshold are shipped to worker processes as flat CSR byte buffers
  (no per-vertex Python objects cross the process boundary) and solved
  concurrently; small components are solved inline.  Algorithms can be
  passed by :data:`~repro.perf.parallel.ALGORITHM_BY_NAME` registry name
  (``"bdone"``, ``"linear_time"``, ``"near_linear"``), in which case only
  the name crosses the process boundary.  The merged result is
  field-for-field identical to the serial driver's, modulo the algorithm
  label and wall time.
* :mod:`repro.perf.bench_regression` — the perf-regression harness.  It
  times each flat-buffer backend against its oracle twin (BDOne,
  LinearTime, NearLinear and ARW-LT) on seeded generator graphs, plus the
  serving layer's repair and async front-end walls, writes a JSON report,
  and gates five tracks (LinearTime, NearLinear, ARW-LT,
  ServeIncremental, ServeLoad) against a committed baseline (used by the
  CI ``perf-smoke`` job).
"""

from .parallel import (
    ALGORITHM_BY_NAME,
    DEFAULT_PARALLEL_THRESHOLD,
    WorkerPool,
    decode_graph_payload,
    encode_graph_payload,
    solve_by_components_parallel,
)

__all__ = [
    "ALGORITHM_BY_NAME",
    "DEFAULT_PARALLEL_THRESHOLD",
    "WorkerPool",
    "decode_graph_payload",
    "encode_graph_payload",
    "solve_by_components_parallel",
]
