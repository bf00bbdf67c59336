"""repro.serve — incremental solving service over the reducing-peeling core.

The one-shot solvers answer "what is a near-maximum independent set of this
graph?"; this package answers the production-shaped question "…and now the
graph changed, again" without paying a cold solve per query:

* :class:`~repro.serve.service.SolverService` — register graphs, query
  repeatedly, mutate between queries;
* :class:`~repro.serve.dynamic_graph.DynamicGraph` — the mutable front for
  the immutable CSR :class:`~repro.graphs.static_graph.Graph`;
* :class:`~repro.serve.cache.KernelCache` — bounded LRU of solved snapshots
  keyed by :func:`~repro.serve.fingerprint.graph_fingerprint`, one per
  service;
* :mod:`~repro.serve.repair` — localized repair of a solution around the
  mutated region;
* :mod:`~repro.serve.requests` — the JSONL request protocol behind
  ``repro serve``;
* :mod:`~repro.serve.router` — graph-id sharding across a worker fleet;
* :mod:`~repro.serve.frontend` — the asyncio front-end behind
  ``repro serve --async`` (admission control, micro-batching, shedding);
* :mod:`~repro.serve.loadgen` — the seeded load generator behind
  ``repro loadgen`` and the ``serve_load`` bench track.

See ``docs/serving.md`` for the full tour.
"""

from typing import Any

from .cache import CacheEntry, KernelCache
from .dynamic_graph import MUTATION_KINDS, DynamicGraph, Mutation
from .fingerprint import graph_fingerprint
from .loadgen import (
    LoadgenConfig,
    LoadgenReport,
    build_workload,
    run_serve_load_benchmark,
)
from .repair import RepairOutcome, cold_solve, patch_solution, repair_solution
from .requests import (
    MAX_REQUEST_BYTES,
    error_response,
    handle_request,
    parse_request_line,
    salvage_rid,
    serve_stream,
)
from .router import ShardRouter, shard_for
from .service import SNAPSHOT_VERSION, ServeResult, ServiceConfig, SolverService

_LAZY_FRONTEND = ("AsyncFrontend", "serve_forever")


def __getattr__(name: str) -> Any:
    # The asyncio front-end loads asyncio and ssl; resolve it on first use
    # so ``import repro`` (every file-solve process) does not pay for it.
    if name in _LAZY_FRONTEND:
        from . import frontend

        return getattr(frontend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsyncFrontend",
    "CacheEntry",
    "DynamicGraph",
    "KernelCache",
    "LoadgenConfig",
    "LoadgenReport",
    "MAX_REQUEST_BYTES",
    "MUTATION_KINDS",
    "Mutation",
    "RepairOutcome",
    "SNAPSHOT_VERSION",
    "ServeResult",
    "ServiceConfig",
    "ShardRouter",
    "SolverService",
    "build_workload",
    "cold_solve",
    "error_response",
    "graph_fingerprint",
    "handle_request",
    "parse_request_line",
    "patch_solution",
    "repair_solution",
    "run_serve_load_benchmark",
    "salvage_rid",
    "serve_forever",
    "serve_stream",
    "shard_for",
]
