"""Shard routing: per-tenant graph namespaces across a worker fleet.

The asyncio front-end (:mod:`repro.serve.frontend`) does not touch a
:class:`~repro.serve.service.SolverService` directly — it hands batches of
protocol requests to a :class:`ShardRouter`, which owns ``N`` shard
workers and maps every graph id to exactly one of them.  Placement is a
stable hash (CRC-32 of the graph id — deterministic across processes,
unlike the salted builtin ``hash``), so a graph's register, mutates and
solves all land on the same worker and per-graph request order is simply
per-shard FIFO order.

Two worker flavours implement the same ``submit(batch) -> responses``
surface:

* :class:`InlineShardWorker` — a service in the router's own process.
  Zero dispatch overhead; what tests and single-process serving use.
* :class:`ProcessShardWorker` — a child process running
  :func:`_shard_worker_main`, spoken to over a duplex pipe in
  ``(kind, payload)`` messages.  Each child hosts its own service and
  metrics registry.

Every worker keeps its own :class:`~repro.serve.cache.KernelCache`, and
there is no second level: a graph id is pinned to one shard, so that
shard's LRU already holds the graph's answers.  A process-mode router
runs exactly ``shards`` child processes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
# Called through the module, so a wrapper installed on
# ``requests.handle_request`` (a profiler's) also sees shard traffic.
from . import requests
from .service import ServiceConfig, SolverService

__all__ = [
    "InlineShardWorker",
    "ProcessShardWorker",
    "ShardRouter",
    "shard_for",
]

#: Pipe message kinds (parent -> worker): a request batch, a counters
#: probe, or an orderly stop.  Workers answer ``("ok", payload)`` or
#: ``("err", "ExcType: message")`` — an error answer never kills the
#: worker loop, mirroring the JSONL protocol's bad-request stance.
_MSG_BATCH = "batch"
_MSG_COUNTERS = "counters"
_MSG_STOP = "stop"


def shard_for(graph_id: str, shards: int) -> int:
    """Stable graph-id -> shard placement (CRC-32, not the salted hash)."""
    if shards <= 1:
        return 0
    return zlib.crc32(graph_id.encode("utf-8")) % shards


def _shard_worker_main(
    conn: Any, shard: int, config_payload: Dict[str, Any]
) -> None:
    """Child-process shard loop: one service, one pipe, batches in FIFO.

    Module-level so both fork and spawn start methods can import it by
    reference.  The worker builds its *own* service and metrics registry
    (a child must never write the parent's), and then answers
    ``(kind, payload)`` messages until a ``stop`` arrives or the pipe
    closes.
    """
    service = SolverService(
        ServiceConfig(**config_payload),
        metrics=MetricsRegistry(label=f"shard-{shard}"),
    )
    while True:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            break
        if kind == _MSG_STOP:
            conn.send(("ok", None))
            break
        try:
            if kind == _MSG_BATCH:
                conn.send(
                    ("ok", [requests.handle_request(service, r) for r in payload])
                )
            elif kind == _MSG_COUNTERS:
                conn.send(("ok", service.counters()))
            else:
                conn.send(("err", f"ReproError: unknown shard message {kind!r}"))
        except Exception as exc:  # pragma: no cover - handler never raises
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


class InlineShardWorker:
    """A shard worker hosted in the router's own process.

    ``submit`` is serialized by a lock: the front-end runs one dispatcher
    per shard, but its ``stats`` aggregation (:meth:`counters`, from an
    executor thread) and tests may call in from other threads at once.
    """

    def __init__(self, shard: int, config: ServiceConfig) -> None:
        self.shard = shard
        self.service = SolverService(
            config, metrics=MetricsRegistry(label=f"shard-{shard}")
        )
        self._lock = threading.Lock()

    def submit(self, batch: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Handle a request batch in order, returning one response each."""
        with self._lock:
            return [
                requests.handle_request(self.service, request) for request in batch
            ]

    def counters(self) -> Dict[str, object]:
        """This shard's service + cache counters."""
        with self._lock:
            return self.service.counters()

    def close(self) -> None:
        """Nothing to tear down for an in-process worker."""


class ProcessShardWorker:
    """A shard worker living in a child process behind a duplex pipe."""

    def __init__(self, shard: int, config: ServiceConfig) -> None:
        self.shard = shard
        self._conn, child_conn = multiprocessing.Pipe(duplex=True)
        self._process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(child_conn, shard, dataclasses.asdict(config)),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._lock = threading.Lock()

    def _call(self, kind: str, payload: object) -> Any:
        with self._lock:
            if not self._process.is_alive() and kind != _MSG_STOP:
                raise ReproError(f"shard {self.shard} worker is not running")
            self._conn.send((kind, payload))
            status, answer = self._conn.recv()
        if status != "ok":
            raise ReproError(f"shard {self.shard} worker error: {answer}")
        return answer

    def submit(self, batch: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Ship a request batch to the child; blocks for its responses."""
        responses = self._call(_MSG_BATCH, batch)
        return list(responses)

    def counters(self) -> Dict[str, object]:
        """This shard's service + cache counters (fetched from the child)."""
        counters = self._call(_MSG_COUNTERS, None)
        return dict(counters)

    def close(self) -> None:
        """Stop the child process (orderly, falling back to terminate)."""
        try:
            self._call(_MSG_STOP, None)
        except (ReproError, EOFError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()


class ShardRouter:
    """Dispatch protocol requests across ``shards`` workers by graph id.

    Parameters
    ----------
    shards:
        Worker count.  Shard placement is :func:`shard_for`; requests with
        no graph id (``stats``, ``save``, ``ping``) go to shard 0 unless
        the caller aggregates across shards itself (the front-end does,
        for ``stats``).
    config:
        Per-worker :class:`ServiceConfig`; every shard gets the same one.
    mode:
        ``"thread"`` hosts every shard in-process (cheap, what tests use);
        ``"process"`` starts one child per shard for real CPU isolation.
    """

    def __init__(
        self,
        shards: int = 1,
        config: Optional[ServiceConfig] = None,
        mode: str = "thread",
    ) -> None:
        if shards < 1:
            raise ReproError(f"shard count must be >= 1, got {shards}")
        if mode not in ("thread", "process"):
            raise ReproError(f"unknown shard mode {mode!r}; use thread|process")
        self.shards = shards
        self.mode = mode
        self.config = config or ServiceConfig()
        worker: Callable[[int, ServiceConfig], Any] = (
            ProcessShardWorker if mode == "process" else InlineShardWorker
        )
        self._workers: List[Any] = [
            worker(shard, self.config) for shard in range(shards)
        ]
        self._closed = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, request: Dict[str, object]) -> int:
        """The shard a request belongs to (graph-id hash; 0 if id-less)."""
        graph_id = request.get("id")
        if graph_id is None:
            return 0
        return shard_for(str(graph_id), self.shards)

    def dispatch(
        self, shard: int, batch: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Run a batch on one shard worker, in order; blocks for answers."""
        return self._workers[shard].submit(batch)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Aggregated + per-shard counters (cache totals summed fleet-wide)."""
        per_shard = [worker.counters() for worker in self._workers]
        totals: Dict[str, float] = {}
        graphs = 0
        for counters in per_shard:
            graphs += int(counters.get("graphs", 0))  # type: ignore[arg-type]
            cache = counters.get("cache", {})
            if isinstance(cache, dict):
                for key in ("hits", "misses", "evictions", "entries"):
                    totals[key] = totals.get(key, 0) + int(cache.get(key, 0))
        hits = totals.get("hits", 0)
        lookups = hits + totals.get("misses", 0)
        return {
            "shards": self.shards,
            "mode": self.mode,
            "graphs": graphs,
            "cache": {
                **{key: int(value) for key, value in totals.items()},
                "hit_rate": (hits / lookups) if lookups else 0.0,
            },
            "per_shard": per_shard,
        }

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ShardRouter shards={self.shards} mode={self.mode}>"
