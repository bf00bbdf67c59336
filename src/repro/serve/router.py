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

All workers share one :class:`~repro.serve.cache.SharedCacheTier`
(a ``multiprocessing.Manager`` dict for process workers, a plain dict for
inline ones), so a graph solved by any worker is a cache hit for the
whole fleet — the "one kernel-cache tier" half of the sharding story.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from .cache import SharedCacheTier
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


def _config_payload(config: ServiceConfig) -> Dict[str, Any]:
    """The picklable field subset of a :class:`ServiceConfig`.

    ``workspace_factory`` is a live callable and cannot ride a spawn
    payload; process shards refuse it loudly rather than dropping it.
    """
    payload = dataclasses.asdict(config)
    if payload.pop("workspace_factory", None) is not None:
        raise ReproError(
            "process shard workers cannot ship a workspace_factory; "
            "use thread-mode shards for oracle workspaces"
        )
    return payload


def _shard_worker_main(
    conn: Any,
    shard: int,
    config_payload: Dict[str, Any],
    tier_store: Any,
    tier_lock: Any,
    tier_capacity: int,
) -> None:
    """Child-process shard loop: one service, one pipe, batches in FIFO.

    Module-level so both fork and spawn start methods can import it by
    reference.  The worker builds its *own* service and metrics registry
    (a child must never write the parent's), attaches the fleet-shared
    cache tier, and then answers ``(kind, payload)`` messages until a
    ``stop`` arrives or the pipe closes.
    """
    # Imported here, not at module top, purely for symmetry with the
    # handler's lazy CLI import chain; requests -> cli is cycle-prone.
    from .requests import handle_request

    service = SolverService(
        ServiceConfig(**config_payload),
        metrics=MetricsRegistry(label=f"shard-{shard}"),
    )
    service.cache.attach_tier(
        SharedCacheTier(tier_store, tier_lock, capacity=tier_capacity)
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
                conn.send(("ok", [handle_request(service, r) for r in payload]))
            elif kind == _MSG_COUNTERS:
                conn.send(("ok", service.counters()))
            else:
                conn.send(("err", f"ReproError: unknown shard message {kind!r}"))
        except Exception as exc:  # pragma: no cover - handler never raises
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


class InlineShardWorker:
    """A shard worker hosted in the router's own process.

    ``submit`` is serialized by a lock: the front-end runs one dispatcher
    per shard, but tests and the sync comparison path may call in from
    several threads at once.
    """

    def __init__(
        self,
        shard: int,
        config: ServiceConfig,
        tier: SharedCacheTier,
    ) -> None:
        self.shard = shard
        self.service = SolverService(
            config, metrics=MetricsRegistry(label=f"shard-{shard}")
        )
        self.service.cache.attach_tier(tier)
        self._lock = threading.Lock()

    def submit(self, batch: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Handle a request batch in order, returning one response each."""
        from .requests import handle_request

        with self._lock:
            return [handle_request(self.service, request) for request in batch]

    def counters(self) -> Dict[str, object]:
        """This shard's service + cache counters."""
        with self._lock:
            return self.service.counters()

    def close(self) -> None:
        """Nothing to tear down for an in-process worker."""


class ProcessShardWorker:
    """A shard worker living in a child process behind a duplex pipe."""

    def __init__(
        self,
        shard: int,
        config: ServiceConfig,
        tier_store: Any,
        tier_lock: Any,
        tier_capacity: int,
        start_method: Optional[str] = None,
    ) -> None:
        self.shard = shard
        ctx = multiprocessing.get_context(start_method)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                shard,
                _config_payload(config),
                tier_store,
                tier_lock,
                tier_capacity,
            ),
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
        ``"process"`` forks one child per shard for real CPU isolation.
    tier_capacity:
        Entry bound of the fleet-shared cache tier.
    start_method:
        Process-mode only; forwarded to :func:`multiprocessing.get_context`.
    """

    def __init__(
        self,
        shards: int = 1,
        config: Optional[ServiceConfig] = None,
        mode: str = "thread",
        tier_capacity: int = 512,
        start_method: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ReproError(f"shard count must be >= 1, got {shards}")
        if mode not in ("thread", "process"):
            raise ReproError(f"unknown shard mode {mode!r}; use thread|process")
        self.shards = shards
        self.mode = mode
        self.config = config or ServiceConfig()
        self._manager: Optional[Any] = None
        if mode == "process":
            self._manager = multiprocessing.Manager()
            tier_store: Any = self._manager.dict()
            tier_lock: Any = self._manager.Lock()
            self.tier = SharedCacheTier(tier_store, tier_lock, tier_capacity)
            self._workers: List[Any] = [
                ProcessShardWorker(
                    shard,
                    self.config,
                    tier_store,
                    tier_lock,
                    tier_capacity,
                    start_method=start_method,
                )
                for shard in range(shards)
            ]
        else:
            self.tier = SharedCacheTier(capacity=tier_capacity)
            self._workers = [
                InlineShardWorker(shard, self.config, self.tier)
                for shard in range(shards)
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

    def dispatch_all(
        self, requests: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Route a mixed request list, preserving input order in the output.

        Requests are grouped per shard (keeping each shard's FIFO order),
        dispatched shard by shard, and the responses reassembled into the
        input's positions.  This is the synchronous routing path — the
        async front-end drives :meth:`dispatch` itself for overlap.
        """
        by_shard: Dict[int, List[Tuple[int, Dict[str, object]]]] = {}
        for position, request in enumerate(requests):
            by_shard.setdefault(self.shard_for(request), []).append(
                (position, request)
            )
        responses: List[Optional[Dict[str, object]]] = [None] * len(requests)
        for shard, items in sorted(by_shard.items()):
            answers = self.dispatch(shard, [request for _, request in items])
            for (position, _), answer in zip(items, answers):
                responses[position] = answer
        return [response for response in responses if response is not None]

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
                for key in ("hits", "shared_hits", "misses", "evictions", "entries"):
                    totals[key] = totals.get(key, 0) + int(cache.get(key, 0))
        served = totals.get("hits", 0) + totals.get("shared_hits", 0)
        lookups = served + totals.get("misses", 0)
        return {
            "shards": self.shards,
            "mode": self.mode,
            "graphs": graphs,
            "cache": {
                **{key: int(value) for key, value in totals.items()},
                "hit_rate": (served / lookups) if lookups else 0.0,
                "tier_entries": len(self.tier),
            },
            "per_shard": per_shard,
        }

    def close(self) -> None:
        """Stop every worker and the manager (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ShardRouter shards={self.shards} mode={self.mode}>"
