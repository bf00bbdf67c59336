"""The asyncio serving front-end: admission → batch → shard → worker.

``repro serve --async`` boots this instead of the synchronous stream pump.
The front-end speaks the same JSONL rid/tenant wire protocol as
:mod:`repro.serve.requests` — over a TCP socket, one JSON object per line,
one response line per request — plus a minimal HTTP ``POST`` adapter for
curl-style callers.  Behind the protocol sit three stages:

1. **Admission** (:meth:`AsyncFrontend.submit`).  Every request lands in a
   per-shard queue.  A solve that would *wait past its own deadline*
   (estimated wait = queue depth × EWMA service time) is not queued behind
   the backlog: it is rewritten to a zero-budget solve and placed in the
   shard's express lane, so the worker's stale-degradation path answers it
   immediately with the patched last-known-good solution — a valid
   independent set, marked ``"shed": true`` — instead of a late answer or
   an error.  The same express path absorbs solves arriving at a full
   queue; non-degradable verbs (mutations, registers) get a structured
   ``admission queue full`` error because dropping them would lose writes.

2. **Micro-batching** (per-shard dispatcher).  Each shard has one
   dispatcher task that drains its lanes (express first) into a batch of
   at most ``max_batch`` requests and ships the batch over one
   worker round-trip.  Within a batch, *adjacent identical solves* — same
   graph, same timeout, nothing in between — collapse to one leader
   dispatch whose answer is copied to the followers (``"coalesced":
   true``); under a read-heavy burst the fleet pays one
   fingerprint + cache lookup for the whole run instead of one per
   request.  Adjacency is what makes this exact: a mutate between two
   solves breaks the run, so coalescing never reorders effects.

3. **Sharding** (:class:`~repro.serve.router.ShardRouter`).  Graph ids map
   to workers by stable hash; each dispatcher blocks in its own
   single-thread executor, so shards overlap while per-shard FIFO order —
   the protocol's consistency contract — is preserved end to end.

Shutdown is drain-first: :meth:`AsyncFrontend.drain` stops admission,
waits for every queued future, then stops the dispatchers — in-flight
requests complete, which is what the CLI's SIGTERM handler relies on.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import (
    METRIC_FRONTEND_BATCH_SIZE,
    METRIC_FRONTEND_BATCHES,
    METRIC_FRONTEND_COALESCED,
    METRIC_FRONTEND_CONNECTIONS,
    METRIC_FRONTEND_PROTOCOL_ERRORS,
    METRIC_FRONTEND_QUEUE_DEPTH,
    METRIC_FRONTEND_REQUEST_SECONDS,
    METRIC_FRONTEND_REQUESTS,
    METRIC_FRONTEND_SHED,
    MetricsRegistry,
    get_metrics,
)
from .requests import MAX_REQUEST_BYTES, error_response, parse_request_line, salvage_rid
from .router import ShardRouter

__all__ = ["AsyncFrontend", "serve_forever"]

#: Verbs that may be answered by the stale-degradation path instead of
#: queueing past their deadline.  Everything else mutates service state
#: and must either run or fail loudly.
_SHEDDABLE_OPS = frozenset({"solve", "upper_bound"})

#: EWMA smoothing for the per-shard service-time estimate that drives
#: deadline-aware admission.  0.2 ≈ the last ~10 batches dominate.
_EWMA_ALPHA = 0.2


class _Pending:
    """One admitted request waiting for its shard dispatcher."""

    __slots__ = ("request", "future", "enqueued_at", "shed")

    def __init__(
        self,
        request: Dict[str, object],
        future: "asyncio.Future[Dict[str, object]]",
        enqueued_at: float,
        shed: bool = False,
    ) -> None:
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at
        self.shed = shed


def _coalesce_key(request: Dict[str, object]) -> Optional[Tuple[object, ...]]:
    """The identity under which two adjacent requests share one dispatch.

    Only pure reads coalesce, and only when every field that changes the
    *answer* matches; rid/tenant are provenance, not answer inputs.
    """
    op = request.get("op")
    if op not in _SHEDDABLE_OPS:
        return None
    return (op, request.get("id"), request.get("timeout"))


class AsyncFrontend:
    """Admission control + micro-batching in front of a :class:`ShardRouter`.

    Parameters
    ----------
    router:
        The shard fleet; the front-end owns its lifecycle only if
        ``own_router`` (the CLI path) — tests pass a router they manage.
    max_queue_depth:
        Per-shard admitted-but-undispatched bound.  Solves past it are
        shed to the express lane; writes past it are refused.
    max_batch:
        Upper bound on one dispatcher drain (and so on one worker
        round-trip).
    metrics:
        Registry for the ``repro_frontend_*`` series; defaults to the
        process-global one when enabled.
    """

    def __init__(
        self,
        router: ShardRouter,
        max_queue_depth: int = 128,
        max_batch: int = 32,
        metrics: Optional[MetricsRegistry] = None,
        own_router: bool = False,
    ) -> None:
        if max_queue_depth < 1:
            raise ReproError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        self.router = router
        self.max_queue_depth = max_queue_depth
        self.max_batch = max_batch
        self.metrics = metrics or get_metrics() or MetricsRegistry(label="frontend")
        self._own_router = own_router
        shards = router.shards
        self._normal: List[Deque[_Pending]] = [deque() for _ in range(shards)]
        self._express: List[Deque[_Pending]] = [deque() for _ in range(shards)]
        self._wakeups: List[asyncio.Event] = []
        self._dispatchers: List["asyncio.Task[None]"] = []
        self._executors: List[ThreadPoolExecutor] = []
        self._ewma_seconds: List[float] = [0.0] * shards
        self._inflight: List[int] = [0] * shards
        self._draining = False
        self._started = False
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up one dispatcher task + executor per shard (idempotent)."""
        if self._started:
            return
        self._started = True
        for shard in range(self.router.shards):
            self._wakeups.append(asyncio.Event())
            self._executors.append(
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-dispatch-{shard}"
                )
            )
            self._dispatchers.append(
                asyncio.create_task(
                    self._dispatch_loop(shard), name=f"dispatch-{shard}"
                )
            )

    async def drain(self) -> None:
        """Stop admission, let every queued request finish, stop dispatchers."""
        self._draining = True
        # Queued entries still hold their futures; in-flight batches have
        # already left the queues, so poll the in-flight counters too.
        while any(
            self._queue_depth(shard) or self._inflight[shard]
            for shard in range(self.router.shards)
        ):
            await asyncio.sleep(0.01)
        for event in self._wakeups:
            event.set()  # unblock dispatchers so they can observe draining
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers.clear()
        for executor in self._executors:
            executor.shutdown(wait=True)
        self._executors.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._own_router:
            self.router.close()
        self._started = False

    # ------------------------------------------------------------------
    # Stage 1: admission
    # ------------------------------------------------------------------
    def _queue_depth(self, shard: int) -> int:
        return len(self._normal[shard]) + len(self._express[shard])

    def _estimated_wait(self, shard: int) -> float:
        return self._queue_depth(shard) * self._ewma_seconds[shard]

    async def submit(self, request: Dict[str, object]) -> Dict[str, object]:
        """Admit one request and await its response (the async entry point)."""
        op = request.get("op")
        self.metrics.inc(METRIC_FRONTEND_REQUESTS, op=str(op))
        if op == "ping":
            response: Dict[str, object] = {"op": "ping", "ok": True, "pong": True}
            if "rid" in request:
                response["rid"] = str(request["rid"])
            return response
        if op == "stats":
            return await self._stats(request)
        if self._draining:
            return error_response(
                "ReproError: server is draining, request refused",
                rid=str(request["rid"]) if "rid" in request else None,
                op=op,
            )
        loop = asyncio.get_running_loop()
        shard = self.router.shard_for(request)
        entry = _Pending(request, loop.create_future(), loop.time())
        depth = self._queue_depth(shard)
        sheddable = op in _SHEDDABLE_OPS
        over_depth = depth >= self.max_queue_depth
        timeout = request.get("timeout")
        past_deadline = (
            sheddable
            and timeout is not None
            and self._estimated_wait(shard) > float(timeout)  # type: ignore[arg-type]
        )
        if (over_depth or past_deadline) and sheddable:
            # Shed: answer from the degradation path *now* instead of
            # queueing past the deadline.  A zero budget makes the worker
            # return the patched last-known-good solution (or, for a
            # never-solved graph, solve it — there is nothing stale to
            # degrade to, and first-touch solves are exactly the cache
            # misses the tier amortizes).
            shed_request = dict(request)
            shed_request["timeout"] = 0.0
            entry = _Pending(shed_request, entry.future, entry.enqueued_at, shed=True)
            self._express[shard].append(entry)
            self.metrics.inc(METRIC_FRONTEND_SHED, shard=str(shard))
        elif over_depth:
            self.metrics.inc(METRIC_FRONTEND_SHED, shard=str(shard))
            return error_response(
                f"ReproError: admission queue full "
                f"(depth {depth} >= {self.max_queue_depth}) for op {op!r}",
                rid=str(request["rid"]) if "rid" in request else None,
                op=op,
            )
        else:
            self._normal[shard].append(entry)
        self.metrics.set_gauge(
            METRIC_FRONTEND_QUEUE_DEPTH, self._queue_depth(shard), shard=str(shard)
        )
        self._wakeups[shard].set()
        response = await entry.future
        self.metrics.observe(
            METRIC_FRONTEND_REQUEST_SECONDS, loop.time() - entry.enqueued_at
        )
        return response

    async def _stats(self, request: Dict[str, object]) -> Dict[str, object]:
        """Fleet-wide stats: aggregated router counters + front-end view."""
        loop = asyncio.get_running_loop()
        counters = await loop.run_in_executor(None, self.router.counters)
        response: Dict[str, object] = {
            "op": "stats",
            "ok": True,
            "counters": counters,
            "frontend": self.snapshot(),
        }
        if "rid" in request:
            response["rid"] = str(request["rid"])
        return response

    # ------------------------------------------------------------------
    # Stage 2 + 3: batching and dispatch
    # ------------------------------------------------------------------
    def _drain_batch(self, shard: int) -> List[_Pending]:
        batch: List[_Pending] = []
        for lane in (self._express[shard], self._normal[shard]):
            while lane and len(batch) < self.max_batch:
                batch.append(lane.popleft())
        return batch

    async def _dispatch_loop(self, shard: int) -> None:
        loop = asyncio.get_running_loop()
        executor = self._executors[shard]
        wakeup = self._wakeups[shard]
        while True:
            if not self._queue_depth(shard):
                wakeup.clear()
                await wakeup.wait()
            batch = self._drain_batch(shard)
            if not batch:
                continue
            self._inflight[shard] = len(batch)
            self.metrics.set_gauge(
                METRIC_FRONTEND_QUEUE_DEPTH,
                self._queue_depth(shard),
                shard=str(shard),
            )
            started = loop.time()
            leaders, followers = self._coalesce(batch)
            try:
                answers = await loop.run_in_executor(
                    executor,
                    self.router.dispatch,
                    shard,
                    [entry.request for entry in leaders],
                )
            except Exception as exc:  # noqa: BLE001 - futures must resolve
                failure = f"{type(exc).__name__}: {exc}"
                for entry in batch:
                    if not entry.future.done():
                        entry.future.set_result(
                            error_response(
                                failure,
                                rid=str(entry.request.get("rid"))
                                if "rid" in entry.request
                                else None,
                                op=entry.request.get("op"),
                            )
                        )
                self._inflight[shard] = 0
                continue
            elapsed = loop.time() - started
            if leaders:
                per_request = elapsed / len(leaders)
                previous = self._ewma_seconds[shard]
                self._ewma_seconds[shard] = (
                    per_request
                    if previous == 0.0
                    else previous + _EWMA_ALPHA * (per_request - previous)
                )
            self.metrics.inc(METRIC_FRONTEND_BATCHES, shard=str(shard))
            self.metrics.observe(METRIC_FRONTEND_BATCH_SIZE, len(batch))
            for entry, answer in zip(leaders, answers):
                entry.future.set_result(self._finish(entry, answer))
            for entry, leader_index in followers:
                self.metrics.inc(METRIC_FRONTEND_COALESCED, shard=str(shard))
                copied = dict(answers[leader_index])
                copied["coalesced"] = True
                if "rid" in entry.request:
                    copied["rid"] = str(entry.request["rid"])
                else:
                    copied.pop("rid", None)
                entry.future.set_result(self._finish(entry, copied))
            self._inflight[shard] = 0

    @staticmethod
    def _coalesce(
        batch: List[_Pending],
    ) -> Tuple[List[_Pending], List[Tuple[_Pending, int]]]:
        """Split a FIFO batch into dispatched leaders and copied followers.

        A follower is a request identical (same :func:`_coalesce_key`) to
        the *immediately preceding* leader — adjacency guarantees no write
        slid in between, so sharing the leader's answer is exact.
        """
        leaders: List[_Pending] = []
        followers: List[Tuple[_Pending, int]] = []
        previous_key: Optional[Tuple[object, ...]] = None
        for entry in batch:
            key = _coalesce_key(entry.request)
            if key is not None and key == previous_key and leaders:
                followers.append((entry, len(leaders) - 1))
            else:
                leaders.append(entry)
                previous_key = key
        return leaders, followers

    def _finish(
        self, entry: _Pending, answer: Dict[str, object]
    ) -> Dict[str, object]:
        if entry.shed:
            answer = dict(answer)
            answer["shed"] = True
        return answer

    # ------------------------------------------------------------------
    # Wire protocols
    # ------------------------------------------------------------------
    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen for JSONL (and HTTP POST) connections; returns (host, port)."""
        await self.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_REQUEST_BYTES + 4096
        )
        sockets = self._server.sockets or []
        address = sockets[0].getsockname()
        return str(address[0]), int(address[1])

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc(METRIC_FRONTEND_CONNECTIONS)
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(b"POST ") or first.startswith(b"GET "):
                await self._handle_http(first, reader, writer)
                return
            await self._handle_jsonl_line(first, writer)
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line with no newline in sight: answer
                    # structurally and hang up — the stream is unframed now.
                    self.metrics.inc(METRIC_FRONTEND_PROTOCOL_ERRORS)
                    self._write_json(
                        writer,
                        error_response(
                            f"ReproError: request line exceeds "
                            f"MAX_REQUEST_BYTES={MAX_REQUEST_BYTES}"
                        ),
                    )
                    break
                if not line:
                    break
                await self._handle_jsonl_line(line, writer)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_jsonl_line(
        self, raw: bytes, writer: asyncio.StreamWriter
    ) -> None:
        line = raw.decode("utf-8", errors="replace").strip()
        if not line or line.startswith("#"):
            return
        try:
            request = parse_request_line(line)
        except ReproError as exc:
            self.metrics.inc(METRIC_FRONTEND_PROTOCOL_ERRORS)
            self._write_json(writer, error_response(str(exc), rid=salvage_rid(line)))
            return
        response = await self.submit(request)
        self._write_json(writer, response)
        await writer.drain()

    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP adapter: POST body = JSONL requests, response = JSONL.

        One request-response exchange per connection (``Connection: close``)
        — enough for curl and smoke probes without an HTTP dependency.
        """
        try:
            method = first.split(b" ", 1)[0].decode("ascii", errors="replace")
            content_length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    content_length = int(value.strip())
            if method != "POST":
                body = b'{"ok": false, "error": "ReproError: POST JSONL only"}\n'
                status = "405 Method Not Allowed"
                self.metrics.inc(METRIC_FRONTEND_PROTOCOL_ERRORS)
            elif content_length > MAX_REQUEST_BYTES:
                body = json.dumps(
                    error_response(
                        f"ReproError: body too large ({content_length} bytes)"
                    ),
                    sort_keys=True,
                ).encode("utf-8") + b"\n"
                status = "413 Payload Too Large"
                self.metrics.inc(METRIC_FRONTEND_PROTOCOL_ERRORS)
            else:
                payload = await reader.readexactly(content_length)
                responses: List[bytes] = []
                for raw_line in payload.decode("utf-8", errors="replace").splitlines():
                    raw_line = raw_line.strip()
                    if not raw_line or raw_line.startswith("#"):
                        continue
                    try:
                        request = parse_request_line(raw_line)
                    except ReproError as exc:
                        self.metrics.inc(METRIC_FRONTEND_PROTOCOL_ERRORS)
                        response = error_response(str(exc), rid=salvage_rid(raw_line))
                    else:
                        response = await self.submit(request)
                    responses.append(
                        json.dumps(response, sort_keys=True).encode("utf-8")
                    )
                body = b"\n".join(responses) + (b"\n" if responses else b"")
                status = "200 OK"
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/x-ndjson\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + body)
            await writer.drain()
        except (asyncio.IncompleteReadError, ValueError):
            self.metrics.inc(METRIC_FRONTEND_PROTOCOL_ERRORS)

    @staticmethod
    def _write_json(writer: asyncio.StreamWriter, response: Dict[str, object]) -> None:
        writer.write(json.dumps(response, sort_keys=True).encode("utf-8") + b"\n")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Front-end counters as a JSON-serialisable dict."""
        return {
            "requests": self.metrics.total(METRIC_FRONTEND_REQUESTS),
            "shed": self.metrics.total(METRIC_FRONTEND_SHED),
            "batches": self.metrics.total(METRIC_FRONTEND_BATCHES),
            "coalesced": self.metrics.total(METRIC_FRONTEND_COALESCED),
            "protocol_errors": self.metrics.total(METRIC_FRONTEND_PROTOCOL_ERRORS),
            "queue_depths": [self._queue_depth(s) for s in range(self.router.shards)],
            "draining": self._draining,
        }


async def serve_forever(
    frontend: AsyncFrontend,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    stop: Optional[asyncio.Event] = None,
) -> Tuple[str, int]:
    """Boot the socket server and run until ``stop`` is set, then drain.

    ``ready`` is called with the bound ``(host, port)`` once listening —
    how the CLI and tests learn the ephemeral port.  Returns the bound
    address after shutdown.
    """
    bound = await frontend.start_server(host, port)
    if ready is not None:
        ready(bound)
    if stop is None:
        stop = asyncio.Event()
    await stop.wait()
    await frontend.drain()
    return bound
