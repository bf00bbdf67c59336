"""Seeded load generation for the serving stack, and its gated benchmark.

``repro loadgen`` replays a deterministic mixed workload — registers,
bursty solves, mutations, stats probes — against both serving paths and
reports what a capacity review needs: p50/p99 latency, request
throughput, shed rate, coalesce rate, and fleet cache hit rate.

Determinism is the point.  The workload is a pure function of
(:class:`LoadgenConfig`, seed): same seed, same graphs, same request
stream, same rids.  That is what lets the harness make the strong claim
the ``serve_load`` bench track gates on — the async front-end's answers
are compared *rid by rid* against the synchronous single-process
:class:`~repro.serve.service.SolverService` answers for the identical
stream, and must match exactly once provenance and timing fields
(``rid``/``elapsed``/``source``/``backend``/…) are stripped.  Those
fields legitimately differ: a coalesced follower inherits its leader's
``source``, a shard worker may repair where the sync service cold-solves
after an eviction — but the independent set, its bound, and the
exactness flags must be identical.

The workload is burst-shaped (``burst`` consecutive identical solves per
arrival) because that is the serving pattern the front-end is built for:
read-heavy traffic where many concurrent callers ask about the same
graph between mutations.  The sync service pays the full
fingerprint-and-lookup path per request; the front-end answers each
burst with one dispatch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..graphs.generators import gnp_random_graph
from .requests import handle_request
from .router import ShardRouter
from .service import ServiceConfig, SolverService

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "build_workload",
    "normalize_response",
    "replay_async",
    "replay_sync",
    "run_serve_load_benchmark",
]

#: Response fields that legitimately differ between serving paths:
#: request identity, timing, and answer *provenance* — everything except
#: the answer itself.
PROVENANCE_FIELDS = frozenset(
    {
        "rid",
        "elapsed",
        "source",
        "backend",
        "repair_scope",
        "coalesced",
        "shed",
        "stale",
    }
)


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one seeded workload (all counts are exact, not expected).

    ``requests`` counts the *stream* — the measured steady-state traffic.
    The ``graphs`` register requests and one warmup solve per graph ride
    ahead of it as untimed setup in every replay: the first cold solve is
    a cold-start cost every serving path pays identically, and exactly
    once per graph, so folding it into the throughput number would just
    dilute the comparison both paths are meant to expose.
    """

    seed: int = 2017
    graphs: int = 4
    vertices: int = 2500
    edge_probability: float = 0.008
    requests: int = 400
    burst: int = 8
    mutate_every: int = 6  # one mutation burst per this many arrivals
    stats_every: int = 25  # one stats probe per this many arrivals
    timeout: Optional[float] = None  # per-solve budget; None = unbounded
    tenants: int = 3

    def graph_specs(self) -> List[Tuple[str, int, float, int]]:
        """The (id, n, p, seed) of every registered graph."""
        if self.graphs < 1:
            raise ReproError(f"loadgen needs >= 1 graph, got {self.graphs}")
        if self.requests < 1 or self.burst < 1:
            raise ReproError(
                f"loadgen needs >= 1 request and burst, got "
                f"requests={self.requests} burst={self.burst}"
            )
        return [
            (f"g{index}", self.vertices, self.edge_probability, self.seed + index)
            for index in range(self.graphs)
        ]


@dataclass
class LoadgenReport:
    """One replay's measurements plus its normalized answers."""

    label: str
    wall: float
    latencies: List[float] = field(default_factory=list)
    responses: List[Dict[str, object]] = field(default_factory=list)
    measured: int = 0
    shed: int = 0
    coalesced: int = 0
    errors: int = 0
    cache_hit_rate: float = 0.0

    @property
    def throughput(self) -> float:
        """Stream requests per second (setup registers are untimed)."""
        return self.measured / self.wall if self.wall > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 1] (0.0 with no samples)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable summary (what ``repro loadgen`` prints)."""
        return {
            "label": self.label,
            "requests": len(self.responses),
            "measured": self.measured,
            "wall": self.wall,
            "throughput": self.throughput,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "shed": self.shed,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "cache_hit_rate": self.cache_hit_rate,
        }


def build_workload(config: LoadgenConfig) -> List[Dict[str, object]]:
    """The full deterministic request stream, registers first.

    Every request carries a stable ``rid`` (stream position) and a
    seeded ``tenant`` — the join keys for the equivalence check and for
    trace attribution.
    """
    rng = Random(config.seed)
    requests: List[Dict[str, object]] = []
    for graph_id, n, p, seed in config.graph_specs():
        graph = gnp_random_graph(n, p, seed=seed, name=graph_id)
        requests.append(
            {
                "op": "register",
                "id": graph_id,
                "rid": f"s{len(requests):06d}",
                "n": graph.n,
                "edges": [[u, v] for u, v in graph.edges()],
            }
        )
    # One warmup solve per graph rides in the setup prefix: it pays the
    # unavoidable first cold solve outside the measured window, so the
    # stream measures steady-state serving (the warmup *answers* still
    # join the equivalence check — they must match like any other rid).
    for graph_id, _, _, _ in config.graph_specs():
        requests.append(
            {"op": "solve", "id": graph_id, "rid": f"s{len(requests):06d}"}
        )
    graph_ids = [spec[0] for spec in config.graph_specs()]
    setup = len(requests)
    arrival = 0
    while len(requests) - setup < config.requests:
        arrival += 1
        graph_id = rng.choice(graph_ids)
        tenant = f"t{rng.randrange(config.tenants)}"
        if config.mutate_every and arrival % config.mutate_every == 0:
            u = rng.randrange(config.vertices)
            v = rng.randrange(config.vertices)
            if u != v:
                kind = "add_edge" if rng.random() < 0.7 else "remove_edge"
                requests.append(
                    {
                        "op": kind,
                        "id": graph_id,
                        "u": u,
                        "v": v,
                        "rid": f"r{len(requests):06d}",
                        "tenant": tenant,
                    }
                )
        elif config.stats_every and arrival % config.stats_every == 0:
            requests.append(
                {"op": "stats", "rid": f"r{len(requests):06d}", "tenant": tenant}
            )
        for _ in range(config.burst):
            if len(requests) - setup >= config.requests:
                break
            solve: Dict[str, object] = {
                "op": "solve",
                "id": graph_id,
                "rid": f"r{len(requests):06d}",
                "tenant": tenant,
            }
            if config.timeout is not None:
                solve["timeout"] = config.timeout
            requests.append(solve)
    return requests[: setup + config.requests]


def split_workload(
    workload: List[Dict[str, object]],
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """(setup, stream): the untimed warmup prefix vs the measured rest.

    Setup requests are marked by their ``s``-prefixed rids (registers plus
    one warmup solve per graph); the measured stream uses ``r`` rids.
    """
    setup: List[Dict[str, object]] = []
    for request in workload:
        if not str(request.get("rid", "")).startswith("s"):
            break
        setup.append(request)
    return setup, workload[len(setup):]


def normalize_response(response: Dict[str, object]) -> Dict[str, object]:
    """Strip provenance/timing so two serving paths can be compared.

    ``stats`` responses collapse to their envelope — the two paths
    legitimately report differently-shaped counters (single service vs
    aggregated fleet).
    """
    if response.get("op") == "stats":
        return {"op": "stats", "ok": response.get("ok")}
    return {
        key: value
        for key, value in response.items()
        if key not in PROVENANCE_FIELDS and key not in ("counters", "frontend")
    }


def replay_sync(
    workload: List[Dict[str, object]],
    service_config: Optional[ServiceConfig] = None,
    window: int = 64,
) -> LoadgenReport:
    """The baseline: one synchronous single-process service, in order.

    The setup prefix is executed untimed; the clock covers only the
    request stream.  Setup responses are still recorded so the
    equivalence check spans every rid.

    Latency is reported under the same closed-loop client model the async
    replay uses — ``window`` callers, each sending its next request when
    one completes.  Against a serial server that makes a request's
    latency the rolling sum of the last ``window`` service times (queue
    wait + service), which is what a caller actually experiences; bare
    per-call service time would flatter the baseline's tail by measuring
    an offered load of one.
    """
    service = SolverService(service_config or ServiceConfig())
    report = LoadgenReport(label="sync", wall=0.0)
    setup, stream = split_workload(workload)
    for request in setup:
        response = handle_request(service, request)
        report.responses.append(response)
        if not response.get("ok"):
            report.errors += 1
    service_seconds: List[float] = []
    started = time.perf_counter()
    for request in stream:
        t0 = time.perf_counter()
        response = handle_request(service, request)
        service_seconds.append(time.perf_counter() - t0)
        report.responses.append(response)
        if not response.get("ok"):
            report.errors += 1
    report.wall = time.perf_counter() - started
    report.measured = len(stream)
    rolling = 0.0
    for index, seconds in enumerate(service_seconds):
        rolling += seconds
        if index >= window:
            rolling -= service_seconds[index - window]
        report.latencies.append(rolling)
    cache = service.counters()["cache"]
    report.cache_hit_rate = float(cache["hit_rate"])  # type: ignore[index]
    return report


def replay_async(
    workload: List[Dict[str, object]],
    shards: int = 4,
    mode: str = "thread",
    max_batch: int = 32,
    max_queue_depth: int = 128,
    window: int = 64,
    service_config: Optional[ServiceConfig] = None,
) -> LoadgenReport:
    """Replay through the async front-end, pipelined but order-preserving.

    Requests are admitted in stream order (task creation order pins the
    enqueue order, so per-graph FIFO — the consistency contract — holds)
    with at most ``window`` outstanding at once: enough concurrency for
    micro-batching to engage, bounded so write verbs are never refused by
    a full queue during an equivalence run.
    """
    import asyncio

    from .frontend import AsyncFrontend

    report = LoadgenReport(label=f"async-{mode}-{shards}shard", wall=0.0)

    async def _run() -> None:
        router = ShardRouter(shards=shards, config=service_config, mode=mode)
        frontend = AsyncFrontend(
            router,
            max_queue_depth=max_queue_depth,
            max_batch=max_batch,
            own_router=True,
        )
        await frontend.start()
        loop = asyncio.get_running_loop()
        gate = asyncio.Semaphore(window)
        setup, stream = split_workload(workload)
        setup_responses = [await frontend.submit(request) for request in setup]
        slots: List[Optional[Dict[str, object]]] = [None] * len(stream)
        latencies: List[float] = [0.0] * len(stream)

        async def _one(position: int, request: Dict[str, object]) -> None:
            t0 = loop.time()
            try:
                slots[position] = await frontend.submit(request)
            finally:
                latencies[position] = loop.time() - t0
                gate.release()

        started = time.perf_counter()
        tasks = []
        for position, request in enumerate(stream):
            await gate.acquire()
            tasks.append(asyncio.create_task(_one(position, request)))
        await asyncio.gather(*tasks)
        report.wall = time.perf_counter() - started
        report.measured = len(stream)
        report.latencies = latencies
        report.responses = setup_responses + [
            slot for slot in slots if slot is not None
        ]
        report.errors = sum(
            1 for response in report.responses if not response.get("ok")
        )
        report.shed = sum(
            1 for response in report.responses if response.get("shed")
        )
        report.coalesced = sum(
            1 for response in report.responses if response.get("coalesced")
        )
        counters = router.counters()
        cache = counters.get("cache", {})
        if isinstance(cache, dict):
            report.cache_hit_rate = float(cache.get("hit_rate", 0.0))  # type: ignore[arg-type]
        await frontend.drain()

    asyncio.run(_run())
    return report


def compare_reports(
    baseline: LoadgenReport, candidate: LoadgenReport
) -> Dict[str, object]:
    """Rid-by-rid equivalence of two replays of the same workload."""
    by_rid = {
        str(response.get("rid")): normalize_response(response)
        for response in baseline.responses
    }
    mismatches: List[str] = []
    for response in candidate.responses:
        rid = str(response.get("rid"))
        expected = by_rid.get(rid)
        actual = normalize_response(response)
        if expected is None:
            mismatches.append(f"{rid}: missing in baseline")
        elif expected != actual:
            mismatches.append(
                f"{rid}: {json.dumps(expected, sort_keys=True)} != "
                f"{json.dumps(actual, sort_keys=True)}"
            )
    return {
        "equivalent": not mismatches,
        "compared": len(candidate.responses),
        "mismatches": mismatches[:10],
    }


def validate_shed_answers(
    workload: List[Dict[str, object]],
    shards: int = 2,
    mode: str = "thread",
) -> Dict[str, object]:
    """Force deadline shedding and check every shed answer is still valid.

    Replays with microscopic solve budgets and a tiny admission window so
    the estimated wait always exceeds the deadline; every shed response
    must still be ``ok`` with a real independent set (the stale-degradation
    promise), never an error.
    """
    squeezed: List[Dict[str, object]] = []
    for request in workload:
        if request.get("op") == "solve":
            tight = dict(request)
            tight["timeout"] = 1e-9
            squeezed.append(tight)
        else:
            squeezed.append(request)
    report = replay_async(
        squeezed,
        shards=shards,
        mode=mode,
        max_batch=4,
        max_queue_depth=8,
        window=8,
    )
    shed_ok = 0
    shed_bad = 0
    for response in report.responses:
        if not response.get("shed"):
            continue
        valid = (
            response.get("ok") is True
            and isinstance(response.get("independent_set"), list)
            and int(response.get("size", 0)) > 0  # type: ignore[arg-type]
        )
        if valid:
            shed_ok += 1
        else:
            shed_bad += 1
    return {
        "shed": report.shed,
        "shed_valid": shed_ok,
        "shed_invalid": shed_bad,
        "all_valid": report.shed > 0 and shed_bad == 0,
    }


def run_serve_load_benchmark(
    config: Optional[LoadgenConfig] = None,
    shards: int = 4,
    mode: str = "thread",
    service_config: Optional[ServiceConfig] = None,
) -> Dict[str, object]:
    """The ``serve_load`` gated-track payload: sync vs async, verified.

    Returns the record ``bench_regression`` commits — walls, latency
    percentiles, throughput speedup, the rid-by-rid equivalence verdict,
    and the shed-validity verdict.  Raises :class:`ReproError` if the
    equivalence check fails: a fast wrong answer must never become a
    committed baseline.
    """
    config = config or LoadgenConfig()
    workload = build_workload(config)
    sync_report = replay_sync(workload, service_config)
    async_report = replay_async(
        workload, shards=shards, mode=mode, service_config=service_config
    )
    equivalence = compare_reports(sync_report, async_report)
    if not equivalence["equivalent"]:
        raise ReproError(
            "serve_load equivalence failed: "
            + "; ".join(equivalence["mismatches"])  # type: ignore[arg-type]
        )
    shed_check = validate_shed_answers(workload, shards=min(2, shards), mode=mode)
    return {
        "config": {
            "seed": config.seed,
            "graphs": config.graphs,
            "vertices": config.vertices,
            "requests": config.requests,
            "burst": config.burst,
            "shards": shards,
            "mode": mode,
        },
        "sync": sync_report.to_payload(),
        "async": async_report.to_payload(),
        "sync_wall": sync_report.wall,
        "async_wall": async_report.wall,
        "speedup": (
            async_report.throughput / sync_report.throughput
            if sync_report.throughput
            else 0.0
        ),
        "equivalence": equivalence,
        "shed_check": shed_check,
    }
