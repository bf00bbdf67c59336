"""The serve-mixed workload: ``repro serve - --async --port 0`` under an open loop.

Setup writes the graph files, boots the server through the public CLI with
no tuning flags, registers every graph by path and warms each with one
cold solve.  The timed stream is seeded: requests are due at a fixed rate,
~70% solves and ~30% single-edge writes, over at most ``nproc`` (two)
connections from this one process.  Each graph is pinned to one
connection, and the server answers a connection in order, so every
graph sees its requests in stream order and every answer is
deterministic.  Latency is taken from each request's due time, so a
stall also delays the requests queued behind it; the sender's own
lateness is reported as ``loadgen.lag_p99_ms``.  No two identical solves
are ever queued together, so request coalescing cannot flatter the
figures.

Each latency is scaled by the speed of the server's CPU in the 0.1 s
around its due time, timed by ``probe.py`` running beside the server at
idle priority throughout the stream; set-up time is scaled by the
stream's overall speed.  At the end the server gets SIGTERM
and must drain and exit 0.  Every
answer is then checked against the benchmark's own mirror of each graph,
mutated in stream order.

The traced run adds two in-process replays of the same stream through
``AsyncFrontend`` over a ``ShardRouter`` built as the CLI builds them:
one plain, one with timers wrapped around the serving layers' public
calls.  Their difference is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from catalog import empty_metrics
from checks import Mirror, check_bound
from common import (
    ROOT,
    median,
    metric,
    note,
    percentile,
    program_env,
    result_line,
    sha256_file,
    sha256_lines,
)
from inputs import EdgeArrays, chung_lu, gnm, write_edge_list
from probe import scales as probe_scales
from tracing import Calls, Patches

#: Offered load and latency limit, frozen when the benchmark was defined: a
#: sequential one-connection probe answered ~240 requests/s on these graphs.
#: A quarter of that keeps queueing short enough for the tail to repeat
#: between runs; at 100/s and above the 5-seed spread of the p99 passed 0.25.
RATE_PER_S = 60.0
LIMIT_MS = 250.0
SOLVE_SHARE = 0.7
SETUP_REPEATS = 3
CONNECTIONS = 2
#: (id, family, n) of the registered graphs.
GRAPHS = tuple(
    (f"g{index}", "chung-lu" if index % 2 == 0 else "gnm", 8_000) for index in range(8)
)
TOY_N = 400
BOOT_TIMEOUT_S = 60.0
RESPONSE_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate_graphs(seed: int, toy: bool) -> Dict[str, EdgeArrays]:
    graphs = {}
    for index, (graph_id, family, n) in enumerate(GRAPHS):
        rng = np.random.default_rng([seed, 100 + index])
        size = TOY_N if toy else n
        graphs[graph_id] = chung_lu(size, 2.2, 6.0, rng) if family == "chung-lu" else gnm(size, 6.0, rng)
    return graphs


def build_stream(graphs: Dict[str, EdgeArrays], count: int, seed: int) -> List[Dict[str, Any]]:
    """``count`` seeded requests: solves, or an edge added or removed.

    The graphs take turns, and each graph's own requests are a seeded
    shuffle of an exact split into solves, additions and removals, so the
    work per graph does not drift with the seed.  Repairs after removals
    on the power-law graphs make most of the latency tail.
    """
    rng = random.Random(seed)
    ids = sorted(graphs)
    edges = {gid: list(zip(g.a.tolist(), g.b.tolist())) for gid, g in graphs.items()}
    present = {gid: {edge: i for i, edge in enumerate(edges[gid])} for gid in ids}
    plans = {}
    for position, gid in enumerate(ids):
        turns = len(range(position, count, len(ids)))
        solves = round(turns * SOLVE_SHARE)
        adds = (turns - solves) // 2
        plans[gid] = ["solve"] * solves + ["add"] * adds + ["remove"] * (turns - solves - adds)
        rng.shuffle(plans[gid])
    stream = []
    for k in range(count):
        gid = ids[k % len(ids)]
        request: Dict[str, Any] = {"op": "solve", "id": gid, "rid": f"r{k}"}
        plan = plans[gid][k // len(ids)]
        if plan != "solve":
            edge_list, index = edges[gid], present[gid]
            if plan == "add" or not edge_list:
                n = graphs[gid].n
                while True:
                    u, v = sorted(rng.sample(range(n), 2))
                    if (u, v) not in index:
                        break
                index[(u, v)] = len(edge_list)
                edge_list.append((u, v))
                request.update(op="add_edge", u=u, v=v)
            else:
                position = rng.randrange(len(edge_list))
                u, v = edge_list[position]
                last = edge_list.pop()
                del index[(u, v)]
                if position < len(edge_list):
                    edge_list[position] = last
                    index[last] = position
                request.update(op="remove_edge", u=u, v=v)
        stream.append(request)
    return stream


def connection_of(graph_id: str, connections: int) -> int:
    return [gid for gid, _, _ in GRAPHS].index(graph_id) % connections


# ----------------------------------------------------------------------
# The server process and the socket client
# ----------------------------------------------------------------------
def cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """One CPU for the server and another for this client, when there are two.

    The server's threads share one interpreter lock, so it runs on one CPU
    either way; keeping the load generator off that CPU stops the client
    from taking the server's time and stops the scheduler from moving the
    server between CPUs, which made the latency tail jump between runs.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class Server:
    """``python -m repro serve - --async --port 0``, started with no tuning flags."""

    def __init__(self, workdir: str, cpus: Optional[Set[int]]) -> None:
        self.log_path = os.path.join(workdir, f"server-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "-", "--async", "--port", "0"],
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.PIPE, text=True,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        self.stderr: List[str] = []
        self.port = self._await_port()
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        assert self.proc.stderr is not None
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            self.stderr.append(line)
            if "listening on" in line:
                return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError(f"server did not start: {''.join(self.stderr)}")

    def _pump(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[int]:
        """SIGTERM, then wait for the drain; returns the exit code (None: killed)."""
        code: Optional[int]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        self._log.close()
        return code


class Connection:
    """One JSONL connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=RESPONSE_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        return json.loads(self.reader.readline())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Probe:
    """``probe.py`` at ``SCHED_IDLE`` on the server's CPU for the length of the stream."""

    def __init__(self, cpus: Optional[Set[int]]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        assert self.proc.stdout is not None
        if self.proc.stdout.readline().strip() != "ready":
            self.kill()
            raise RuntimeError("the probe did not start")

    def stop(self) -> Dict[str, List[float]]:
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        return json.loads(out)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def boot(
    workdir: str, files: Dict[str, str], cpus: Optional[Set[int]]
) -> Tuple[Server, List[Connection], List[Dict[str, Any]]]:
    """Server boot, registers by path, one warm-up (cold) solve per graph."""
    server = Server(workdir, cpus)
    try:
        connections = [Connection(server.port) for _ in range(min(CONNECTIONS, os.cpu_count() or 1))]
        warm = []
        for graph_id, path in files.items():
            reply = connections[0].call({"op": "register", "id": graph_id, "path": path})
            if not reply.get("ok"):
                raise RuntimeError(f"register {graph_id} failed: {reply}")
        for graph_id in files:
            warm.append(connections[0].call({"op": "solve", "id": graph_id, "rid": f"warm-{graph_id}"}))
    except BaseException:
        server.stop()
        raise
    return server, connections, warm


def drive(
    connections: List[Connection], stream: List[Dict[str, Any]], rate: float
) -> Tuple[List[float], List[float], List[Optional[Tuple[float, bytes]]], float]:
    """Send ``stream`` open-loop at ``rate``; returns dues, sends, replies, start."""
    lines = [json.dumps(request).encode("utf-8") + b"\n" for request in stream]
    lanes = [connection_of(request["id"], len(connections)) for request in stream]
    pending: List[deque] = [deque() for _ in connections]
    replies: List[Optional[Tuple[float, bytes]]] = [None] * len(stream)
    expected = [lanes.count(lane) for lane in range(len(connections))]

    def receive(lane: int) -> None:
        reader = connections[lane].reader
        try:
            for _ in range(expected[lane]):
                line = reader.readline()
                if not line:
                    return
                replies[pending[lane].popleft()] = (time.perf_counter(), line)
        except OSError:
            return

    threads = [threading.Thread(target=receive, args=(lane,), daemon=True) for lane in range(len(connections))]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + 0.05
    dues = [start + k / rate for k in range(len(stream))]
    sends = [0.0] * len(stream)
    for k, line in enumerate(lines):
        wait = dues[k] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sends[k] = time.perf_counter()
        pending[lanes[k]].append(k)
        connections[lanes[k]].sock.sendall(line)
    for thread in threads:
        thread.join(timeout=RESPONSE_TIMEOUT_S)
    return dues, sends, replies, start


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def check_answers(
    graphs: Dict[str, EdgeArrays], stream: List[Dict[str, Any]],
    responses: List[Optional[Dict[str, Any]]], fault: Optional[str],
) -> Tuple[List[Optional[str]], List[int]]:
    """Per-request failure (``None`` when fine) and the graph's edge count at each request."""
    mirrors = {gid: Mirror(graph) for gid, graph in graphs.items()}
    last_good: Dict[str, Optional[Tuple[int, ...]]] = {gid: None for gid in graphs}
    problems: List[Optional[str]] = []
    edge_counts: List[int] = []
    corrupted = fault is None
    for request, response in zip(stream, responses):
        gid = request["id"]
        mirror = mirrors[gid]
        if request["op"] != "solve":
            mirror.apply(request["op"], request["u"], request["v"])
            last_good[gid] = None
        edge_counts.append(mirror.m)
        if response is None:
            problems.append("no response")
            continue
        if not response.get("ok"):
            problems.append(f"refused: {response.get('error')}")
            continue
        if response.get("rid") != request["rid"]:
            problems.append(f"rid {response.get('rid')} answered {request['rid']}")
            continue
        if request["op"] != "solve":
            problems.append(None)
            continue
        members = list(response["independent_set"])
        if not corrupted:
            corrupted = True
            members = members[1:] if fault == "drop" else members + [next(iter(mirror.adj[members[0]]))]
        problem = check_bound(len(members), response["upper_bound"], response["is_exact"])
        if problem is None and response["is_exact"] and not response["exact_bound"]:
            problem = "flagged exact without a certified bound"
        if problem is None and response.get("size") != len(members):
            problem = f"size {response.get('size')} but {len(members)} vertices"
        key = tuple(members)
        if problem is None and key != last_good[gid]:
            problem = mirror.check(members)
        if problem is None:
            last_good[gid] = key
        problems.append(problem)
    return problems, edge_counts


def _parse(raw: Optional[Tuple[float, bytes]]) -> Optional[Dict[str, Any]]:
    if raw is None:
        return None
    try:
        return json.loads(raw[1])
    except ValueError:
        return None


# ----------------------------------------------------------------------
# In-process replay for the per-layer figures
# ----------------------------------------------------------------------
def _trace_serving(calls: Calls, router: Any, patches: Patches) -> None:
    from repro.serve import dynamic_graph, requests, service

    patches.wrap(router, "dispatch", calls, "dispatch")
    patches.wrap(requests, "handle_request", calls, "handle")
    patches.wrap(service.SolverService, "solve", calls, lambda result: f"solve:{result.source}")
    patches.wrap(service.SolverService, "add_edge", calls, "mutate")
    patches.wrap(service.SolverService, "remove_edge", calls, "mutate")
    patches.wrap(dynamic_graph.DynamicGraph, "snapshot", calls, "snapshot")
    patches.wrap(dynamic_graph, "graph_fingerprint", calls, "fingerprint")


async def _replay_async(
    files: Dict[str, str], lanes: List[List[Tuple[int, str]]], traced: bool,
) -> Tuple[float, Calls, Dict[int, Dict[str, Any]]]:
    from repro import obs
    from repro.cli import build_parser
    from repro.serve import AsyncFrontend, ServiceConfig, ShardRouter
    from repro.serve.requests import parse_request_line

    if obs.get_telemetry() is not None or obs.get_metrics() is not None:
        raise RuntimeError("repro.obs telemetry/metrics active before the replay")
    args = build_parser().parse_args(["serve", "-", "--async"])
    config = ServiceConfig(
        algorithm=args.algorithm, cache_capacity=args.cache_capacity,
        dirty_threshold=args.dirty_threshold, repair_radius=args.repair_radius,
        default_timeout=args.timeout,
    )
    router = ShardRouter(shards=args.shards, config=config, mode=args.mode)
    frontend = AsyncFrontend(
        router, max_queue_depth=args.max_queue_depth, max_batch=args.max_batch, own_router=True
    )
    calls = Calls()
    patches = Patches()
    answers: Dict[int, Dict[str, Any]] = {}
    await frontend.start()
    try:
        for graph_id, path in files.items():
            await frontend.submit({"op": "register", "id": graph_id, "path": path})
            await frontend.submit({"op": "solve", "id": graph_id})
        if traced:
            _trace_serving(calls, router, patches)

        async def client(lane: List[Tuple[int, str]]) -> None:
            seconds = calls.seconds
            for k, line in lane:
                mark = time.perf_counter()
                request = parse_request_line(line)
                decoded = time.perf_counter()
                response = await frontend.submit(request)
                answered = time.perf_counter()
                json.dumps(response, sort_keys=True).encode("utf-8")
                seconds["codec"].append(decoded - mark + time.perf_counter() - answered)
                seconds["submit"].append(answered - decoded)
                answers[k] = response

        start = time.perf_counter()
        await asyncio.gather(*(client(lane) for lane in lanes))
        wall = time.perf_counter() - start
    finally:
        patches.undo()
        await frontend.drain()
    return wall, calls, answers


def replay(
    files: Dict[str, str], stream: List[Dict[str, Any]], connections: int, traced: bool
) -> Tuple[float, Calls, List[Optional[Dict[str, Any]]]]:
    lanes: List[List[Tuple[int, str]]] = [[] for _ in range(connections)]
    for k, request in enumerate(stream):
        lanes[connection_of(request["id"], connections)].append((k, json.dumps(request)))
    wall, calls, answers = asyncio.run(_replay_async(files, lanes, traced))
    return wall, calls, [answers.get(k) for k in range(len(stream))]


def _io_layers(files: Dict[str, str], out: Dict[str, Dict[str, Any]]) -> None:
    """Time the reader a register runs, with the CSR build split out."""
    import repro
    from repro.graphs.static_graph import Graph

    calls = Calls()
    patches = Patches()
    patches.wrap(Graph, "from_edges", calls, "csr")
    try:
        for path in files.values():
            mark = time.perf_counter()
            graph, _ = repro.read_edge_list(path)
            calls.seconds["read"].append(time.perf_counter() - mark)
            out["io.edges_read"]["value"] += graph.m
    finally:
        patches.undo()
    out["io.csr_build_s"]["value"] = calls.total("csr")
    out["io.parse_s"]["value"] = calls.total("read") - calls.total("csr")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run_serve_workload(
    seed: int, seconds: float, trace: bool, toy: bool, fault: Optional[str], workdir: str
) -> Dict[str, Any]:
    server_cpus, client_cpus = cpu_split()
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)
    setup: List[float] = []
    repeats = 1 if trace else SETUP_REPEATS
    for repeat in range(repeats):
        start = time.perf_counter()
        graphs = generate_graphs(seed, toy)
        files = {}
        for graph_id, graph in graphs.items():
            files[graph_id] = os.path.join(workdir, f"{graph_id}.txt")
            write_edge_list(files[graph_id], graph)
        server, connections, warm = boot(workdir, files, server_cpus)
        setup.append(time.perf_counter() - start)
        if repeat + 1 < repeats:
            for connection in connections:
                connection.close()
            if server.stop() != 0:
                raise RuntimeError(f"set-up server exited badly: {''.join(server.stderr)}")
    try:
        count = max(1, int(round(RATE_PER_S * seconds)))
        stream = build_stream(graphs, count, seed)
        hashes = {gid: sha256_file(path) for gid, path in files.items()}
        hashes["stream"] = sha256_lines(json.dumps(r, sort_keys=True) for r in stream)
        note(f"serve-mixed: {count} requests at {RATE_PER_S}/s over {len(connections)} "
             f"connection(s); sha256 {hashes}; raw setup={setup}")
        probe = Probe(server_cpus)
        try:
            dues, sends, replies, start = drive(connections, stream, RATE_PER_S)
            units = probe.stop()
        finally:
            probe.kill()
        stats = connections[0].call({"op": "stats"})
        rss_mb = server.peak_rss_mb()
    finally:
        for connection in connections:
            connection.close()
        exit_code = server.stop()
    busy = [(sends[k], reply[0]) for k, reply in enumerate(replies) if reply is not None]
    scales, scale, clean = probe_scales(units, busy, dues)
    responses = [_parse(reply) for reply in replies]
    problems, edge_counts = check_answers(graphs, stream, responses, fault)
    warm_problems = [None if w.get("ok") else f"warm-up refused: {w.get('error')}" for w in warm]
    shutdown_problem = None if exit_code == 0 else f"server exit code {exit_code} after SIGTERM"
    failures = [p for p in problems + warm_problems + [shutdown_problem] if p is not None]
    for k, problem in enumerate(problems):
        if problem is not None:
            note(f"FAILED {stream[k]['rid']} {stream[k]['op']} {stream[k]['id']}: {problem}")
    for problem in warm_problems + [shutdown_problem]:
        if problem is not None:
            note(f"FAILED {problem}")
    attempted = len(stream) + len(warm) + 1

    ok = [k for k, problem in enumerate(problems) if problem is None]
    raw_ms = {k: 1000.0 * (replies[k][0] - dues[k]) for k in ok}  # type: ignore[index]
    latency_ms = {k: value * scales[k] for k, value in raw_ms.items()}
    solves = [k for k in ok if stream[k]["op"] == "solve"]
    writes = [k for k in ok if stream[k]["op"] != "solve"]
    size = sum(responses[k]["size"] for k in solves)  # type: ignore[index]
    bound = sum(responses[k]["upper_bound"] for k in solves)  # type: ignore[index]
    if not trace:
        wall = max((replies[k][0] for k in ok), default=start) - start  # type: ignore[index]
        metrics = {
            "setup_s": metric(median(setup) * scale, "s"),
            "edges_per_s": metric(sum(edge_counts[k] for k in solves) / wall if wall > 0 else 0.0, "edges/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "mis_size": metric(size, "vertices"),
            "bound_ratio": metric(size / bound if bound else 0.0, "ratio"),
            "solve_p50_ms": metric(median([latency_ms[k] for k in solves]), "ms"),
            "req_p99_ms": metric(percentile(list(latency_ms.values()), 99), "ms"),
            "slo_frac": metric(sum(1 for v in raw_ms.values() if v <= LIMIT_MS) / len(stream), "ratio"),
        }
        note(f"serve-mixed: time scale {scale:.3f} from {clean} probe units "
             f"(per request {min(scales):.3f}-{max(scales):.3f}); "
             f"p50 solve {metrics['solve_p50_ms']['value']:.2f} ms, "
             f"p99 {metrics['req_p99_ms']['value']:.2f} ms over {len(latency_ms)} samples, "
             f"lag p99 {percentile([1000.0 * (s - d) for s, d in zip(sends, dues)], 99):.2f} ms")
        return dict(result_line(not failures, attempted, len(failures), metrics), inputs=hashes)

    metrics = empty_metrics("per_layer")
    sources = [responses[k].get("source") for k in solves]  # type: ignore[union-attr]
    regions = [responses[k]["repair_scope"]["region"] for k in solves  # type: ignore[index]
               if "repair_scope" in responses[k]]  # type: ignore[operator]
    frontend = stats.get("frontend", {})
    values = {
        "loadgen.lag_p99_ms": percentile([1000.0 * (s - d) for s, d in zip(sends, dues)], 99),
        "mutate_p50_ms": median([latency_ms[k] for k in writes]) if writes else 0.0,
        "fail_frac": len(failures) / attempted,
        "bound_gap": (bound - size) / bound if bound else 0.0,
        "req_samples": len(latency_ms),
        "serve.cache_hit_rate": sources.count("cache") / len(sources) if sources else 0.0,
        "serve.repair_frac": sources.count("repair") / len(sources) if sources else 0.0,
        "serve.repair_region": sum(regions) / len(regions) if regions else 0.0,
        "serve.coalesced": sum(1 for k in ok if responses[k].get("coalesced")),  # type: ignore[union-attr]
        "serve.shed": sum(1 for k in ok if responses[k].get("shed")),  # type: ignore[union-attr]
        "serve.batch_mean": (frontend.get("requests", 0) - 1) / frontend["batches"] if frontend.get("batches") else 0.0,
    }
    for name, value in values.items():
        metrics[name]["value"] = float(value)
    _io_layers(files, metrics)

    plain_wall, _, plain_answers = replay(files, stream, len(connections), traced=False)
    traced_wall, calls, traced_answers = replay(files, stream, len(connections), traced=True)
    for label, answers in (("plain replay", plain_answers), ("traced replay", traced_answers)):
        replay_problems, _ = check_answers(graphs, stream, answers, None)
        bad = [p for p in replay_problems if p is not None]
        attempted += len(stream)
        failures.extend(bad)
        if bad:
            note(f"FAILED {label}: {len(bad)} answers, first: {bad[0]}")
    metrics["fail_frac"]["value"] = len(failures) / attempted
    requests_replayed = len(stream)
    per_request = {
        "serve.codec_ms": calls.total("codec"),
        "serve.frontend_ms": calls.total("submit") - calls.total("dispatch"),
        "serve.router_ms": calls.total("dispatch") - calls.total("handle"),
    }
    for name, total in per_request.items():
        metrics[name]["value"] = 1000.0 * total / requests_replayed
    for name, layer in (
        ("serve.solve_cache_ms", "solve:cache"), ("serve.solve_repair_ms", "solve:repair"),
        ("serve.solve_cold_ms", "solve:cold"), ("serve.mutate_ms", "mutate"),
        ("serve.snapshot_ms", "snapshot"), ("serve.fingerprint_ms", "fingerprint"),
    ):
        metrics[name]["value"] = calls.mean_ms(layer)
    metrics["trace.overhead_s"]["value"] = traced_wall - plain_wall
    note(f"serve-mixed replay walls: plain {plain_wall:.3f}s traced {traced_wall:.3f}s")
    return dict(result_line(not failures, attempted, len(failures), metrics), inputs=hashes)
