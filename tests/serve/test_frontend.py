"""The asyncio front-end: admission, batching, shedding, wire protocols."""

import asyncio
import json

import pytest

from repro.errors import ReproError
from repro.serve import AsyncFrontend, ServiceConfig, ShardRouter, serve_forever


def register(graph_id, rid="r0"):
    return {
        "op": "register",
        "id": graph_id,
        "n": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
        "rid": rid,
    }


def solve(graph_id, rid="r1", **extra):
    request = {"op": "solve", "id": graph_id, "rid": rid}
    request.update(extra)
    return request


def run(coro):
    return asyncio.run(coro)


async def with_frontend(body, shards=2, **kwargs):
    router = ShardRouter(shards=shards, config=ServiceConfig())
    frontend = AsyncFrontend(router, own_router=True, **kwargs)
    await frontend.start()
    try:
        return await body(frontend)
    finally:
        await frontend.drain()


class TestSubmit:
    def test_round_trip(self):
        async def body(frontend):
            assert (await frontend.submit(register("g")))["ok"]
            response = await frontend.submit(solve("g"))
            assert response["ok"] and response["size"] == 3
            assert response["rid"] == "r1"

        run(with_frontend(body))

    def test_ping_answers_inline(self):
        async def body(frontend):
            response = await frontend.submit({"op": "ping", "rid": "p"})
            assert response["pong"] and response["rid"] == "p"

        run(with_frontend(body))

    def test_stats_aggregates_fleet(self):
        async def body(frontend):
            await frontend.submit(register("g"))
            response = await frontend.submit({"op": "stats", "rid": "s"})
            assert response["ok"]
            assert response["counters"]["graphs"] == 1
            assert response["frontend"]["requests"] >= 2

        run(with_frontend(body))

    def test_errors_stay_structured(self):
        async def body(frontend):
            response = await frontend.submit(solve("missing"))
            assert response["ok"] is False and "error" in response

        run(with_frontend(body))

    def test_concurrent_bursts_coalesce(self):
        async def body(frontend):
            await frontend.submit(register("g"))
            await frontend.submit(solve("g", "warm"))
            responses = await asyncio.gather(
                *(frontend.submit(solve("g", f"r{i}")) for i in range(16))
            )
            assert all(r["ok"] and r["size"] == 3 for r in responses)
            assert {r["rid"] for r in responses} == {f"r{i}" for i in range(16)}
            assert frontend.snapshot()["coalesced"] > 0

        run(with_frontend(body, shards=1))

    def test_mutation_fences_coalescing(self):
        # solve, add_edge, solve — the two solves straddle a write, so
        # they must NOT share an answer blindly; the second must see the
        # mutated graph.
        async def body(frontend):
            await frontend.submit(register("g"))
            first = await frontend.submit(solve("g", "a"))
            mutated = await frontend.submit(
                {"op": "add_edge", "id": "g", "u": 0, "v": 2, "rid": "m"}
            )
            assert mutated["ok"]
            second = await frontend.submit(solve("g", "b"))
            assert first["ok"] and second["ok"]
            assert set(second["independent_set"]) != {0, 2, 4} or second[
                "size"
            ] <= first["size"]

        run(with_frontend(body, shards=1))


class TestAdmission:
    def test_overload_sheds_to_stale_answer(self):
        async def body(frontend):
            await frontend.submit(register("g"))
            await frontend.submit(solve("g", "warm"))
            responses = await asyncio.gather(
                *(
                    frontend.submit(solve("g", f"r{i}", timeout=1e-9))
                    for i in range(32)
                )
            )
            assert all(r["ok"] for r in responses)
            shed = [r for r in responses if r.get("shed")]
            for response in shed:
                assert response["independent_set"]
                assert response["size"] > 0

        run(with_frontend(body, shards=1, max_queue_depth=2, max_batch=2))

    def test_draining_refuses_new_work(self):
        async def body(frontend):
            await frontend.submit(register("g"))
            frontend._draining = True
            response = await frontend.submit(solve("g"))
            assert response["ok"] is False
            assert "drain" in response["error"]
            frontend._draining = False

        run(with_frontend(body))

    def test_constructor_validation(self):
        router = ShardRouter(shards=1, config=ServiceConfig())
        try:
            with pytest.raises(ReproError):
                AsyncFrontend(router, max_queue_depth=0)
            with pytest.raises(ReproError):
                AsyncFrontend(router, max_batch=0)
        finally:
            router.close()


class TestSocketServer:
    def test_jsonl_over_socket(self):
        async def body(frontend):
            host, port = await frontend.start_server()
            reader, writer = await asyncio.open_connection(host, port)
            for request in (
                register("g", "w0"),
                solve("g", "w1"),
                {"op": "ping", "rid": "w2"},
            ):
                writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            responses = [
                json.loads(await reader.readline()) for _ in range(3)
            ]
            writer.close()
            await writer.wait_closed()
            assert [r["rid"] for r in responses] == ["w0", "w1", "w2"]
            assert responses[1]["size"] == 3

        run(with_frontend(body))

    def test_malformed_line_gets_structured_error(self):
        async def body(frontend):
            host, port = await frontend.start_server()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"rid": "bad", "op": broken\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            assert response["ok"] is False
            assert response["rid"] == "bad"
            assert frontend.snapshot()["protocol_errors"] >= 1

        run(with_frontend(body))

    def test_http_post_adapter(self):
        async def body(frontend):
            host, port = await frontend.start_server()
            reader, writer = await asyncio.open_connection(host, port)
            payload = (
                json.dumps(register("g", "h0")) + "\n" + json.dumps(solve("g", "h1"))
            ).encode()
            writer.write(
                b"POST /requests HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + str(len(payload)).encode()
                + b"\r\n\r\n"
                + payload
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body_bytes = raw.partition(b"\r\n\r\n")
            assert b"200 OK" in head
            lines = [json.loads(l) for l in body_bytes.splitlines() if l.strip()]
            assert [r["rid"] for r in lines] == ["h0", "h1"]

        run(with_frontend(body))


class TestServeForever:
    def test_ready_and_stop(self):
        async def scenario():
            router = ShardRouter(shards=1, config=ServiceConfig())
            frontend = AsyncFrontend(router, own_router=True)
            ready: asyncio.Queue = asyncio.Queue()
            stop = asyncio.Event()
            task = asyncio.create_task(
                serve_forever(frontend, port=0, ready=ready.put_nowait, stop=stop)
            )
            host, port = await ready.get()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((json.dumps({"op": "ping", "rid": "z"}) + "\n").encode())
            await writer.drain()
            assert json.loads(await reader.readline())["pong"]
            writer.close()
            await writer.wait_closed()
            stop.set()
            bound = await asyncio.wait_for(task, timeout=10)
            assert bound == (host, port)

        run(scenario())
