"""The JSONL request protocol: dispatch, error isolation, streaming."""

import io
import json

from repro.serve import SolverService, handle_request, serve_stream


def _service():
    return SolverService()


def _register(service, graph_id="g"):
    return handle_request(
        service,
        {
            "op": "register",
            "id": graph_id,
            "n": 6,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
        },
    )


class TestDispatch:
    def test_register_inline_edges(self):
        response = _register(_service())
        assert response["ok"]
        assert response["n"] == 6
        assert response["m"] == 5

    def test_register_from_file(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 2\n")
        response = handle_request(
            _service(), {"op": "register", "path": str(path)}
        )
        assert response["ok"]
        assert response["n"] == 3

    def test_solve_round_trip(self):
        service = _service()
        _register(service)
        response = handle_request(service, {"op": "solve", "id": "g"})
        assert response["ok"]
        assert response["size"] == 3
        assert sorted(response["independent_set"]) == response["independent_set"]
        assert len(response["independent_set"]) == 3
        assert response["source"] == "cold"

    def test_mutate_then_solve(self):
        service = _service()
        _register(service)
        handle_request(service, {"op": "solve", "id": "g"})
        response = handle_request(
            service,
            {"op": "mutate", "id": "g", "mutations": [["remove_edge", 2, 3]]},
        )
        assert response["ok"]
        assert response["dirty"] == 2
        solved = handle_request(service, {"op": "solve", "id": "g"})
        assert solved["ok"]
        assert solved["size"] >= 3

    def test_vertex_ops(self):
        service = _service()
        _register(service)
        added = handle_request(service, {"op": "add_vertex", "id": "g"})
        assert added["ok"] and added["vertex"] == 6
        removed = handle_request(
            service, {"op": "remove_vertex", "id": "g", "v": 6}
        )
        assert removed["ok"]

    def test_upper_bound(self):
        service = _service()
        _register(service)
        response = handle_request(service, {"op": "upper_bound", "id": "g"})
        assert response["ok"]
        assert response["upper_bound"] == 3

    def test_stats_and_save(self, tmp_path):
        service = _service()
        _register(service)
        handle_request(service, {"op": "solve", "id": "g"})
        stats = handle_request(service, {"op": "stats"})
        assert stats["ok"]
        assert stats["counters"]["graphs"] == 1
        path = tmp_path / "snap.json"
        saved = handle_request(service, {"op": "save", "path": str(path)})
        assert saved["ok"]
        restored = SolverService.load(str(path))
        assert restored.graph_ids() == ["g"]


class TestErrorIsolation:
    def test_unknown_op(self):
        response = handle_request(_service(), {"op": "bogus"})
        assert not response["ok"]
        assert "unknown op" in response["error"]

    def test_unknown_graph_id(self):
        response = handle_request(_service(), {"op": "solve", "id": "nope"})
        assert not response["ok"]
        assert "unknown graph id" in response["error"]

    def test_register_without_graph_payload(self):
        response = handle_request(_service(), {"op": "register", "id": "g"})
        assert not response["ok"]

    def test_malformed_mutation(self):
        service = _service()
        _register(service)
        response = handle_request(
            service, {"op": "mutate", "id": "g", "mutations": [["warp", 1]]}
        )
        assert not response["ok"]

    def test_error_does_not_poison_service(self):
        service = _service()
        _register(service)
        handle_request(service, {"op": "bogus"})
        response = handle_request(service, {"op": "solve", "id": "g"})
        assert response["ok"]


class TestStreaming:
    def test_serve_stream_counts_failures_and_skips_comments(self):
        service = _service()
        source = [
            json.dumps({"op": "register", "id": "g", "n": 2, "edges": [[0, 1]]}),
            "# a comment line",
            "",
            "not json at all {",
            json.dumps({"op": "solve", "id": "g"}),
            json.dumps({"op": "solve", "id": "missing"}),
        ]
        sink = io.StringIO()
        errors = []
        failed = serve_stream(service, source, sink, errors=errors)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert failed == 2
        assert len(errors) == 2
        assert len(lines) == 4  # comments/blank lines produce no response
        assert lines[0]["ok"] and lines[2]["ok"]
        assert not lines[1]["ok"] and "JSONDecodeError" in lines[1]["error"]
        assert not lines[3]["ok"]


class TestProtocolHardening:
    def test_parse_request_line_round_trip(self):
        from repro.serve import parse_request_line

        request = parse_request_line('{"op": "solve", "id": "g", "rid": "r1"}')
        assert request == {"op": "solve", "id": "g", "rid": "r1"}

    def test_oversized_line_is_rejected_with_rid(self):
        from repro.errors import ReproError
        from repro.serve import MAX_REQUEST_BYTES, parse_request_line, salvage_rid

        line = json.dumps({"op": "solve", "rid": "big1", "pad": "x" * MAX_REQUEST_BYTES})
        try:
            parse_request_line(line)
        except ReproError as exc:
            assert "too large" in str(exc)
        else:  # pragma: no cover - the guard must fire
            raise AssertionError("oversized line was accepted")
        assert salvage_rid(line) == "big1"

    def test_non_object_payload_is_rejected(self):
        from repro.errors import ReproError

        from repro.serve import parse_request_line

        for line in ("[1, 2, 3]", '"just a string"', "42"):
            try:
                parse_request_line(line)
            except ReproError as exc:
                assert "object" in str(exc)
            else:  # pragma: no cover
                raise AssertionError(f"accepted non-object line {line!r}")

    def test_salvage_rid_from_malformed_json(self):
        from repro.serve import salvage_rid

        assert salvage_rid('{"rid": "r42", "op": "solve", broken') == "r42"
        assert salvage_rid("not json at all") is None

    def test_error_response_shape(self):
        from repro.serve import error_response

        response = error_response("boom", rid="r7", op="solve")
        assert response == {"ok": False, "op": "solve", "error": "boom", "rid": "r7"}
        bare = error_response("boom")
        assert bare["ok"] is False and bare["op"] is None

    def test_ping_round_trip(self):
        response = handle_request(_service(), {"op": "ping", "rid": "p1"})
        assert response["ok"] and response["pong"] and response["rid"] == "p1"

    def test_stream_echoes_rid_on_malformed_line(self):
        service = _service()
        source = ['{"rid": "bad1", "op": "solve", broken json']
        sink = io.StringIO()
        failed = serve_stream(service, source, sink)
        [response] = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert failed == 1
        assert response["ok"] is False
        assert response["rid"] == "bad1"
        assert "Error" in response["error"]

    def test_stream_should_stop_drains_cleanly(self):
        service = _service()
        calls = {"count": 0}

        def stop_after_two():
            return calls["count"] >= 2

        def counting_source():
            for line in (
                json.dumps({"op": "ping", "rid": "a"}),
                json.dumps({"op": "ping", "rid": "b"}),
                json.dumps({"op": "ping", "rid": "c"}),
            ):
                yield line
                calls["count"] += 1

        sink = io.StringIO()
        failed = serve_stream(
            service, counting_source(), sink, should_stop=stop_after_two
        )
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert failed == 0
        assert [r["rid"] for r in lines] == ["a", "b"]
