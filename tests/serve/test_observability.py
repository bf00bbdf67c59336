"""The serving layer's observability surface: registry, contexts, spans.

Covers the request-tracing tentpole end to end at the unit level: the
service and its cache share ONE metrics registry (so ``counters()`` is
read from it, not kept as a parallel book), every verb stamps request
contexts onto its telemetry spans, results carry backend attribution on
every routing path, and the JSONL protocol echoes the request id it used.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs import load_trace, write_trace
from repro.obs.metrics import (
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_GRAPHS,
    METRIC_SERVE_REQUEST_SECONDS,
    METRIC_SERVE_REQUESTS,
    METRIC_SERVE_SOLVER_SECONDS,
    METRIC_SERVE_STALE_RETURNS,
    MetricsRegistry,
    disable_metrics,
    get_metrics,
    metrics_session,
)
from repro.obs.telemetry import disable, get_telemetry, telemetry_session
from repro.graphs.generators import cycle_graph, gnm_random_graph, power_law_graph
from repro.serve import ServiceConfig, SolverService
from repro.serve.context import RequestContext
from repro.serve.requests import handle_request

from .gauntlet import (
    check_metrics,
    check_responses,
    check_trace,
    gauntlet_requests,
)


@pytest.fixture(autouse=True)
def _clean_globals():
    disable()
    disable_metrics()
    yield
    disable()
    disable_metrics()


class TestRequestContext:
    def test_auto_ids_are_unique_and_ordered(self):
        a = RequestContext.create()
        b = RequestContext.create()
        assert a.request_id != b.request_id
        assert a.request_id < b.request_id

    def test_trace_fields_include_tenant_only_when_set(self):
        anonymous = RequestContext.create()
        assert set(anonymous.trace_fields()) == {"request"}
        tenanted = RequestContext.create(request_id="r1", tenant="acme")
        assert tenanted.trace_fields() == {"request": "r1", "tenant": "acme"}


class TestSharedRegistry:
    def test_cache_and_service_share_one_registry(self):
        service = SolverService()
        assert service.cache.metrics is service.metrics
        gid = service.register(gnm_random_graph(60, 120, seed=3))
        service.solve(gid)
        service.solve(gid)
        assert service.metrics.total(METRIC_SERVE_CACHE_HITS) == 1
        assert service.counters()["cache"]["hits"] == 1  # read from the same book

    def test_events_view_mirrors_registry(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(60, 120, seed=3))
        service.solve(gid)
        service.solve(gid)
        counters = service.counters()
        assert counters["events"] == {
            "serve:cache-hit": 1,
            "serve:cache-miss": 1,
            "serve:full-resolve": 1,
        }
        assert counters["cache"] == {
            "capacity": 64,
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_service_adopts_session_registry(self):
        with metrics_session(label="test") as registry:
            service = SolverService()
            assert service.metrics is registry
            gid = service.register(cycle_graph(9))
            service.solve(gid)
        assert registry.total(METRIC_SERVE_REQUESTS) == 1
        assert registry.value(METRIC_SERVE_GRAPHS) == 1

    def test_explicit_registry_wins_over_session(self):
        own = MetricsRegistry(label="own")
        with metrics_session(label="ambient"):
            service = SolverService(metrics=own)
        assert service.metrics is own


class TestRequestMetrics:
    def test_solve_labelled_by_source(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(60, 120, seed=3))
        service.solve(gid)
        service.solve(gid)
        metrics = service.metrics
        assert metrics.value(METRIC_SERVE_REQUESTS, op="solve", source="cold") == 1
        assert metrics.value(METRIC_SERVE_REQUESTS, op="solve", source="cache") == 1
        assert metrics.histogram(METRIC_SERVE_REQUEST_SECONDS, op="solve").count == 2

    def test_mutations_counted_as_requests(self):
        service = SolverService()
        gid = service.register(cycle_graph(12))
        service.add_edge(gid, 0, 5)
        service.remove_edge(gid, 0, 5)
        assert service.metrics.value(METRIC_SERVE_REQUESTS, op="mutate") == 2
        assert (
            service.metrics.histogram(METRIC_SERVE_REQUEST_SECONDS, op="mutate").count
            == 2
        )

    def test_solver_seconds_split_by_mode(self):
        service = SolverService(ServiceConfig(dirty_threshold=0.9))
        graph = power_law_graph(300, beta=2.2, seed=5)
        gid = service.register(graph)
        service.solve(gid)
        service.add_edge(gid, 0, 1) if not graph.has_edge(0, 1) else service.remove_edge(
            gid, 0, 1
        )
        service.solve(gid)
        metrics = service.metrics
        cold = metrics.histogram(METRIC_SERVE_SOLVER_SECONDS, mode="cold", backend="flat")
        repair = metrics.histogram(
            METRIC_SERVE_SOLVER_SECONDS, mode="repair", backend="flat"
        )
        assert cold is not None and cold.count >= 1
        assert repair is not None and repair.count >= 1

    def test_expired_context_counts_stale_return(self):
        # The request's budget is its timeout; 0.0 is spent on arrival.
        service = SolverService()
        gid = service.register(gnm_random_graph(80, 160, seed=2))
        service.solve(gid)
        service.add_edge(gid, 0, 1)
        context = RequestContext.create(request_id="r")
        result = service.solve(gid, timeout=0.0, context=context)
        assert result.stale
        assert result.backend == "none"
        assert service.metrics.total(METRIC_SERVE_STALE_RETURNS) == 1


class TestBackendAttribution:
    def test_cold_and_cache_backends(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(60, 120, seed=3))
        assert service.solve(gid).backend == "flat"
        assert service.solve(gid).backend == "flat"  # cache replays the pick


class TestRequestSpans:
    def test_solve_spans_stamped_with_request(self):
        service = SolverService()
        with telemetry_session("test") as tele:
            gid = service.register(cycle_graph(15))
            context = RequestContext.create(request_id="req-X", tenant="acme")
            service.solve(gid, context=context)
        spans = [r for r in tele.to_records() if r.get("type") == "span"]
        solve_spans = [s for s in spans if s["meta"].get("request") == "req-X"]
        assert solve_spans
        assert all(s["meta"].get("tenant") == "acme" for s in solve_spans)
        serve_span = next(s for s in solve_spans if s["name"] == "serve:solve")
        assert serve_span["meta"]["backend"] == "flat"

    def test_upper_bound_spans_carry_the_request(self):
        # An uncertified (repaired) answer makes upper_bound cold-solve
        # under its own span; every span of the call carries its request.
        service = SolverService()
        gid = service.register(gnm_random_graph(80, 160, seed=2))
        service.solve(gid)
        service.add_edge(gid, 0, 1)
        with telemetry_session("test") as tele:
            context = RequestContext.create(request_id="ub-1")
            service.upper_bound(gid, context=context)
        spans = [r for r in tele.to_records() if r.get("type") == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert [s["meta"]["source"] for s in by_name["serve:solve"]] == ["repair"]
        assert by_name["serve:solve"][0]["meta"]["request"] == "ub-1"
        assert len(by_name["serve:upper-bound"]) == 1
        assert by_name["serve:upper-bound"][0]["meta"]["request"] == "ub-1"

    def test_contextless_requests_get_auto_ids(self):
        service = SolverService()
        with telemetry_session("test") as tele:
            gid = service.register(cycle_graph(15))
            service.solve(gid)
            service.add_edge(gid, 0, 5)
        requests = {
            r["meta"].get("request")
            for r in tele.to_records()
            if r.get("type") == "span" and r["meta"].get("request")
        }
        # register / solve / mutate each ran under their own request id.
        assert len(requests) == 3


class TestProtocolEcho:
    def test_rid_and_backend_in_responses(self):
        service = SolverService()
        register = handle_request(
            service,
            {"op": "register", "id": "g", "n": 5, "edges": [[0, 1], [1, 2]]},
        )
        assert register["ok"] and register["rid"].startswith("req-")
        solve = handle_request(
            service, {"op": "solve", "id": "g", "rid": "mine-7", "tenant": "acme"}
        )
        assert solve["rid"] == "mine-7"
        assert solve["backend"] == "flat"
        json.dumps(solve)  # response stays wire-serialisable

    def test_auto_rids_differ_between_requests(self):
        service = SolverService()
        handle_request(
            service, {"op": "register", "id": "g", "n": 4, "edges": [[0, 1]]}
        )
        first = handle_request(service, {"op": "solve", "id": "g"})
        second = handle_request(service, {"op": "solve", "id": "g"})
        assert first["rid"] != second["rid"]


class TestSmokeObsLeg:
    """The CI obs-smoke leg: the gauntlet through `repro serve` with
    `--metrics-out` and `--trace-out`, gated on what they wrote."""

    @staticmethod
    def _serve(tmp_path, requests, *flags):
        request_path = tmp_path / "requests.jsonl"
        response_path = tmp_path / "responses.jsonl"
        write_trace(str(request_path), requests)
        code = cli_main(
            ["serve", str(request_path), "--output", str(response_path), *flags]
        )
        return code, load_trace(str(response_path))

    def test_traced_smoke_gates_pass_and_write_artifacts(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.prom"
        trace_out = tmp_path / "trace.jsonl"
        requests = gauntlet_requests(n=200, mutations=10, batch=5, seed=11)
        code, responses = self._serve(
            tmp_path,
            requests,
            "--algorithm",
            "near_linear",
            "--metrics-out",
            str(metrics_out),
            "--trace-out",
            str(trace_out),
        )
        capsys.readouterr()
        assert code == 0
        assert check_responses(requests, responses, "near_linear") == []
        assert check_metrics(str(metrics_out)) == []
        assert check_trace(str(trace_out)) == []
        stamped = {
            record["meta"]["request"]
            for record in load_trace(str(trace_out))
            if record.get("type") == "span"
        }
        assert {response["rid"] for response in responses} <= stamped

    def test_smoke_sessions_leave_no_global_residue(self, tmp_path, capsys):
        requests = gauntlet_requests(n=100, mutations=5, batch=5)
        metrics_out = tmp_path / "m.jsonl"
        code, _ = self._serve(
            tmp_path,
            requests,
            "--metrics-out",
            str(metrics_out),
            "--trace-out",
            str(tmp_path / "t.jsonl"),
        )
        capsys.readouterr()
        assert code == 0
        assert check_metrics(str(metrics_out)) == []
        assert get_metrics() is None
        assert get_telemetry() is None
