"""Cross-process trace aggregation through the parallel component driver.

The acceptance bar: a telemetered parallel run produces ONE merged report
in which every component's spans are attributed to the worker (pid) that
ran them — pooled components to their worker processes, inline components
to the parent via context stamping.
"""

import os

import pytest

from repro.core.components import solve_by_components
from repro.core.linear_time import linear_time
from repro.graphs.generators import disjoint_union, gnm_random_graph, power_law_graph
from repro.graphs.properties import connected_components
from repro.obs.telemetry import disable, telemetry_session
from repro.obs.trace_io import merge_traces
from repro.perf.parallel import solve_by_components_parallel


@pytest.fixture(autouse=True)
def _clean_flag():
    disable()
    yield
    disable()


def _component_of(record):
    component = record.get("component")
    if component is None and isinstance(record.get("meta"), dict):
        component = record["meta"].get("component")
    return component


def _union():
    # The building blocks are not themselves connected, so derive the
    # pooled/inline split from connected_components like the driver does.
    union = disjoint_union(
        [
            gnm_random_graph(300, 900, seed=21),
            power_law_graph(250, beta=2.3, average_degree=5.0, seed=22),
            gnm_random_graph(40, 80, seed=23),
        ]
    )
    sizes = [len(c) for c in connected_components(union)]
    pooled = {i for i, size in enumerate(sizes) if size >= 100}
    inline = set(range(len(sizes))) - pooled
    assert len(pooled) >= 2 and inline  # both driver paths exercised
    return union, pooled, inline


class TestMergedParallelReport:
    def test_every_component_attributed_to_its_worker(self):
        union, pooled, inline = _union()
        with telemetry_session("parallel-run") as tele:
            result = solve_by_components_parallel(
                union, "linear_time", processes=2, min_component_size=100
            )
        merged = merge_traces([tele.to_records()])
        components = merged["components"]
        # One merged report covering every component of the input.
        assert {c for c in components if c is not None} == pooled | inline
        parent_pid = os.getpid()
        for index, cell in components.items():
            if index is None:
                continue
            assert cell["pid"] is not None
            assert cell["spans"], f"component {index} has no spans"
            assert "reduce" in cell["spans"]
            assert cell["wall"] >= 0.0
        # Pooled components ran in worker processes, inline ones in the
        # parent — the attribution must say so.
        for index in pooled:
            assert components[index]["pid"] != parent_pid
        for index in inline:
            assert components[index]["pid"] == parent_pid
        # Worker meta lines survive the merge, naming each worker process.
        worker_pids = {components[index]["pid"] for index in pooled}
        assert worker_pids <= set(merged["processes"])
        # Telemetry must not have changed the merged result.
        serial = solve_by_components(union, linear_time)
        assert result.independent_set == serial.independent_set
        assert result.stats == serial.stats

    def test_worker_records_carry_counters_and_profiles(self):
        union, pooled, _inline = _union()
        with telemetry_session("parallel-run") as tele:
            solve_by_components_parallel(
                union, "linear_time", processes=2, min_component_size=100
            )
        records = tele.to_records()
        worker_counters = [
            r
            for r in records
            if r.get("type") == "counters" and r.get("pid") != os.getpid()
        ]
        assert worker_counters, "no worker counter records adopted"
        pooled_profiles = {
            _component_of(r)
            for r in records
            if r.get("type") == "profile" and r.get("pid") != os.getpid()
        }
        assert pooled_profiles == pooled

    def test_disabled_telemetry_matches_serial_result(self):
        union, _pooled, _inline = _union()
        result = solve_by_components_parallel(
            union, "linear_time", processes=2, min_component_size=100
        )
        serial = solve_by_components(union, linear_time)
        assert result.independent_set == serial.independent_set


class TestBackendAttributionAcrossProcesses:
    """Traces merge with backend/request attribution intact under another
    dispatched algorithm, not just the default LinearTime."""

    def test_worker_attribution_survives_backend_choice(self):
        union, pooled, inline = _union()
        with telemetry_session("parallel-run") as tele:
            solve_by_components_parallel(
                union, "near_linear", processes=2, min_component_size=100
            )
        merged = merge_traces([tele.to_records()])
        components = merged["components"]
        assert {c for c in components if c is not None} == pooled | inline
        parent_pid = os.getpid()
        for index in pooled:
            assert components[index]["pid"] != parent_pid
        for index in inline:
            assert components[index]["pid"] == parent_pid

    def test_request_stamp_propagates_to_worker_records(self):
        union, pooled, _inline = _union()
        with telemetry_session("parallel-run") as tele:
            with tele.scoped(request="req-test-42", tenant="acme"):
                solve_by_components_parallel(
                    union, "linear_time", processes=2, min_component_size=100
                )
        records = tele.to_records()
        worker_spans = [
            r
            for r in records
            if r.get("type") == "span" and r.get("pid") != os.getpid()
        ]
        assert worker_spans, "no worker spans adopted"
        # The parent's request context rode along in the worker stamp, so
        # a cross-process span still joins its originating request.
        for record in worker_spans:
            meta = record.get("meta", {})
            assert meta.get("request") == "req-test-42"
            assert meta.get("tenant") == "acme"
        stamped_components = {
            _component_of(r) for r in worker_spans if _component_of(r) is not None
        }
        assert stamped_components == pooled
