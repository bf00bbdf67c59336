"""Tests for the telemetry primitives and the process-global flag."""

import pytest

from repro.obs.telemetry import (
    Telemetry,
    disable,
    enable,
    get_telemetry,
    phase,
    telemetry_session,
)


@pytest.fixture(autouse=True)
def _clean_flag():
    """Never leak an active sink into (or out of) a test."""
    disable()
    yield
    disable()


class TestGlobalFlag:
    def test_disabled_by_default(self):
        assert get_telemetry() is None

    def test_enable_returns_active_sink(self):
        sink = enable("run")
        assert get_telemetry() is sink
        assert sink.label == "run"

    def test_disable_returns_previous_sink(self):
        sink = enable()
        assert disable() is sink
        assert get_telemetry() is None

    def test_session_scopes_the_flag(self):
        with telemetry_session("scoped") as sink:
            assert get_telemetry() is sink
        assert get_telemetry() is None

    def test_session_tolerates_inner_disable(self):
        with telemetry_session():
            disable()
        assert get_telemetry() is None


class TestSpans:
    def test_span_records_wall_and_name(self):
        tele = Telemetry()
        with tele.span("reduce", algorithm="BDOne") as span:
            pass
        assert len(tele.spans) == 1
        assert tele.spans[0] is span
        assert span.name == "reduce"
        assert span.wall >= 0.0
        assert span.meta["algorithm"] == "BDOne"

    def test_nested_spans_record_depth(self):
        tele = Telemetry()
        with tele.span("outer"):
            with tele.span("inner"):
                pass
        by_name = {s.name: s for s in tele.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert tele.span_total(depth=0) == by_name["outer"].wall

    def test_span_survives_exception(self):
        tele = Telemetry()
        with pytest.raises(ValueError):
            with tele.span("boom"):
                raise ValueError("x")
        assert [s.name for s in tele.spans] == ["boom"]

    def test_meta_written_inside_block_is_kept(self):
        tele = Telemetry()
        with tele.span("reduce") as span:
            span.meta["counters"] = {"peel": 3}
        assert tele.spans[0].to_record()["meta"]["counters"] == {"peel": 3}

    def test_scoped_context_stamps_spans(self):
        tele = Telemetry()
        with tele.scoped(component=7):
            with tele.span("reduce"):
                pass
        with tele.span("merge"):
            pass
        assert tele.spans[0].meta["component"] == 7
        assert "component" not in tele.spans[1].meta


class TestPhaseHelper:
    def test_phase_is_noop_when_disabled(self):
        with phase(None, "reduce") as span:
            span.meta["counters"] = {"peel": 1}  # absorbed, not recorded

    def test_phase_records_when_enabled(self):
        tele = Telemetry()
        with phase(tele, "reduce", graph="g") as span:
            span.meta["x"] = 1
        assert tele.spans[0].meta == {"graph": "g", "x": 1}


class TestCountersAndTimers:
    def test_count_and_add_counters_merge(self):
        tele = Telemetry()
        tele.count("peel")
        tele.count("peel", 2)
        tele.add_counters({"peel": 1, "degree-one": 5})
        assert tele.counters == {"peel": 4, "degree-one": 5}

    def test_timer_aggregates_count_and_total(self):
        tele = Telemetry()
        tele.timer("swap-scan", 0.25)
        tele.timer("swap-scan", 0.75)
        assert tele.timers["swap-scan"] == [2, 1.0]

    def test_timed_context_manager(self):
        tele = Telemetry()
        with tele.timed("scan"):
            pass
        count, total = tele.timers["scan"]
        assert count == 1 and total >= 0.0


class TestSerialisation:
    def test_to_records_shapes(self):
        tele = Telemetry(label="run")
        with tele.span("reduce"):
            pass
        tele.count("peel", 2)
        tele.timer("scan", 0.5)
        samples = tele.profile("BDOne", "g")
        samples.append((0, 10, 20, 10))
        tele.record({"type": "memory", "peak_bytes": 123})
        records = tele.to_records()
        kinds = [r["type"] for r in records]
        assert kinds == ["meta", "span", "counters", "timer", "profile", "memory"]
        assert records[0]["label"] == "run"
        assert records[2]["values"] == {"peel": 2}
        assert records[3] == {
            "type": "timer",
            "name": "scan",
            "pid": tele.pid,
            "count": 1,
            "total": 0.5,
        }
        assert records[4]["samples"] == [(0, 10, 20, 10)]
