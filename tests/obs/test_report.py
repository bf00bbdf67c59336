"""Trace summarisation, report rendering, and the memory probe."""

from repro.graphs import path_graph
from repro.obs.memory import MemoryProbe, probe_record
from repro.obs.report import profile_is_monotone, render_report, summarize


def _records():
    return [
        {"type": "meta", "label": "run", "pid": 1},
        {"type": "span", "name": "reduce", "pid": 1, "wall": 0.6, "depth": 0},
        {"type": "span", "name": "replay", "pid": 1, "wall": 0.1, "depth": 0},
        {"type": "span", "name": "extend", "pid": 1, "wall": 0.05, "depth": 1},
        {"type": "counters", "pid": 1, "values": {"peel": 3, "degree-one": 10}},
        {"type": "timer", "name": "swap-scan", "pid": 1, "count": 4, "total": 0.2},
        {
            "type": "profile",
            "algorithm": "LinearTime",
            "graph": "g",
            "pid": 1,
            "samples": [[0, 100, 300, 100], [50, 40, 80, 70], [90, 0, 0, 55]],
        },
        {
            "type": "memory",
            "algorithm": "LinearTime",
            "graph": "g",
            "peak_bytes": 4096,
            "budget_words": 600,
            "budget_bytes": 2400,
        },
    ]


class TestSummarize:
    def test_phase_aggregation_counts_depth_zero_for_span_total(self):
        summary = summarize(_records())
        assert summary["phases"]["reduce"] == {
            "count": 1,
            "wall": 0.6,
            "top_wall": 0.6,
        }
        assert summary["phases"]["extend"]["top_wall"] == 0.0
        assert abs(summary["span_total"] - 0.7) < 1e-12

    def test_counters_and_timers(self):
        summary = summarize(_records())
        assert summary["counters"] == {"peel": 3, "degree-one": 10}
        assert summary["timers"]["swap-scan"] == {"count": 4, "total": 0.2}

    def test_processes_indexed_by_pid(self):
        assert summarize(_records())["processes"] == {1: "run"}


def _repair_records():
    """Two served repairs, shaped like a traced ``repro serve`` run: each
    request's component solves nest inside its ``serve:solve`` span, and a
    component's own spans nest inside one another."""

    def span(name, start, wall, depth, request, component=None):
        meta = {"request": request}
        if component is not None:
            meta["component"] = component
        return {"type": "span", "name": name, "pid": 7, "start": start,
                "wall": wall, "depth": depth, "meta": meta}

    return [
        {"type": "meta", "label": "repro-serve", "pid": 7},
        # req-1: component 0 has a nested span, component 1 two siblings.
        span("dominance-sweep", 1.0, 0.25, 2, "req-1", 0),
        span("solve", 0.9, 0.5, 1, "req-1", 0),
        span("setup", 1.5, 0.125, 1, "req-1", 1),
        span("reduce", 1.625, 0.0625, 1, "req-1", 1),
        span("serve:solve", 0.5, 2.0, 0, "req-1"),
        # req-2 reuses component index 0.
        span("setup", 3.0, 0.75, 1, "req-2", 0),
        span("serve:solve", 2.5, 1.5, 0, "req-2"),
    ]


class TestComponentAttribution:
    def test_served_components_credit_their_outermost_spans(self):
        components = summarize(_repair_records())["components"]
        assert {key: cell["wall"] for key, cell in components.items()} == {
            ("req-1", 0): 0.5,
            ("req-1", 1): 0.1875,
            ("req-2", 0): 0.75,
        }
        assert components[("req-1", 0)]["spans"] == ["dominance-sweep", "solve"]
        assert components[("req-1", 0)]["pid"] == 7

    def test_report_shows_a_wall_for_every_served_component(self):
        lines = render_report(_repair_records()).splitlines()
        start = lines.index("per-component attribution:")
        assert lines[start + 1 : start + 4] == [
            "  req-1 component 0: pid 7 (repro-serve), 2 spans, wall 500.00ms",
            "  req-1 component 1: pid 7 (repro-serve), 2 spans, wall 187.50ms",
            "  req-2 component 0: pid 7 (repro-serve), 1 spans, wall 750.00ms",
        ]


class TestMonotone:
    def test_monotone_profile(self):
        profile = {"samples": [[0, 10, 9, 9], [5, 4, 3, 3], [9, 0, 0, 2]]}
        assert profile_is_monotone(profile)

    def test_non_monotone_profile(self):
        profile = {"samples": [[0, 10, 9, 9], [5, 12, 3, 3]]}
        assert not profile_is_monotone(profile)

    def test_empty_profile_is_monotone(self):
        assert profile_is_monotone({"samples": []})


class TestRender:
    def test_report_mentions_every_section(self):
        text = render_report(_records(), title="trace: t.jsonl")
        assert "trace: t.jsonl" in text
        assert "reduce" in text and "swap-scan" in text
        assert "peel=3" in text
        assert "peeling profile [LinearTime on g]" in text
        assert "monotone" in text
        assert "peak 4,096 bytes" in text

    def test_empty_trace(self):
        assert render_report([]) == "(empty trace)"


class TestMemoryProbe:
    def test_probe_measures_allocations(self):
        with MemoryProbe() as probe:
            blob = [0] * 100_000
        assert probe.peak_bytes > 100_000
        del blob

    def test_probe_nests(self):
        with MemoryProbe() as outer:
            with MemoryProbe() as inner:
                data = list(range(10_000))
            del data
        assert inner.peak_bytes > 0
        assert outer.peak_bytes > 0

    def test_probe_record_pairs_peak_with_budget(self):
        graph = path_graph(50)
        with MemoryProbe() as probe:
            pass
        record = probe_record(probe, "LinearTime", graph)
        assert record["type"] == "memory"
        assert record["graph"] == graph.name
        assert record["budget_words"] > 0
        assert record["budget_bytes"] == record["budget_words"] * 4

    def test_probe_record_without_budget_row(self):
        graph = path_graph(10)
        with MemoryProbe() as probe:
            pass
        record = probe_record(probe, "NoSuchAlgorithm", graph)
        assert "budget_words" not in record
        assert record["peak_bytes"] >= 0
