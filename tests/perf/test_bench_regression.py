"""Tests for the perf-regression harness (smoke suite only — fast)."""

import copy
import dataclasses
import json

import pytest

from repro.core.linear_time import linear_time
from repro.core.workspace import ArrayWorkspace
from repro.graphs.generators import (
    disjoint_union,
    gnm_random_graph,
    path_graph,
    power_law_graph,
)
from repro.perf import bench_regression


def test_smoke_suite_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = bench_regression.main(
        ["--smoke", "--out", str(out), "--repeats", "1"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == bench_regression.SCHEMA_VERSION
    assert report["suite"] == "smoke"
    for gname in report["graphs"]:
        if gname == "serve-load":
            # The serving front-end pseudo-graph: one workload-level
            # record, not per-algorithm suite timings.
            rec = report["timings"][gname]["ServeLoad"]
            assert rec["async_wall"] > 0
            assert rec["sync_wall"] > 0
            assert rec["equivalent"] is True
            continue
        timings = report["timings"][gname]
        for algorithm in ("BDOne", "LinearTime", "NearLinear"):
            rec = timings[algorithm]
            assert rec["flat_wall"] > 0
            assert rec["oracle_wall"] > 0
            assert rec["speedup"] > 0
        assert report["kernels"][gname]["linear_time"]["n"] >= 0
    counters = report["live_counters"]
    assert counters["maintained_us"] > 0
    assert counters["scan_us"] > 0


def test_smoke_suite_arw_lt_track(tmp_path):
    # gnm-400's LinearTime kernel is nonempty, so the ARW-LT track must be
    # present there with both the swap-scan and end-to-end measurements.
    out = tmp_path / "report.json"
    assert bench_regression.main(["--smoke", "--out", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    rec = report["timings"]["gnm-400"]["ARW-LT"]
    assert rec["flat_scan"] > 0
    assert rec["oracle_scan"] > 0
    assert rec["scan_speedup"] > 0
    assert rec["flat_wall"] > 0
    assert rec["oracle_wall"] > 0
    assert rec["kernel_n"] > 0
    assert rec["iterations"] == bench_regression._ARW_ITERATIONS


def test_gated_tracks_cover_all_flat_backends():
    assert set(bench_regression.GATED_TRACKS) == {
        "linear_time",
        "near_linear",
        "arw_lt",
        "serve_incremental",
        "serve_load",
    }
    for track, (record, field) in bench_regression.GATED_TRACKS.items():
        if track == "serve_incremental":
            assert record == "ServeIncremental"
            assert field == "repair_wall"
        elif track == "serve_load":
            assert record == "ServeLoad"
            assert field == "async_wall"
        else:
            assert field == "flat_wall"
            assert record in {"LinearTime", "NearLinear", "ARW-LT"}


def test_compare_self_passes(tmp_path):
    out = tmp_path / "report.json"
    assert bench_regression.main(["--smoke", "--out", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    failures = bench_regression.compare_reports(report, report, max_regression=2.0)
    assert failures == []


def test_compare_detects_regression_per_track():
    # Synthetic reports: tampering any single gated track must trip the
    # gate, and the failure message must name that track.
    baseline = {
        "suite": "synthetic",
        "timings": {
            "g": {
                record: {field: 1.0, "oracle_wall": 2.0}
                for record, field in bench_regression.GATED_TRACKS.values()
            }
        },
    }
    for track, (record, field) in bench_regression.GATED_TRACKS.items():
        tampered = copy.deepcopy(baseline)
        tampered["timings"]["g"][record][field] = 10.0  # 10x slower than base
        failures = bench_regression.compare_reports(
            baseline, tampered, max_regression=2.0
        )
        assert failures, track
        assert any(track in f for f in failures), failures


def test_compare_respects_max_regression_threshold():
    baseline = {
        "suite": "synthetic",
        "timings": {"g": {"LinearTime": {"flat_wall": 1.0}}},
    }
    current = {
        "suite": "synthetic",
        "timings": {"g": {"LinearTime": {"flat_wall": 2.5}}},
    }
    # 2.5x regression: fails the default-style 2.0 gate, passes a looser 3.0.
    assert bench_regression.compare_reports(baseline, current, max_regression=2.0)
    assert not bench_regression.compare_reports(baseline, current, max_regression=3.0)


def test_compare_skips_missing_tracks():
    # ARW-LT is absent on graphs the exact rules solve outright; a track
    # missing from either side must be skipped, not crash the gate.
    baseline = {
        "suite": "synthetic",
        "timings": {"g": {"LinearTime": {"flat_wall": 1.0}}},
    }
    current = {
        "suite": "synthetic",
        "timings": {
            "g": {"LinearTime": {"flat_wall": 1.0}, "ARW-LT": {"flat_wall": 9.0}}
        },
    }
    assert bench_regression.compare_reports(baseline, current, max_regression=2.0) == []


def test_compare_gate_exit_code(tmp_path):
    out = tmp_path / "report.json"
    baseline = tmp_path / "baseline.json"
    assert bench_regression.main(["--smoke", "--out", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    record, field = bench_regression.GATED_TRACKS["linear_time"]
    for gname in report["timings"]:
        if gname == "serve-load":
            continue
        rec = report["timings"][gname][record]
        rec[field] = rec[field] / 100.0  # baseline 100x faster
    baseline.write_text(json.dumps(report))
    code = bench_regression.main(
        [
            "--smoke",
            "--out",
            str(out),
            "--repeats",
            "1",
            "--compare",
            str(baseline),
            "--max-regression",
            "2.0",
        ]
    )
    assert code == 1


def test_max_regression_flag_loosens_gate(tmp_path):
    # The same tampered baseline that fails at the default threshold must
    # pass when --max-regression is raised above the injected ratio.
    out = tmp_path / "report.json"
    baseline = tmp_path / "baseline.json"
    assert bench_regression.main(["--smoke", "--out", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    record, field = bench_regression.GATED_TRACKS["linear_time"]
    for gname in report["timings"]:
        if gname == "serve-load":
            continue
        rec = report["timings"][gname][record]
        rec[field] = rec[field] / 3.0  # fresh runs look ~3x slower
    baseline.write_text(json.dumps(report))
    code = bench_regression.main(
        [
            "--smoke",
            "--out",
            str(out),
            "--repeats",
            "1",
            "--compare",
            str(baseline),
            "--max-regression",
            "1000.0",
        ]
    )
    assert code == 0


def test_compare_fails_when_no_gated_pair_is_compared():
    # Shared graphs but no shared gated track: e.g. a baseline that only
    # carries retired tracks.  Comparing nothing must fail, not pass.
    baseline = {
        "suite": "full",
        "timings": {"g": {"RetiredTrack": {"retired_wall": 1.0}}},
    }
    current = {
        "suite": "quick",
        "timings": {"g": {"BDOne": {"flat_wall": 1.0}}},
    }
    failures = bench_regression.compare_reports(baseline, current, max_regression=2.0)
    assert failures and "no gated track" in failures[0]
    # A non-positive baseline wall is skipped too, so it cannot be the
    # only comparison either.
    zero = {"suite": "full", "timings": {"g": {"LinearTime": {"flat_wall": 0.0}}}}
    assert bench_regression.compare_reports(zero, zero, max_regression=2.0)


def test_compare_disjoint_suites_reports_no_overlap():
    failures = bench_regression.compare_reports(
        {"suite": "a", "timings": {"g1": {}}},
        {"suite": "b", "timings": {"g2": {}}},
        max_regression=2.0,
    )
    assert failures and "no graphs in common" in failures[0]


def test_telemetry_flag_adds_trace_and_report_section(tmp_path, capsys):
    from repro.obs.telemetry import get_telemetry
    from repro.obs.trace_io import load_trace

    out = tmp_path / "report.json"
    trace = tmp_path / "trace.jsonl"
    code = bench_regression.main(
        [
            "--smoke",
            "--out",
            str(out),
            "--repeats",
            "1",
            "--telemetry",
            "--telemetry-out",
            str(trace),
        ]
    )
    assert code == 0
    # The sink must not leak out of the telemetry pass.
    assert get_telemetry() is None
    report = json.loads(out.read_text())
    section = report["telemetry"]
    assert section["trace"] == str(trace)
    assert section["span_total"] > 0
    assert "reduce" in section["phases"]
    assert section["counters"]
    assert any(p["samples"] > 0 for p in section["profiles"])
    records = load_trace(str(trace))
    assert any(r["type"] == "span" for r in records)
    assert "telemetry (" in capsys.readouterr().out


def test_telemetry_off_keeps_report_schema_clean(tmp_path):
    out = tmp_path / "report.json"
    assert bench_regression.main(["--smoke", "--out", str(out), "--repeats", "1"]) == 0
    assert "telemetry" not in json.loads(out.read_text())


def test_smoke_suite_serve_incremental_track(tmp_path):
    # Every suite graph carries the serving-layer track: warm-cache query
    # latency plus repair-vs-fresh on seeded mutation rounds.
    out = tmp_path / "report.json"
    assert bench_regression.main(["--smoke", "--out", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    for gname in report["graphs"]:
        if gname == "serve-load":
            continue
        rec = report["timings"][gname]["ServeIncremental"]
        assert rec["cold_wall"] > 0
        assert rec["warm_wall"] > 0
        assert rec["warm_speedup"] > 1.0  # a cache hit must beat a solve
        assert rec["repair_wall"] > 0
        assert rec["fresh_wall"] > 0
        assert rec["size"] >= 0.95 * rec["fresh_size"]
        assert rec["mutations_per_round"] == bench_regression._SERVE_MUTATIONS_PER_ROUND


def _write_watch_baseline(directory, pr, wall):
    report = {
        "schema": 6,
        "suite": "full",
        "timings": {"gnm-3k": {"LinearTime": {"flat_wall": wall}}},
    }
    (directory / f"BENCH_PR{pr}.json").write_text(json.dumps(report))


def test_watch_embeds_trajectory_and_gates(tmp_path, capsys):
    # A committed trajectory whose latest point regressed 3x past its best
    # must fail the run (exit 1) and land in the report, even though the
    # fresh smoke timings themselves are fine.
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    _write_watch_baseline(baselines, 1, 0.10)
    _write_watch_baseline(baselines, 2, 0.30)
    out = tmp_path / "report.json"
    code = bench_regression.main(
        [
            "--smoke",
            "--out",
            str(out),
            "--repeats",
            "1",
            "--watch",
            str(baselines),
        ]
    )
    assert code == 1
    assert "TRAJECTORY" in capsys.readouterr().err
    report = json.loads(out.read_text())
    trajectory = report["trajectory"]
    assert trajectory["tracks"]["linear_time"]["gnm-3k"]["regressed"]
    assert len(trajectory["regressions"]) == 1


def test_watch_clean_trajectory_passes(tmp_path):
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    _write_watch_baseline(baselines, 1, 0.10)
    _write_watch_baseline(baselines, 2, 0.11)
    out = tmp_path / "report.json"
    code = bench_regression.main(
        [
            "--smoke",
            "--out",
            str(out),
            "--repeats",
            "1",
            "--watch",
            str(baselines),
            "--watch-tolerance",
            "2.0",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["trajectory"]["regressions"] == []


def _flat_set_minus_one(graph, workspace_factory=None):
    """LinearTime whose flat-backend answer loses one vertex."""
    result = linear_time(graph, workspace_factory=workspace_factory)
    if workspace_factory is ArrayWorkspace:
        return result
    dropped = min(result.independent_set)
    return dataclasses.replace(
        result, independent_set=result.independent_set - {dropped}
    )


def _flat_swaps_last_edge(graph, workspace_factory=None):
    """LinearTime whose flat-backend answer takes the other end of the
    graph's trailing isolated edge: a different set, still maximal and of
    the same size and bound."""
    result = linear_time(graph, workspace_factory=workspace_factory)
    if workspace_factory is ArrayWorkspace:
        return result
    a, b = graph.n - 2, graph.n - 1
    return dataclasses.replace(
        result, independent_set=result.independent_set ^ {a, b}
    )


def test_time_backends_unbatched_flat_set_must_equal_oracle():
    graph = disjoint_union([gnm_random_graph(600, 1800, seed=4), path_graph(2)])
    timing = bench_regression._time_backends(linear_time, graph, 1)
    assert timing["size"] == linear_time(graph).size
    # No batched round ran, so even an equally good different set fails.
    with pytest.raises(AssertionError):
        bench_regression._time_backends(_flat_swaps_last_edge, graph, 1)
    with pytest.raises(AssertionError):
        bench_regression._time_backends(_flat_set_minus_one, graph, 1)


def test_time_backends_batched_flat_run_keeps_maximality_and_exact_size():
    # A frontier past BATCH_MIN_FRONTIER: the flat run batches and may
    # settle a different set, which must still be maximal.
    graph = power_law_graph(20000, beta=2.2, average_degree=6.0, seed=3)
    timing = bench_regression._time_backends(linear_time, graph, 1)
    oracle = linear_time(graph, workspace_factory=ArrayWorkspace)
    if oracle.is_exact:
        assert timing["size"] == oracle.size
        assert timing["upper_bound"] == oracle.upper_bound
    with pytest.raises(AssertionError):
        bench_regression._time_backends(_flat_set_minus_one, graph, 1)
