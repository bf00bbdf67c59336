"""Tests for the perf-regression harness (smoke suite only — fast)."""

import copy
import json

import pytest

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
        "linear_time_vec",
        "near_linear_vec",
        "serve_load",
    }
    for track, (record, field) in bench_regression.GATED_TRACKS.items():
        if track == "serve_incremental":
            assert record == "ServeIncremental"
            assert field == "repair_wall"
        elif track == "serve_load":
            assert record == "ServeLoad"
            assert field == "async_wall"
        elif track.endswith("_vec"):
            assert record in {"LinearTime-vec", "NearLinear-vec"}
            assert field == "vec_wall"
        else:
            assert field == "flat_wall"
            assert record in {"LinearTime", "NearLinear", "ARW-LT"}


def test_run_suite_rejects_unknown_backend():
    # "all" is legacy + flat + vectorized; the removed dispatcher's
    # "auto" is as unknown as any other name.
    assert bench_regression.BACKEND_CHOICES == ("legacy", "flat", "vectorized", "all")
    with pytest.raises(ValueError, match="unknown backend 'auto'"):
        bench_regression.run_suite("smoke", repeats=1, backend="auto")


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
