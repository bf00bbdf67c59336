"""Tests for the benchmark harness support modules."""

import pytest

from repro.bench import (
    ALL_DATASETS,
    BACKENDS,
    EASY_DATASETS,
    HARD_DATASETS,
    RunRecord,
    dataset_names,
    format_number,
    format_seconds,
    load,
    render_table,
    resolve_backend,
    run_algorithms,
    time_call,
)
from repro.core import bdone, linear_time
from repro.errors import ReproError


class TestBackends:
    def test_legacy_and_flat_backends(self):
        assert set(BACKENDS) == {"legacy", "flat"}
        assert resolve_backend("flat")["linear_time"] is linear_time

    @pytest.mark.parametrize("name", ["turbo", "auto", "vectorized"])
    def test_resolve_backend_rejects_unknown_and_lists_choices(self, name):
        with pytest.raises(ValueError) as excinfo:
            resolve_backend(name)
        message = str(excinfo.value)
        for choice in sorted(BACKENDS):
            assert repr(choice) in message


class TestDatasets:
    def test_twelve_easy_eight_hard(self):
        assert len(EASY_DATASETS) == 12
        assert len(HARD_DATASETS) == 8
        assert len(ALL_DATASETS) == 20

    def test_names_kinds(self):
        assert len(dataset_names("easy")) == 12
        assert len(dataset_names("hard")) == 8
        assert len(dataset_names("all")) == 20
        with pytest.raises(ReproError):
            dataset_names("medium")

    def test_unknown_dataset_raises(self):
        with pytest.raises(ReproError):
            load("nonexistent-sim")

    def test_load_is_cached_and_deterministic(self):
        a = load("GrQc-sim")
        b = load("GrQc-sim")
        assert a is b
        assert a.name == "GrQc-sim"

    def test_average_degrees_roughly_match_specs(self):
        for spec in EASY_DATASETS[:4]:
            g = load(spec.name)
            assert g.n == spec.n
            assert 0.4 * spec.average_degree < g.average_degree() < 2.0 * spec.average_degree


class TestTables:
    def test_format_number(self):
        assert format_number(1234567) == "1,234,567"
        assert format_number(None) == "-"
        assert format_number(True) == "yes"
        assert format_number(2.0) == "2"
        assert format_number(2.5) == "2.500"
        assert format_number("x") == "x"

    def test_format_seconds(self):
        assert format_seconds(0.0000005).endswith("µs")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(2.0).endswith("s")

    def test_render_table_alignment(self):
        text = render_table(
            ["Graph", "Size"],
            [["GrQc", 2459], ["dblp", 434289]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "Graph" in lines[1]
        assert "---" in lines[2]
        assert "434,289" in lines[4]


class TestRunner:
    def test_time_call(self):
        value, elapsed = time_call(lambda: 42)
        assert value == 42
        assert elapsed >= 0.0

    def test_run_algorithms_records(self):
        g = load("GrQc-sim")
        records = run_algorithms(g, [("BDOne", bdone), ("LinearTime", linear_time)])
        assert [r.algorithm for r in records] == ["BDOne", "LinearTime"]
        assert all(r.size > 0 for r in records)
        assert all(r.model_memory_words > 0 for r in records)


class TestRunRecordClocks:
    """``solver_elapsed`` is derived from the result; the harness clock
    wraps it, so ``0 <= solver_elapsed <= elapsed`` is an invariant."""

    def test_from_result_derives_solver_elapsed(self):
        g = load("GrQc-sim")
        result, elapsed = time_call(lambda: bdone(g))
        record = RunRecord.from_result("BDOne", result, elapsed)
        assert record.solver_elapsed == result.elapsed
        assert record.graph_name == result.graph_name
        assert record.size == result.size

    def test_clock_invariant_holds(self):
        g = load("GrQc-sim")
        for record in run_algorithms(g, [("BDOne", bdone), ("LinearTime", linear_time)]):
            assert 0.0 <= record.solver_elapsed <= record.elapsed
            assert record.overhead >= 0.0
            assert record.overhead == record.elapsed - record.solver_elapsed

    def test_jittered_harness_clock_is_clamped_up(self):
        g = load("GrQc-sim")
        result = bdone(g)
        # A harness reading *below* the solver's own clock (sub-µs timer
        # jitter) must not produce a negative overhead.
        record = RunRecord.from_result("BDOne", result, result.elapsed / 2)
        assert record.elapsed == result.elapsed
        assert record.overhead == 0.0
