"""The seeded load generator: determinism, equivalence, shed validity."""

import pytest

from repro.errors import ReproError
from repro.serve.loadgen import (
    LoadgenConfig,
    build_workload,
    compare_reports,
    normalize_response,
    replay_async,
    replay_sync,
    run_serve_load_benchmark,
    split_workload,
    validate_shed_answers,
    verify_answer,
)
from repro.graphs.generators import cycle_graph

TINY = LoadgenConfig(
    seed=11,
    graphs=2,
    vertices=120,
    edge_probability=0.05,
    requests=40,
    burst=4,
    mutate_every=5,
    stats_every=15,
)


class TestWorkload:
    def test_deterministic(self):
        assert build_workload(TINY) == build_workload(TINY)

    def test_seed_changes_stream(self):
        other = LoadgenConfig(**{**TINY.__dict__, "seed": 12})
        assert build_workload(TINY) != build_workload(other)

    def test_split_setup_prefix(self):
        setup, stream = split_workload(build_workload(TINY))
        assert len(stream) >= TINY.requests
        assert all(r["rid"].startswith("s") for r in setup)
        assert all(r["rid"].startswith("r") for r in stream)
        registers = [r for r in setup if r["op"] == "register"]
        warmups = [r for r in setup if r["op"] == "solve"]
        assert len(registers) == TINY.graphs
        assert len(warmups) == TINY.graphs

    def test_rids_are_unique(self):
        workload = build_workload(TINY)
        rids = [r["rid"] for r in workload]
        assert len(rids) == len(set(rids))


class TestNormalization:
    def test_drops_provenance_only(self):
        response = {
            "op": "solve",
            "ok": True,
            "size": 3,
            "independent_set": [0, 2, 4],
            "rid": "r1",
            "elapsed": 0.5,
            "source": "cache",
            "shed": True,
            "coalesced": True,
        }
        normalized = normalize_response(response)
        assert normalized == {
            "op": "solve",
            "ok": True,
            "size": 3,
            "independent_set": [0, 2, 4],
        }

    def test_stats_collapse(self):
        normalized = normalize_response(
            {"op": "stats", "ok": True, "counters": {"graphs": 2}}
        )
        assert normalized == {"op": "stats", "ok": True}


class TestReplays:
    def test_sync_vs_async_equivalence(self):
        workload = build_workload(TINY)
        sync = replay_sync(workload)
        asynchronous = replay_async(workload, shards=2)
        verdict = compare_reports(sync, asynchronous)
        assert verdict["equivalent"], verdict["mismatches"]
        assert sync.errors == 0 and asynchronous.errors == 0
        assert asynchronous.cache_hit_rate > 0

    def test_sync_report_shape(self):
        report = replay_sync(build_workload(TINY))
        payload = report.to_payload()
        assert payload["label"] == "sync"
        assert payload["measured"] == len(report.latencies)
        assert payload["throughput"] > 0
        assert payload["p99"] >= payload["p50"] >= 0

    def test_shed_answers_are_valid(self):
        verdict = validate_shed_answers(build_workload(TINY), shards=2)
        assert verdict["shed"] > 0
        assert verdict["all_valid"], verdict

    def test_benchmark_record_contract(self):
        record = run_serve_load_benchmark(config=TINY, shards=2)
        assert record["equivalence"]["equivalent"]
        assert record["shed_check"]["all_valid"]
        assert record["async_wall"] > 0 and record["sync_wall"] > 0
        assert record["config"]["shards"] == 2

    def test_mismatch_is_detected(self):
        workload = build_workload(TINY)
        sync = replay_sync(workload)
        asynchronous = replay_async(workload, shards=2)
        asynchronous.responses[-1] = dict(
            asynchronous.responses[-1], size=10_000
        )
        verdict = compare_reports(sync, asynchronous)
        assert not verdict["equivalent"]
        assert verdict["mismatches"]


class TestConfigValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(ReproError):
            LoadgenConfig(graphs=0).graph_specs()


class TestVerifyAnswer:
    """Every sync answer is checked; a wrong one stops the run."""

    def test_valid_answer_passes(self):
        verify_answer(
            cycle_graph(6),
            None,
            {"independent_set": [0, 2, 4], "upper_bound": 3, "is_exact": True,
             "exact_bound": True},
        )

    @pytest.mark.parametrize(
        "members, bound, ids",
        [
            ([0, 1, 3], 3, None),  # not independent
            ([0, 2], 3, None),  # not maximal
            ([0, 2, 4], 2, None),  # bound below |I|
            ([0, 2, 9], 3, [0, 1, 2, 4, 5, 6]),  # names a dead id
        ],
    )
    def test_wrong_answer_raises(self, members, bound, ids):
        import numpy as np

        response = {"rid": "r1", "id": "g", "independent_set": members, "upper_bound": bound,
                    "is_exact": False, "exact_bound": False}
        ids = None if ids is None else np.array(ids, dtype=np.int64)
        with pytest.raises(ReproError, match="r1 for graph 'g' fails verification"):
            verify_answer(cycle_graph(6), ids, response)
