"""Shard routing: deterministic placement, dispatch, one cache per shard."""

import multiprocessing

import pytest

from repro.errors import ReproError
from repro.serve import ServiceConfig, ShardRouter, shard_for


def register(graph_id, rid="r0"):
    return {
        "op": "register",
        "id": graph_id,
        "n": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
        "rid": rid,
    }


def solve(graph_id, rid="r1"):
    return {"op": "solve", "id": graph_id, "rid": rid}


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for graph_id in ("a", "b", "tenant/graph-17", ""):
                shard = shard_for(graph_id, shards)
                assert 0 <= shard < shards
                assert shard == shard_for(graph_id, shards)

    def test_spreads_ids(self):
        shards = {shard_for(f"g{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard_collapses(self):
        assert shard_for("anything", 1) == 0


class TestThreadRouter:
    def test_round_trip_and_locality(self):
        with ShardRouter(shards=3, config=ServiceConfig()) as router:
            for graph_id in ("alpha", "beta", "gamma", "delta"):
                response = router.dispatch(
                    router.shard_for(register(graph_id)), [register(graph_id)]
                )[0]
                assert response["ok"], response
            for graph_id in ("alpha", "beta", "gamma", "delta"):
                shard = router.shard_for(solve(graph_id))
                assert shard == shard_for(graph_id, 3)
                response = router.dispatch(shard, [solve(graph_id)])[0]
                assert response["ok"] and response["size"] == 3
            counters = router.counters()
            assert counters["graphs"] == 4
            assert counters["shards"] == 3

    def test_requests_without_id_go_to_shard_zero(self):
        with ShardRouter(shards=4, config=ServiceConfig()) as router:
            assert router.shard_for({"op": "stats"}) == 0

    def test_identical_graphs_on_two_shards_each_solve_cold(self):
        # Same structure registered under ids living on different shards:
        # each shard keeps its own cache, so both solve cold, and the
        # deterministic solve gives both the same set.
        with ShardRouter(shards=2, config=ServiceConfig()) as router:
            ids = ["g0", "g4"]
            shards = [router.shard_for(solve(g)) for g in ids]
            assert shards[0] != shards[1], "fixture ids must land apart"
            for graph_id in ids:
                router.dispatch(router.shard_for(solve(graph_id)), [register(graph_id)])
            first = router.dispatch(shards[0], [solve(ids[0])])[0]
            second = router.dispatch(shards[1], [solve(ids[1])])[0]
            assert first["ok"] and second["ok"]
            assert first["source"] == second["source"] == "cold"
            assert first["independent_set"] == second["independent_set"]
            cache = router.counters()["cache"]
            assert set(cache) == {"hits", "misses", "evictions", "entries", "hit_rate"}
            assert cache["hits"] + cache["misses"] == 2

    def test_errors_stay_structured(self):
        with ShardRouter(shards=2, config=ServiceConfig()) as router:
            response = router.dispatch(0, [{"op": "solve", "id": "missing"}])[0]
            assert response["ok"] is False
            assert "error" in response


class TestProcessRouter:
    def test_round_trip_and_counters(self):
        with ShardRouter(shards=2, config=ServiceConfig(), mode="process") as router:
            for graph_id in ("p0", "p1", "p2"):
                shard = router.shard_for(register(graph_id))
                assert router.dispatch(shard, [register(graph_id)])[0]["ok"]
                response = router.dispatch(shard, [solve(graph_id)])[0]
                assert response["ok"] and response["size"] == 3
            counters = router.counters()
            assert counters["graphs"] == 3
            assert counters["mode"] == "process"

    def test_runs_exactly_one_child_per_shard(self):
        before = set(multiprocessing.active_children())
        with ShardRouter(shards=2, config=ServiceConfig(), mode="process") as router:
            started = set(multiprocessing.active_children()) - before
            assert sorted(p.name for p in started) == ["repro-shard-0", "repro-shard-1"]
            assert router.dispatch(0, [{"op": "ping"}])[0]["ok"]
        assert not started & set(multiprocessing.active_children())


class TestRouterValidation:
    def test_bad_shard_count(self):
        with pytest.raises(ReproError):
            ShardRouter(shards=0)

    def test_bad_mode(self):
        with pytest.raises(ReproError):
            ShardRouter(shards=1, mode="fiber")

    def test_close_is_idempotent(self):
        router = ShardRouter(shards=2, config=ServiceConfig())
        router.close()
        router.close()
