"""SolverService: cache behaviour, repair routing, timeouts, persistence.

The property tests at the bottom are the serving layer's acceptance gate:
after every mutation batch the served solution is independent, maximal,
and within the differential tolerance of a cold solve of the same
snapshot.
"""

import dataclasses
import importlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import assert_valid_solution, verify_result
from repro.cli import main as cli_main
from repro.core.components import affected_region
from repro.core.kernel import kernelize
from repro.errors import ReproError
from repro.exact import maximum_independent_set
from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    gnm_random_graph,
    power_law_graph,
)
from repro.obs.metrics import METRIC_SERVE_CACHE_HITS, METRIC_SERVE_STALE_RETURNS
from repro.obs.telemetry import disable, enable
from repro.serve import (
    Mutation,
    ServiceConfig,
    SolverService,
    cold_solve,
    handle_request,
)

from .gauntlet import GRAPH_ID, SIZE_TOLERANCE, check_responses, gauntlet_requests


def _validate(service, graph_id, result):
    snapshot, old_ids = service.dynamic_graph(graph_id).snapshot()
    compact = {old: new for new, old in enumerate(old_ids)}
    served = {compact[v] for v in result.independent_set}
    assert_valid_solution(snapshot, served)
    return snapshot


class TestRegistration:
    def test_register_assigns_handles(self):
        service = SolverService()
        a = service.register(cycle_graph(5))
        b = service.register(cycle_graph(7))
        assert a != b
        assert service.graph_ids() == [a, b]

    def test_register_runs_no_reduction(self, monkeypatch):
        # Only queries solve: register just wraps the graph, and the first
        # solve runs exactly the one LinearTime reduction of its cold solve.
        module = importlib.import_module("repro.core.linear_time")
        original = module._set_up_and_run
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "_set_up_and_run", counting)
        service = SolverService()
        gid = service.register(gnm_random_graph(80, 160, seed=1))
        assert calls == []
        assert service.solve(gid).source == "cold"
        assert calls == [80]
        assert service.solve(gid).source == "cache"
        assert calls == [80]

    def test_duplicate_handle_rejected(self):
        service = SolverService()
        service.register(cycle_graph(5), graph_id="g")
        with pytest.raises(ReproError):
            service.register(cycle_graph(5), graph_id="g")

    def test_unknown_handle_rejected(self):
        service = SolverService()
        with pytest.raises(ReproError, match="unknown graph id"):
            service.solve("nope")

    def test_unknown_algorithm_rejected_at_construction(self):
        # Caught when the service is built, not by the first solve.  The
        # retired vectorized names are as unknown as any other.
        for name in ("nope", "linear_time_vec"):
            with pytest.raises(
                ReproError,
                match=r"registered: \['bdone', 'linear_time', 'near_linear'\]",
            ):
                SolverService(ServiceConfig(algorithm=name))

    def test_unregister(self):
        service = SolverService()
        gid = service.register(cycle_graph(5))
        service.unregister(gid)
        assert service.graph_ids() == []


class TestCachePath:
    def test_second_solve_hits_cache(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(100, 250, seed=2))
        first = service.solve(gid)
        second = service.solve(gid)
        assert first.source == "cold"
        assert second.source == "cache"
        assert second.independent_set == first.independent_set
        assert service.metrics.value(METRIC_SERVE_CACHE_HITS) == 1

    def test_structural_twins_share_cache_entries(self):
        service = SolverService()
        a = service.register(gnm_random_graph(60, 140, seed=3))
        b = service.register(gnm_random_graph(60, 140, seed=3))
        service.solve(a)
        result = service.solve(b)
        assert result.source == "cache"

    def test_mutation_then_revert_hits_cache(self):
        service = SolverService()
        gid = service.register(cycle_graph(9))
        service.solve(gid)
        service.add_edge(gid, 0, 4)
        service.remove_edge(gid, 0, 4)
        result = service.solve(gid)
        assert result.source == "cache"

    def test_cold_results_carry_certified_bound(self):
        service = SolverService()
        gid = service.register(cycle_graph(9))
        result = service.solve(gid)
        assert result.exact_bound
        assert result.size <= result.upper_bound


class TestRepairPath:
    def test_small_mutation_routes_to_repair(self):
        service = SolverService()
        gid = service.register(power_law_graph(400, beta=2.2, seed=4))
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)
        u, v = 0, 1
        if dynamic.has_edge(u, v):
            service.remove_edge(gid, u, v)
        else:
            service.add_edge(gid, u, v)
        result = service.solve(gid)
        assert result.source == "repair"
        assert result.repair_scope["region"] > 0
        snapshot = _validate(service, gid, result)
        cold = cold_solve(snapshot, "linear_time")
        assert result.size >= SIZE_TOLERANCE * cold.size

    def test_heavy_mutation_falls_back_to_full_solve(self):
        service = SolverService(ServiceConfig(dirty_threshold=0.05))
        gid = service.register(gnm_random_graph(60, 150, seed=5))
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)
        rng = random.Random(99)
        chosen = set()
        while len(chosen) < 20:
            u, v = sorted(rng.sample(range(60), 2))
            if not dynamic.has_edge(u, v):
                chosen.add((u, v))
        service.apply(gid, [Mutation("add_edge", u, v) for u, v in chosen])
        result = service.solve(gid)
        assert result.source == "cold"
        assert result.exact_bound

    def test_repair_clears_dirty_and_reseeds_cache(self):
        service = SolverService()
        gid = service.register(power_law_graph(300, beta=2.2, seed=6))
        service.solve(gid)
        service.add_edge(gid, 2, 3) if not service.dynamic_graph(gid).has_edge(
            2, 3
        ) else service.remove_edge(gid, 2, 3)
        repaired = service.solve(gid)
        assert repaired.source == "repair"
        again = service.solve(gid)
        assert again.source == "cache"
        assert again.independent_set == repaired.independent_set

    def test_added_vertex_joins_solution(self):
        service = SolverService()
        gid = service.register(cycle_graph(6))
        service.solve(gid)
        fresh = service.add_vertex(gid)
        result = service.solve(gid)
        assert fresh in result.independent_set


class TestTimeout:
    def test_exhausted_budget_returns_stale_flagged_solution(self):
        service = SolverService()
        gid = service.register(power_law_graph(500, beta=2.2, seed=7))
        good = service.solve(gid)
        service.add_edge(gid, 0, 2) if not service.dynamic_graph(gid).has_edge(
            0, 2
        ) else service.remove_edge(gid, 0, 2)
        stale = service.solve(gid, timeout=0.0)
        assert stale.stale
        assert stale.source == "stale"
        _validate(service, gid, stale)
        assert stale.size >= SIZE_TOLERANCE * good.size
        # A served request carries the same budget down to the verb.
        served = handle_request(service, {"op": "solve", "id": gid, "timeout": 0.0})
        assert served["ok"]
        assert served["source"] == "stale"
        assert served["stale"]
        # Dirty state is retained, so a budgeted retry repairs for real.
        retry = service.solve(gid)
        assert retry.source == "repair"
        assert not retry.stale

    def test_timeout_before_first_solve_solves_anyway(self):
        # With no last-known-good there is nothing to degrade to.
        service = SolverService()
        gid = service.register(cycle_graph(8))
        result = service.solve(gid, timeout=0.0)
        assert result.source == "cold"
        assert not result.stale


class TestUpperBound:
    def test_upper_bound_is_certified_after_mutations(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(120, 300, seed=8))
        service.solve(gid)
        service.add_edge(gid, 0, 5) if not service.dynamic_graph(gid).has_edge(
            0, 5
        ) else service.remove_edge(gid, 0, 5)
        bound = service.upper_bound(gid)
        snapshot, _ = service.dynamic_graph(gid).snapshot()
        cold = cold_solve(snapshot, "linear_time")
        assert bound == cold.upper_bound
        assert bound < snapshot.n  # certified, not the trivial bound

    def test_exhausted_budget_still_returns_certified_bound(self):
        # The budget reaches the inner solve, which goes stale; the bound
        # is then certified by a cold solve all the same.
        service = SolverService()
        gid = service.register(gnm_random_graph(120, 300, seed=8))
        service.solve(gid)
        service.remove_vertex(gid, 5)
        bound = service.upper_bound(gid, timeout=0.0)
        assert service.metrics.total(METRIC_SERVE_STALE_RETURNS) == 1
        snapshot, _ = service.dynamic_graph(gid).snapshot()
        assert bound == cold_solve(snapshot, "linear_time").upper_bound
        assert bound < snapshot.n


class TestTelemetry:
    def test_counters_flow_to_sink(self):
        telemetry = enable(label="serve-test")
        try:
            service = SolverService()
            gid = service.register(gnm_random_graph(80, 200, seed=9))
            service.solve(gid)
            service.solve(gid)
        finally:
            disable()
        assert telemetry.counters.get("serve:cache-hit") == 1
        assert telemetry.counters.get("serve:cache-miss") == 1
        names = {span.name for span in telemetry.spans}
        assert "serve:register" in names
        assert "serve:solve" in names

    def test_events_mirror_without_sink(self):
        service = SolverService()
        gid = service.register(cycle_graph(7))
        service.solve(gid)
        service.solve(gid)
        counters = service.counters()
        assert counters["events"]["serve:cache-hit"] == 1
        assert counters["cache"]["hits"] == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        service = SolverService()
        gid = service.register(power_law_graph(150, beta=2.3, seed=10))
        before = service.solve(gid)
        service.add_edge(gid, 1, 2) if not service.dynamic_graph(gid).has_edge(
            1, 2
        ) else service.remove_edge(gid, 1, 2)
        path = tmp_path / "service.json"
        service.save(str(path))
        restored = SolverService.load(str(path))
        assert restored.graph_ids() == [gid]
        # The dirty set survived, so the restored service repairs too.
        result = restored.solve(gid)
        assert result.source in ("repair", "cold")
        _validate(restored, gid, result)
        assert result.size >= SIZE_TOLERANCE * before.size

    def test_corrupt_snapshot_rejected(self, tmp_path):
        import json

        service = SolverService()
        gid = service.register(cycle_graph(5))
        payload = service.snapshot_payload()
        payload["graphs"][gid]["dynamic"]["edges"].pop()
        with pytest.raises(ReproError, match="fingerprint mismatch"):
            SolverService.restore(payload)

    def test_version_gate(self):
        with pytest.raises(ReproError, match="snapshot version"):
            SolverService.restore({"version": 99})

    def test_restore_rejects_unregistered_algorithm(self):
        # A snapshot taken while the per-graph picker existed names it;
        # restore must refuse it up front and list the registered names.
        service = SolverService()
        service.register(cycle_graph(5))
        payload = service.snapshot_payload()
        payload["config"]["algorithm"] = "linear_time_auto"
        with pytest.raises(ReproError, match="registered: .*'near_linear'"):
            SolverService.restore(payload)

    def test_restores_snapshots_with_kernel_state(self, tmp_path, capsys):
        # Older builds kept a LinearTime kernel per graph and wrote it into
        # every snapshot, with three more config keys and kernel sizes on
        # cache entries.  Such a snapshot still restores and verifies, and
        # the restored service answers like the one that wrote it.
        service = SolverService()
        gid = service.register(power_law_graph(300, beta=2.2, seed=12))
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)
        service.apply(gid, [Mutation("remove_vertex", 0), Mutation("add_vertex")])
        service.solve(gid)
        service.add_edge(gid, 5, 6) if not dynamic.has_edge(5, 6) else (
            service.remove_edge(gid, 5, 6)
        )
        payload = service.snapshot_payload()
        snapshot, _ = dynamic.snapshot()
        kernel = kernelize(snapshot, method="linear_time")
        payload["graphs"][gid]["kernel"] = {
            "method": kernel.method,
            "old_ids": list(kernel.old_ids),
            "kernel_n": kernel.kernel.n,
            "kernel_edges": [[u, v] for u, v in kernel.kernel.edges()],
            "log": {
                "entries": [[kind, list(data)] for kind, data in kernel.log.entries],
                "stats": dict(kernel.log.stats),
            },
        }
        payload["config"].update(
            kernel_method="linear_time", processes=1, min_component_size=2000
        )
        for entry in payload["cache"]:
            entry.update(kernel_n=kernel.kernel.n, kernel_m=kernel.kernel.m)
        path = tmp_path / "older.json"
        path.write_text(json.dumps(payload))

        assert cli_main(["snapshot", str(path), "--verify"]) == 0
        assert "restores cleanly" in capsys.readouterr().out
        restored = SolverService.load(str(path))

        def answer(target):
            result = target.solve(gid)
            return result.independent_set, result.source, result.upper_bound

        assert answer(restored) == answer(service)  # repairs the dirty edge
        assert answer(restored) == answer(service)  # cache hit
        for target in (service, restored):
            target.apply(gid, [Mutation("add_vertex")])
        assert answer(restored) == answer(service)
        assert restored.upper_bound(gid) == service.upper_bound(gid)

    def test_config_round_trips(self, tmp_path):
        config = ServiceConfig(
            algorithm="near_linear",
            cache_capacity=7,
            dirty_threshold=0.5,
            repair_radius=3,
            default_timeout=1.5,
        )
        service = SolverService(config)
        path = tmp_path / "svc.json"
        service.save(str(path))
        restored = SolverService.load(str(path))
        # Every field is persisted.
        fields = [f.name for f in dataclasses.fields(ServiceConfig)]
        assert set(service.snapshot_payload()["config"]) == set(fields)
        assert fields == [
            "algorithm",
            "cache_capacity",
            "dirty_threshold",
            "repair_radius",
            "default_timeout",
        ]
        assert restored.config.algorithm == "near_linear"
        assert restored.config.cache_capacity == 7
        assert restored.config.repair_radius == 3
        assert restored.config.default_timeout == 1.5


class TestPropertyDifferential:
    """The acceptance property: repaired == feasible, size ~= cold."""

    @pytest.mark.parametrize("seed", range(5))
    def test_mutation_stream_tracks_cold_solve(self, seed):
        rng = random.Random(seed)
        graph = power_law_graph(250, beta=2.2 + 0.1 * (seed % 3), seed=seed)
        service = SolverService()
        gid = service.register(graph)
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)

        for _ in range(8):
            live = list(dynamic.live_vertices())
            mutations = []
            for _ in range(3):
                roll = rng.random()
                if roll < 0.5:
                    u, v = rng.sample(live, 2)
                    kind = (
                        "remove_edge" if dynamic.has_edge(u, v) else "add_edge"
                    )
                    mutations.append(Mutation(kind, u, v))
                elif roll < 0.75 and len(live) > 10:
                    victim = rng.choice(live)
                    mutations.append(Mutation("remove_vertex", victim))
                    live.remove(victim)
                else:
                    mutations.append(Mutation("add_vertex"))
            service.apply(gid, mutations)

            result = service.solve(gid)
            assert result.source in ("repair", "cold", "cache")
            snapshot = _validate(service, gid, result)
            cold = cold_solve(snapshot, "linear_time")
            assert result.size >= SIZE_TOLERANCE * cold.size
            assert result.size <= result.upper_bound

    @pytest.mark.parametrize("algorithm", ["linear_time", "near_linear"])
    def test_gauntlet_tracks_cold_solve_and_survives_save_load(
        self, algorithm, tmp_path
    ):
        # The serving gauntlet CI also runs through `repro serve`: 2,000
        # vertices, 100 mutations in batches of 10 with vertex births and
        # deaths, every served answer checked against a cold solve.
        requests = gauntlet_requests(n=2_000, mutations=100, batch=10, seed=7)
        service = SolverService(ServiceConfig(algorithm=algorithm))
        responses = [handle_request(service, request) for request in requests]
        assert check_responses(requests, responses, algorithm) == []
        solves = [r for r in responses if r["op"] == "solve"]
        assert "repair" in {r["source"] for r in solves}
        # The stream removes edges, so repaired answers carry bounds above
        # the certified one, and the check above found them sound.
        certified = solves[0]["upper_bound"]
        assert any(r["upper_bound"] > certified for r in solves if r["source"] == "repair")

        path = tmp_path / "service.json"
        service.save(str(path))
        restored = SolverService.load(str(path))
        replay = restored.solve(GRAPH_ID)
        _validate(restored, GRAPH_ID, replay)
        assert replay.independent_set == service.solve(GRAPH_ID).independent_set


class TestCarriedBound:
    """Repaired and stale answers carry min(n, B + k), never n blindly."""

    @staticmethod
    def _served(seed=8):
        service = SolverService()
        gid = service.register(gnm_random_graph(300, 600, seed=seed))
        cold = service.solve(gid)
        return service, gid, cold

    @staticmethod
    def _absent_edge(dynamic):
        for u in range(dynamic.n_allocated):
            for v in range(u + 1, dynamic.n_allocated):
                if dynamic.is_live(u) and dynamic.is_live(v) and not dynamic.has_edge(u, v):
                    return u, v
        raise AssertionError("complete graph")

    def test_edge_insertions_keep_the_certified_bound(self):
        service, gid, cold = self._served()
        service.add_edge(gid, *self._absent_edge(service.dynamic_graph(gid)))
        repaired = service.solve(gid)
        assert repaired.source == "repair"
        assert repaired.upper_bound == cold.upper_bound
        assert not repaired.exact_bound and not repaired.is_exact

    def test_each_raising_write_adds_one(self):
        service, gid, cold = self._served()
        dynamic = service.dynamic_graph(gid)
        u = next(v for v in range(dynamic.n) if dynamic.degree(v))
        service.apply(
            gid,
            [
                Mutation("remove_edge", u, dynamic.neighbors(u)[0]),
                Mutation("add_vertex"),
                Mutation("remove_vertex", 7),
            ],
        )
        repaired = service.solve(gid)
        assert repaired.source == "repair"
        assert repaired.upper_bound == cold.upper_bound + 2
        # A cache hit on the repaired entry repeats its bound.
        assert service.solve(gid).upper_bound == repaired.upper_bound
        # A stale answer carries it too.
        service.add_vertex(gid)
        stale = service.solve(gid, timeout=0.0)
        assert stale.source == "stale"
        assert stale.upper_bound == cold.upper_bound + 3
        assert not stale.exact_bound

    def test_bound_is_capped_at_n(self):
        # A matching on 6 vertices: B = 3; four edge removals make B + k = 7.
        service = SolverService(ServiceConfig(cache_capacity=1, dirty_threshold=1.0))
        gid = service.register(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        assert service.solve(gid).upper_bound == 3
        for raises, (u, v) in enumerate([(0, 1), (2, 3), (4, 5)], start=1):
            service.remove_edge(gid, u, v)
            assert service.solve(gid).upper_bound == 3 + raises
        service.add_edge(gid, 0, 2)
        assert service.solve(gid).upper_bound == 6
        service.remove_edge(gid, 0, 2)
        capped = service.solve(gid)
        assert capped.source == "repair"
        assert capped.upper_bound == 6

    def test_cold_solve_resets_the_carried_bound(self):
        service, gid, cold = self._served()
        dynamic = service.dynamic_graph(gid)
        u = next(v for v in range(dynamic.n) if dynamic.degree(v))
        service.remove_edge(gid, u, dynamic.neighbors(u)[0])
        assert service.solve(gid).upper_bound == cold.upper_bound + 1
        certified = service.upper_bound(gid)
        service.add_edge(gid, *self._absent_edge(dynamic))
        assert service.solve(gid).upper_bound == certified

    def test_snapshot_keeps_the_carried_bound(self):
        service, gid, cold = self._served()
        dynamic = service.dynamic_graph(gid)
        u = next(v for v in range(dynamic.n) if dynamic.degree(v))
        service.remove_edge(gid, u, dynamic.neighbors(u)[0])
        payload = json.loads(json.dumps(service.snapshot_payload()))
        assert (payload["graphs"][gid]["bound"], payload["graphs"][gid]["raises"]) == (
            cold.upper_bound,
            1,
        )
        assert SolverService.restore(payload).solve(gid).upper_bound == cold.upper_bound + 1

    def test_parent_snapshots_restore_with_the_trivial_bound(self):
        service, gid, _ = self._served()
        service.add_edge(gid, *self._absent_edge(service.dynamic_graph(gid)))
        payload = service.snapshot_payload()
        for key in ("bound", "raises"):
            del payload["graphs"][gid][key]
        restored = SolverService.restore(payload)
        answer = restored.solve(gid)
        assert answer.source == "repair"
        assert answer.upper_bound == restored.dynamic_graph(gid).n
        assert answer.independent_set == service.solve(gid).independent_set


class TestRestoreChecksTheSolution:
    """A stored solution must be one a repair can extend from."""

    @staticmethod
    def _payload():
        service = SolverService()
        gid = service.register(gnm_random_graph(200, 400, seed=4))
        service.solve(gid)
        service.add_edge(gid, 0, 1) if not service.dynamic_graph(gid).has_edge(0, 1) else (
            service.remove_edge(gid, 0, 1)
        )
        return service, gid, json.loads(json.dumps(service.snapshot_payload()))

    def test_untouched_payload_restores(self):
        _, gid, payload = self._payload()
        SolverService.restore(payload).solve(gid)

    def test_dropped_member_far_from_the_dirty_vertices_is_rejected(self):
        service, gid, payload = self._payload()
        dynamic = service.dynamic_graph(gid)
        near = {0, 1}.union(dynamic.neighbors(0), dynamic.neighbors(1))
        record = payload["graphs"][gid]
        victim = next(v for v in record["solution"] if v not in near)
        record["solution"].remove(victim)
        with pytest.raises(ReproError, match="not an independent set maximal"):
            SolverService.restore(payload)

    def test_conflicting_member_is_rejected(self):
        service, gid, payload = self._payload()
        dynamic = service.dynamic_graph(gid)
        record = payload["graphs"][gid]
        members = set(record["solution"])
        intruder = next(
            v
            for v in range(dynamic.n)
            if v not in members and v not in (0, 1) and dynamic.degree(v)
        )
        record["solution"] = sorted(members | {intruder})
        with pytest.raises(ReproError, match="not an independent set maximal"):
            SolverService.restore(payload)

    def test_unknown_member_is_rejected(self):
        _, gid, payload = self._payload()
        payload["graphs"][gid]["solution"].append(10**6)
        with pytest.raises(ReproError, match="unknown ids"):
            SolverService.restore(payload)

    @pytest.mark.parametrize("field, value", [("bound", 0), ("raises", -5), ("bound", -1)])
    def test_unsound_carried_bound_is_rejected(self, field, value):
        _, gid, payload = self._payload()
        payload["graphs"][gid][field] = value
        with pytest.raises(ReproError, match="cannot bound"):
            SolverService.restore(payload)

    def test_bound_above_n_after_a_removal_restores(self):
        # A removed vertex lowers n and leaves B as it was; the carried
        # bound min(n, B + k) is still sound, so the snapshot must load.
        service = SolverService()
        gid = service.register(Graph.empty(6))
        service.solve(gid)
        service.remove_vertex(gid, 0)
        payload = json.loads(json.dumps(service.snapshot_payload()))
        assert payload["graphs"][gid]["bound"] > service.dynamic_graph(gid).n
        restored = SolverService.restore(payload)
        assert restored.solve(gid).upper_bound == 5


_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "add_vertex", "remove_vertex", "solve"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=25,
)


class TestServedAnswersAgainstAlpha:
    """Every served answer passes verify_result against the exact α."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(2, 40),
        density=st.floats(0.02, 0.3),
        seed=st.integers(0, 2**16),
        steps=_WRITES,
        timeout=st.sampled_from([None, 0.0]),
    )
    def test_every_answer_is_sound(self, n, density, seed, steps, timeout):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        service = SolverService()
        gid = service.register(Graph.from_edges(n, edges))
        dynamic = service.dynamic_graph(gid)
        self._check(service, gid, service.solve(gid))
        for kind, a, b in steps:
            live = list(dynamic.live_vertices())
            if kind == "solve":
                self._check(service, gid, service.solve(gid, timeout=timeout))
            elif kind == "add_vertex" or not live:
                service.add_vertex(gid)
            elif kind == "remove_vertex" and len(live) > 1:
                service.remove_vertex(gid, live[a % len(live)])
            elif kind in ("add_edge", "remove_edge") and len(live) > 1:
                u, v = live[a % len(live)], live[b % len(live)]
                if u != v:
                    getattr(service, kind)(gid, u, v)
        self._check(service, gid, service.solve(gid))

    @staticmethod
    def _check(service, gid, result):
        snapshot, old_ids = service.dynamic_graph(gid).snapshot()
        compact = {old: new for new, old in enumerate(old_ids)}
        answer = dataclasses.replace(
            result, independent_set=frozenset(compact[v] for v in result.independent_set)
        )
        alpha = maximum_independent_set(snapshot).size
        verify_result(snapshot, answer, alpha=alpha)


def test_repairs_import_no_scipy():
    # The serve path is numpy only: a replay through repairs and stale
    # answers must not load scipy.
    script = (
        "import sys\n"
        "from repro.serve import SolverService, handle_request\n"
        "from tests.serve.gauntlet import gauntlet_requests\n"
        "service = SolverService()\n"
        "sources = set()\n"
        "for request in gauntlet_requests(n=1500, mutations=60, batch=6, seed=3):\n"
        "    response = handle_request(service, request)\n"
        "    assert response['ok'], response\n"
        "    sources.add(response.get('source'))\n"
        "service.add_vertex('g')\n"
        "sources.add(service.solve('g', timeout=0.0).source)\n"
        "assert {'cold', 'repair', 'stale'} <= sources, sources\n"
        "print('scipy' in sys.modules)\n"
    )
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_failed_batch_forces_a_cold_solve():
    # The writes before a failing one land untracked; a repair around the
    # recorded seeds could miss them, so the next query solves cold.
    service = SolverService()
    graph = gnm_random_graph(200, 400, seed=6)
    gid = service.register(graph)
    first = service.solve(gid)
    dynamic = service.dynamic_graph(gid)
    w = dynamic.neighbors(0)[0]
    near = set(affected_region(graph, [0, w], radius=3))
    service.remove_edge(gid, 0, w)  # a tracked write
    # Two members far from it: a repair around 0 and w would keep both.
    u, v = [x for x in sorted(first.independent_set) if x not in near][:2]
    with pytest.raises(ReproError):
        service.apply(gid, [Mutation("add_edge", u, v), Mutation("add_edge", 0, 10**6)])
    result = service.solve(gid)
    assert result.source == "cold"
    _validate(service, gid, result)
