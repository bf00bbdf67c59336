"""SolverService: cache behaviour, repair routing, timeouts, persistence.

The property tests at the bottom are the serving layer's acceptance gate:
after every mutation batch the served solution is independent, maximal,
and within the differential tolerance of a cold solve of the same
snapshot.
"""

import dataclasses
import importlib
import json
import random

import pytest

from repro.analysis import assert_valid_solution
from repro.cli import main as cli_main
from repro.core.kernel import kernelize
from repro.errors import ReproError
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
        assert "repair" in {r["source"] for r in responses if r["op"] == "solve"}

        path = tmp_path / "service.json"
        service.save(str(path))
        restored = SolverService.load(str(path))
        replay = restored.solve(GRAPH_ID)
        _validate(restored, GRAPH_ID, replay)
        assert replay.independent_set == service.solve(GRAPH_ID).independent_set
