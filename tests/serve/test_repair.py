"""Localized repair: feasibility invariants and differential quality.

The load-bearing property: after any mutation batch, ``repair_solution``
returns an assignment that is (a) independent, (b) maximal, and (c) within
the differential tolerance of a cold solve — on every graph family and
seed swept here.
"""

import random

import pytest

from repro.analysis import assert_valid_solution
from repro.core import components as components_module
from repro.core.bdone import bdone
from repro.core.components import affected_region, solve_by_components
from repro.core.framework import ALGORITHM_BY_NAME
from repro.core.linear_time import linear_time
from repro.core.near_linear import near_linear
from repro.core.trace import extend_to_maximal
from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    gnm_random_graph,
    power_law_graph,
    web_like_graph,
)
from repro.graphs.properties import connected_components
from repro.obs.telemetry import telemetry_session
from repro.serve import DynamicGraph, Mutation, cold_solve, patch_solution, repair_solution
from repro.serve import repair as repair_module

SIZE_TOLERANCE = 0.95


def _in_set(graph: Graph, vertices) -> list:
    flags = [False] * graph.n
    for v in vertices:
        flags[v] = True
    return flags


class TestColdSolve:
    def test_registry_names_are_pinned(self):
        # Service configs and saved snapshots store these names.
        assert ALGORITHM_BY_NAME == {
            "bdone": bdone,
            "linear_time": linear_time,
            "near_linear": near_linear,
        }

    def test_resolves_registry_names(self):
        g = gnm_random_graph(60, 150, seed=2)
        for name, algorithm in sorted(ALGORITHM_BY_NAME.items()):
            result = cold_solve(g, name)
            assert_valid_solution(g, result.independent_set)
            direct = algorithm(g)
            assert result.independent_set == direct.independent_set
            assert result.upper_bound == direct.upper_bound
            assert result.stats == direct.stats

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            cold_solve(Graph.from_edges(2, [(0, 1)]), "quantum")


class TestPatchSolution:
    def test_drops_conflicts_deterministically(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        patched = patch_solution(g, [True, True, True, True])
        # Higher endpoint of each violated edge leaves.
        assert patched == [True, False, True, False]

    def test_extends_to_maximal(self):
        g = cycle_graph(6)
        patched = patch_solution(g, [False] * 6)
        assert_valid_solution(g, [v for v in range(6) if patched[v]])

    def test_input_not_modified(self):
        g = Graph.from_edges(2, [(0, 1)])
        original = [True, True]
        patch_solution(g, original)
        assert original == [True, True]


class TestRepairSolution:
    def test_empty_seed_set_still_feasible(self):
        g = gnm_random_graph(50, 120, seed=3)
        base = cold_solve(g, "linear_time")
        outcome = repair_solution(
            g, _in_set(g, base.independent_set), [], "linear_time"
        )
        assert_valid_solution(
            g, [v for v in range(g.n) if outcome.in_set[v]]
        )
        assert outcome.size >= base.size  # nothing to repair, nothing lost

    def test_scope_accounting(self):
        g = cycle_graph(12)
        base = cold_solve(g, "linear_time")
        outcome = repair_solution(
            g, _in_set(g, base.independent_set), [0], "linear_time", radius=1
        )
        scope = outcome.scope()
        assert scope["region"] == 3  # 0 and its two ring neighbours
        assert scope["free"] + scope["blocked"] == scope["region"]
        assert set(scope) == {"region", "free", "blocked", "components"}

    @pytest.mark.parametrize("family_seed", range(6))
    def test_differential_vs_cold_after_mutation_stream(self, family_seed):
        families = [
            lambda s: gnm_random_graph(120, 300, seed=s),
            lambda s: power_law_graph(150, beta=2.3, seed=s),
            lambda s: web_like_graph(100, attach=2, seed=s),
        ]
        graph = families[family_seed % 3](family_seed)
        dynamic = DynamicGraph(graph)
        result = cold_solve(graph, "linear_time")
        solution = set(result.independent_set)

        rng = random.Random(family_seed)
        for _ in range(5):
            live = list(dynamic.live_vertices())
            mutations = []
            for _ in range(4):
                u, v = rng.sample(live, 2)
                kind = "remove_edge" if dynamic.has_edge(u, v) else "add_edge"
                mutations.append(Mutation(kind, u, v))
            dirty = dynamic.apply(mutations)

            snapshot, old_ids = dynamic.snapshot()
            compact = {old: new for new, old in enumerate(old_ids)}
            in_set = [False] * snapshot.n
            for v in solution:
                if v in compact:
                    in_set[compact[v]] = True
            seeds = sorted(compact[v] for v in dirty if v in compact)
            outcome = repair_solution(snapshot, in_set, seeds, "linear_time")

            repaired = [v for v in range(snapshot.n) if outcome.in_set[v]]
            assert_valid_solution(snapshot, repaired)
            cold = cold_solve(snapshot, "linear_time")
            assert outcome.size >= SIZE_TOLERANCE * cold.size
            solution = {old_ids[v] for v in repaired}

    def test_vertex_removal_repair(self):
        g = power_law_graph(200, beta=2.2, seed=5)
        dynamic = DynamicGraph(g)
        solution = set(cold_solve(g, "linear_time").independent_set)
        # Remove a handful of solution vertices — the repair has to refill.
        victims = sorted(solution)[:5]
        dirty = set()
        for v in victims:
            dirty |= dynamic.remove_vertex(v)
        dirty = {v for v in dirty if dynamic.is_live(v)}

        snapshot, old_ids = dynamic.snapshot()
        compact = {old: new for new, old in enumerate(old_ids)}
        in_set = [False] * snapshot.n
        for v in solution:
            if v in compact:
                in_set[compact[v]] = True
        outcome = repair_solution(
            snapshot,
            in_set,
            sorted(compact[v] for v in dirty if v in compact),
            "linear_time",
        )
        repaired = [v for v in range(snapshot.n) if outcome.in_set[v]]
        assert_valid_solution(snapshot, repaired)
        cold = cold_solve(snapshot, "linear_time")
        assert outcome.size >= SIZE_TOLERANCE * cold.size

    def test_region_respects_radius(self):
        g = cycle_graph(30)
        base = cold_solve(g, "linear_time")
        for radius in (0, 1, 2, 3):
            outcome = repair_solution(
                g, _in_set(g, base.independent_set), [0], "linear_time",
                radius=radius,
            )
            assert outcome.region_size == min(2 * radius + 1, g.n)


class TestRepairComponentPass:
    """A repair splits its free region into components exactly once."""

    @staticmethod
    def _reference(graph, in_set, seeds):
        # The repair as composed from the public pieces: free region, one
        # solve_by_components call, extension to maximal.
        region = affected_region(graph, seeds, radius=1)
        inside = set(region)
        free = [
            v for v in region
            if not any(w not in inside and in_set[w] for w in graph.neighbors(v))
        ]
        repaired = list(in_set)
        for v in region:
            repaired[v] = False
        subgraph, old_ids = graph.subgraph(free)
        result = solve_by_components(subgraph, linear_time)
        for v in result.independent_set:
            repaired[old_ids[v]] = True
        extend_to_maximal(repaired, graph)
        return repaired, len(connected_components(subgraph))

    def test_one_connected_components_call(self, monkeypatch):
        graph = power_law_graph(400, beta=2.2, seed=3)
        in_set = _in_set(graph, cold_solve(graph, "linear_time").independent_set)
        seeds = list(range(0, graph.n, 40))
        expected, expected_components = self._reference(graph, in_set, seeds)
        assert expected_components > 1

        calls = []

        def counted(g):
            calls.append(g.n)
            return connected_components(g)

        for module in (repair_module, components_module):
            if hasattr(module, "connected_components"):
                monkeypatch.setattr(module, "connected_components", counted)
        outcome = repair_solution(graph, in_set, seeds, "linear_time", radius=1)
        assert len(calls) == 1
        assert outcome.components == expected_components
        assert outcome.in_set.astype(bool).tolist() == expected

    def test_component_spans_are_stamped(self):
        # Each component's solver spans carry its index for the report.
        graph = power_law_graph(400, beta=2.2, seed=3)
        in_set = _in_set(graph, cold_solve(graph, "linear_time").independent_set)
        seeds = list(range(0, graph.n, 40))
        with telemetry_session("test") as telemetry:
            outcome = repair_solution(graph, in_set, seeds, "linear_time", radius=1)
        stamped = {
            record["meta"]["component"]
            for record in telemetry.to_records()
            if record.get("type") == "span" and "component" in record["meta"]
        }
        assert outcome.components >= 2
        assert stamped == set(range(outcome.components))
