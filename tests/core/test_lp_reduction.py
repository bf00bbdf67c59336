"""Tests for Hopcroft–Karp and the Nemhauser–Trotter LP reduction."""

import pytest

from repro.core.lp_reduction import (
    HopcroftKarp,
    _solve_csr,
    lp_reduction,
    lp_upper_bound,
)
from repro.exact import brute_force_alpha
from repro.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    gnm_random_graph,
    path_graph,
    power_law_graph,
    star_graph,
)


class TestHopcroftKarp:
    def test_perfect_matching(self):
        # Bipartite 3+3 with a perfect matching.
        adjacency = [[0, 1], [1, 2], [2]]
        matcher = HopcroftKarp(3, 3, adjacency)
        assert matcher.solve() == 3

    def test_star_matching(self):
        adjacency = [[0], [0], [0]]
        matcher = HopcroftKarp(3, 1, adjacency)
        assert matcher.solve() == 1

    def test_empty(self):
        matcher = HopcroftKarp(0, 0, [])
        assert matcher.solve() == 0

    def test_koenig_cover_covers_all_edges(self):
        adjacency = [[0, 1], [0], [1, 2], [3]]
        matcher = HopcroftKarp(4, 4, adjacency)
        size = matcher.solve()
        cover_left, cover_right = matcher.minimum_vertex_cover()
        for u, row in enumerate(adjacency):
            for v in row:
                assert cover_left[u] or cover_right[v]
        # König: cover size equals matching size.
        assert sum(cover_left) + sum(cover_right) == size


class TestLPReduction:
    def test_star_center_excluded(self):
        result = lp_reduction(star_graph(4))
        assert 0 in result.excluded
        assert set(result.included) == {1, 2, 3, 4}

    def test_odd_cycle_all_half(self):
        result = lp_reduction(cycle_graph(5))
        assert len(result.remaining) == 5

    def test_even_cycle(self):
        # Even cycles have an integral LP optimum but also the all-half
        # one; either classification must preserve α.
        result = lp_reduction(cycle_graph(6))
        sub, _ = cycle_graph(6).subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == 3

    def test_complete_bipartite_unbalanced(self):
        result = lp_reduction(complete_bipartite_graph(2, 5))
        assert set(result.included) == set(range(2, 7))
        assert set(result.excluded) == {0, 1}

    def test_clique_all_half(self):
        result = lp_reduction(complete_graph(5))
        assert len(result.remaining) == 5
        assert result.lp_bound == pytest.approx(2.5)

    @pytest.mark.parametrize("seed", range(40))
    def test_persistency_randomized(self, seed):
        g = gnm_random_graph(13, 26, seed=seed)
        result = lp_reduction(g)
        sub, _ = g.subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == brute_force_alpha(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_bound_is_valid(self, seed):
        g = gnm_random_graph(12, 20, seed=seed + 100)
        assert lp_upper_bound(g) >= brute_force_alpha(g)

    def test_included_never_adjacent_to_included(self):
        g = gnm_random_graph(20, 50, seed=77)
        result = lp_reduction(g)
        included = set(result.included)
        for v in included:
            assert not any(w in included for w in g.neighbors(v))

    def test_path_reduces_fully_or_consistently(self):
        g = path_graph(6)
        result = lp_reduction(g)
        sub, _ = g.subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == 3


class TestCsrSolverMatchesOracle:
    """``_solve_csr`` skips isolated vertices; the matching must not change."""

    @pytest.mark.parametrize(
        "graph",
        [
            gnm_random_graph(300, 500, seed=5),
            gnm_random_graph(400, 150, seed=6),  # mostly isolated vertices
            power_law_graph(600, beta=2.2, average_degree=2.0, seed=7),
            disjoint_union([path_graph(1), cycle_graph(7), path_graph(1), star_graph(4)]),
            path_graph(1),
            path_graph(0),
        ],
    )
    def test_same_matching_as_hopcroft_karp(self, graph):
        xadj, adj = graph.csr_arrays()
        oracle = HopcroftKarp(
            graph.n, graph.n, [list(graph.neighbors(v)) for v in range(graph.n)]
        )
        oracle.solve()
        assert _solve_csr(graph.n, xadj, adj) == (oracle.match_left, oracle.match_right)
