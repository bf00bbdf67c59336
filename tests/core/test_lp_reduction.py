"""Tests for Hopcroft–Karp and the Nemhauser–Trotter LP reduction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lp_reduction import (
    HopcroftKarp,
    LPReductionResult,
    lp_reduction,
    lp_upper_bound,
)
from repro.core.near_linear import near_linear, near_linear_reduce
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
from repro.graphs.static_graph import Graph

from .test_differential_backends import CORPUS


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


def oracle_lp_reduction(graph):
    """The LP classification from the pure-Python :class:`HopcroftKarp`."""
    matcher = HopcroftKarp(
        graph.n, graph.n, [list(graph.neighbors(v)) for v in range(graph.n)]
    )
    matcher.solve()
    cover_left, cover_right = matcher.minimum_vertex_cover()
    included, excluded, remaining = [], [], []
    for v in range(graph.n):
        if cover_left[v]:
            (excluded if cover_right[v] else remaining).append(v)
        else:
            (remaining if cover_right[v] else included).append(v)
    return LPReductionResult(tuple(included), tuple(excluded), tuple(remaining))


def _relabelled(graph, perm):
    """``graph`` with vertex ``v`` renamed ``perm[v]``."""
    edges = [(perm[u], perm[v]) for u in range(graph.n) for v in graph.neighbors(u) if u < v]
    return Graph.from_edges(graph.n, edges)


def _scipy_matching(graph):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    xadj, adj = graph.flat_csr()
    matrix = csr_matrix(([1] * len(adj), adj, xadj), shape=(graph.n, graph.n))
    return maximum_bipartite_matching(matrix, perm_type="column").tolist()


@st.composite
def sparse_graphs_with_isolated(draw):
    """Up to 40 vertices, few edges, plus trailing isolated vertices."""
    n = draw(st.integers(min_value=0, max_value=40))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), unique=True, max_size=2 * n))
        if possible
        else []
    )
    isolated = draw(st.integers(min_value=0, max_value=5))
    return Graph.from_edges(n + isolated, edges)


class TestCsrSolverMatchesOracle:
    """The compiled LP classifies exactly as the :class:`HopcroftKarp`
    oracle: scipy may find another maximum matching, but König's reachable
    set (and so every tuple) is the same for all of them."""

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
        assert lp_reduction(graph) == oracle_lp_reduction(graph)

    @settings(max_examples=200, deadline=None)
    @given(graph=sparse_graphs_with_isolated())
    def test_property_same_classification(self, graph):
        assert lp_reduction(graph) == oracle_lp_reduction(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_relabelling_does_not_change_classification(self, seed):
        graph = gnm_random_graph(300, 500, seed=5)
        perm = list(range(graph.n))
        random.Random(seed).shuffle(perm)
        relabelled = _relabelled(graph, perm)
        # The relabelled run matches differently, mapped back ...
        matching = _scipy_matching(graph)
        moved = _scipy_matching(relabelled)
        inverse = {new: old for old, new in enumerate(perm)}
        moved_back = [-1] * graph.n
        for new_left, new_right in enumerate(moved):
            if new_right >= 0:
                moved_back[inverse[new_left]] = inverse[new_right]
        assert moved_back != matching
        # ... yet classifies every vertex the same way.
        base = lp_reduction(graph)
        result = lp_reduction(relabelled)
        for original, mapped in zip(
            (base.included, base.excluded, base.remaining),
            (result.included, result.excluded, result.remaining),
        ):
            assert sorted(inverse[v] for v in mapped) == list(original)


def test_near_linear_unchanged_under_oracle_lp():
    # The whole NearLinear pipeline, with the LP swapped for the oracle:
    # identical decision logs, kernels, sets and bounds on the corpus.
    for graph in CORPUS:
        kernel, ids, log = near_linear_reduce(graph)
        o_kernel, o_ids, o_log = near_linear_reduce(graph, lp=oracle_lp_reduction)
        assert log.entries == o_log.entries, graph.name
        assert (kernel, ids) == (o_kernel, o_ids), graph.name
        result = near_linear(graph)
        oracle = near_linear(graph, lp=oracle_lp_reduction)
        assert result.independent_set == oracle.independent_set, graph.name
        assert result.upper_bound == oracle.upper_bound, graph.name
        assert result.stats == oracle.stats, graph.name
