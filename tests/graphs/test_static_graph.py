"""Unit tests for the adjacency-array Graph type."""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from repro.errors import VertexError
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    power_law_graph,
)


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert g.neighbors(1) == (0, 2)

    def test_from_edges_drops_duplicates_and_loops(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 0), (1, 2)])
        assert g.m == 2

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.n == 5
        assert g.m == 0
        assert g.degrees() == [0] * 5

    def test_zero_vertex_graph(self):
        g = Graph.empty(0)
        assert g.n == 0
        assert g.m == 0
        assert g.max_degree() == 0
        assert g.average_degree() == 0.0

    def test_renamed_preserves_structure(self):
        g = cycle_graph(5)
        h = g.renamed("other")
        assert h.name == "other"
        assert h == g  # equality is structural


class TestAccessors:
    def test_degrees_match_neighbor_lengths(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert g.degree(0) == 3
        assert g.degree(4) == 1
        assert g.degrees() == [len(g.neighbors(v)) for v in range(5)]

    def test_max_and_average_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree() == 3
        assert g.average_degree() == pytest.approx(1.5)

    def test_has_edge_both_directions(self):
        g = Graph.from_edges(3, [(0, 2)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_has_edge_searches_smaller_side(self):
        g = Graph.from_edges(6, [(0, v) for v in range(1, 6)] + [(1, 2)])
        # degree(0)=5, degree(5)=1: lookup must work regardless of order.
        assert g.has_edge(0, 5)
        assert g.has_edge(5, 0)
        assert not g.has_edge(5, 1)

    def test_edges_yields_each_edge_once(self):
        g = cycle_graph(6)
        edges = list(g.edges())
        assert len(edges) == 6
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 6

    def test_vertex_out_of_range_raises(self):
        g = path_graph(3)
        with pytest.raises(VertexError):
            g.neighbors(3)
        with pytest.raises(VertexError):
            g.degree(-1)


class TestDerivedGraphs:
    def test_subgraph_compacts_ids(self):
        g = cycle_graph(6)
        sub, old_ids = g.subgraph([0, 1, 2, 4])
        assert sub.n == 4
        assert old_ids == [0, 1, 2, 4]
        # Edges (0,1), (1,2) survive; 4 is isolated in the subgraph.
        assert sub.m == 2
        assert sub.degree(3) == 0

    def test_subgraph_empty_selection(self):
        g = cycle_graph(4)
        sub, old_ids = g.subgraph([])
        assert sub.n == 0
        assert old_ids == []

    def test_complement_of_complete_graph_is_empty(self):
        g = complete_graph(5)
        assert g.complement().m == 0

    def test_complement_involution(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
        assert g.complement().complement() == g

    def test_adjacency_lists_are_fresh_copies(self):
        g = path_graph(3)
        lists = g.adjacency_lists()
        lists[0].append(99)
        assert g.neighbors(0) == (1,)

    def test_adjacency_sets(self):
        g = path_graph(3)
        assert g.adjacency_sets() == [{1}, {0, 2}, {1}]


class TestDunder:
    def test_equality_ignores_name(self):
        a = cycle_graph(4, name="a")
        b = cycle_graph(4, name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert cycle_graph(4) != path_graph(4)

    def test_repr_contains_counts(self):
        g = cycle_graph(4, name="c4")
        assert "n=4" in repr(g)
        assert "m=4" in repr(g)


class TestStorage:
    """A graph is its two CSR buffers, once: ``8(n + 1)`` bytes of offsets
    and ``4 · 2m`` of targets, plus a few object headers."""

    OVERHEAD = 1024  # the Graph and two array headers, and the name

    @staticmethod
    def _retained(build):
        gc.collect()
        tracemalloc.start()
        try:
            graph = build()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return graph, retained

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gnm_random_graph(25000, 75000, seed=1),
            lambda: power_law_graph(50000, 2.2, average_degree=6.0, seed=1),
        ],
        ids=["gnm-25k", "chung-lu-50k"],
    )
    def test_graph_holds_one_copy(self, build):
        graph, retained = self._retained(build)
        assert retained <= 8 * (graph.n + 1) + 8 * graph.m + self.OVERHEAD
        # The whole-array build from an edge array sizes its buffers exactly.
        edges = np.array(list(graph.edges()), dtype=np.int64)
        rebuilt, retained = self._retained(lambda: Graph.from_edges(graph.n, edges))
        assert rebuilt == graph
        assert retained <= 8 * (graph.n + 1) + 8 * graph.m + self.OVERHEAD

    def test_slots_are_the_buffers_and_the_name(self):
        assert Graph.__slots__ == ("_offsets", "_targets", "name")

    def test_renamed_shares_the_buffers(self):
        graph = cycle_graph(6)
        twin = graph.renamed("twin")
        assert twin.name == "twin" and twin == graph and hash(twin) == hash(graph)
        assert all(a is b for a, b in zip(twin.flat_csr(), graph.flat_csr()))

    def test_any_integer_sequence_builds_the_same_buffers(self):
        graph = cycle_graph(6)
        offsets, targets = graph.flat_csr()
        for convert in (list, tuple, lambda a: np.array(a, dtype=np.int64)):
            assert Graph(convert(offsets), convert(targets)).flat_csr() == (offsets, targets)


class TestFromEdgeArray:
    """The whole-array build must match the GraphBuilder path entry for entry."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_builder_on_random_multigraphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        expected = Graph.from_edges(n, edges.tolist())
        graph = Graph.from_edges(n, edges)
        assert graph == expected
        offsets, targets = graph.flat_csr()
        assert (offsets, targets) == expected.flat_csr()
        assert (offsets.typecode, targets.typecode) == ("q", "i")

    @pytest.mark.parametrize("n", [0, 3])
    def test_no_edges(self, n):
        graph = Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64))
        assert graph == Graph.empty(n)
        assert graph.flat_csr() == Graph.empty(n).flat_csr()

    @pytest.mark.parametrize(
        "edges", [[(0, 1), (1, 3), (-1, 0)], [(0, 1), (2, 7)], [(5, 1)]]
    )
    def test_out_of_range_raises_like_builder(self, edges):
        with pytest.raises(VertexError) as expected:
            Graph.from_edges(3, edges)
        with pytest.raises(VertexError) as got:
            Graph.from_edges(3, np.array(edges, dtype=np.int32))
        assert str(got.value) == str(expected.value)

    def test_negative_vertex_count_raises(self):
        with pytest.raises(VertexError):
            Graph.from_edges(-1, np.zeros((0, 2), dtype=np.int64))


class TestNumpySubgraph:
    """A subgraph of a graph past the numpy cutoff (n ≥ 2048) holds the
    same buffers as the builder's graph of the induced edges."""

    def _check(self, graph, keep):
        sub, old_ids = graph.subgraph(keep)
        assert old_ids == sorted(set(keep))
        offsets, targets = sub.flat_csr()
        assert (offsets.typecode, targets.typecode) == ("q", "i")
        for v in range(sub.n):
            assert all(type(w) is int for w in sub.neighbors(v))
        new_of = {old: new for new, old in enumerate(old_ids)}
        induced = [
            (new_of[u], new_of[v]) for u, v in graph.edges() if u in new_of and v in new_of
        ]
        assert sub == Graph.from_edges(len(old_ids), induced)
        return sub

    @pytest.mark.parametrize("seed", range(3))
    def test_random_keep(self, seed):
        graph = gnm_random_graph(3000, 9000, seed=seed)
        keep = random.Random(seed).sample(range(graph.n), 2000)
        assert self._check(graph, keep).m > 0

    def test_empty_keep(self):
        sub = self._check(cycle_graph(3000), [])
        assert sub.n == 0

    def test_keep_without_edges(self):
        sub = self._check(cycle_graph(3000), range(0, 3000, 2))
        assert sub.n == 1500 and sub.m == 0

    @pytest.mark.parametrize("size", [1, 20, 200])
    def test_small_keep_of_a_large_graph(self, size):
        # A repair region: only the kept rows are gathered.
        graph = power_law_graph(8000, beta=2.1, average_degree=4.0, seed=1)
        rng = random.Random(size)
        for _ in range(5):
            self._check(graph, rng.sample(range(graph.n), size))
        hubs = sorted(range(graph.n), key=graph.degree)[-size:]
        assert self._check(graph, hubs).m > 0 or size == 1

    def test_keep_with_empty_rows_first(self):
        # Isolated kept vertices before and between the rows with edges.
        graph = Graph.from_edges(3000, [(5, 7), (7, 9), (5, 9), (2000, 2999)])
        sub = self._check(graph, [0, 1, 5, 6, 7, 9, 1000, 2000, 2999])
        assert sub.m == 4
