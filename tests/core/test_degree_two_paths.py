"""Tests for maximal degree-two path discovery and the Lemma 4.1 cases.

Each of the six cases is exercised on a crafted instance through the
ArrayWorkspace, the length-one shortcut on all four workspaces, and
LinearTime's end-to-end α-arithmetic is checked with brute force.
"""

import pytest

from repro.core.degree_two_paths import (
    RULE_ANCHOR_SHARED,
    RULE_CYCLE,
    RULE_EVEN_EDGE,
    RULE_EVEN_NO_EDGE,
    RULE_IRREDUCIBLE,
    RULE_ODD_EDGE,
    RULE_ODD_NO_EDGE,
    apply_degree_two_path_reduction,
    find_maximal_degree_two_path,
)
from repro.core.dominance import TriangleWorkspace
from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.linear_time import linear_time
from repro.core.trace import EXCLUDE
from repro.core.workspace import ArrayWorkspace, FlatWorkspace
from repro.exact import brute_force_alpha
from repro.graphs import Graph, cycle_graph, paper_figure5


def _workspace(graph):
    return ArrayWorkspace(graph, track_degree_two=True)


def _chain_with_anchors(length, anchor_degree_boost=2, connect_anchors=False):
    """Anchor A — path of `length` degree-2 vertices — anchor B.

    Anchors get pendant-pair boosts so their degree is ≥ 3.
    """
    n = length + 2
    edges = []
    a, b = 0, length + 1
    prev = a
    for i in range(1, length + 1):
        edges.append((prev, i))
        prev = i
    edges.append((prev, b))
    if connect_anchors:
        edges.append((a, b))
    extra = n
    all_edges = list(edges)
    for anchor in (a, b):
        for _ in range(anchor_degree_boost):
            all_edges.append((anchor, extra))
            all_edges.append((anchor, extra + 1))
            extra += 2
    g = Graph.from_edges(extra, all_edges)
    return g, a, b


class TestDiscovery:
    def test_finds_whole_path(self):
        g, a, b = _chain_with_anchors(3)
        ws = _workspace(g)
        discovery = find_maximal_degree_two_path(ws, 2)
        assert not discovery.is_cycle
        assert discovery.path == [1, 2, 3]
        assert {discovery.v, discovery.w} == {a, b}

    def test_single_vertex_path(self):
        g, a, b = _chain_with_anchors(1)
        ws = _workspace(g)
        discovery = find_maximal_degree_two_path(ws, 1)
        assert discovery.path == [1]
        assert {discovery.v, discovery.w} == {a, b}

    def test_detects_cycle(self):
        g = cycle_graph(5)
        ws = _workspace(g)
        discovery = find_maximal_degree_two_path(ws, 0)
        assert discovery.is_cycle
        assert len(discovery.path) == 5


class TestCases:
    def test_cycle_rule(self):
        g = cycle_graph(6)
        ws = _workspace(g)
        assert apply_degree_two_path_reduction(ws, 0) == RULE_CYCLE
        assert not ws.alive[0]

    def test_anchor_shared_rule(self):
        # Path (1,2,3) whose both ends attach to vertex 0 of degree ≥ 3.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5)])
        ws = _workspace(g)
        assert apply_degree_two_path_reduction(ws, 2) == RULE_ANCHOR_SHARED
        assert not ws.alive[0]

    def test_odd_edge_rule(self):
        g, a, b = _chain_with_anchors(3, connect_anchors=True)
        ws = _workspace(g)
        assert apply_degree_two_path_reduction(ws, 2) == RULE_ODD_EDGE
        assert not ws.alive[a]
        assert not ws.alive[b]

    def test_odd_no_edge_rule_rewires(self):
        g, a, b = _chain_with_anchors(3)
        ws = _workspace(g)
        assert apply_degree_two_path_reduction(ws, 2) == RULE_ODD_NO_EDGE
        # v1 (vertex 1) stays, interior 2..3 gone, edge (1, b) now exists.
        assert ws.alive[1]
        assert not ws.alive[2]
        assert not ws.alive[3]
        assert ws.has_live_edge(1, b)
        assert ws.deg[1] == 2
        assert ws.deg[b] == 5  # unchanged

    def test_even_edge_rule(self):
        g, a, b = _chain_with_anchors(2, connect_anchors=True)
        ws = _workspace(g)
        degree_before = ws.deg[a]
        assert apply_degree_two_path_reduction(ws, 1) == RULE_EVEN_EDGE
        assert not ws.alive[1]
        assert not ws.alive[2]
        assert ws.deg[a] == degree_before - 1

    def test_even_no_edge_rule_rewires(self):
        g, a, b = _chain_with_anchors(2)
        ws = _workspace(g)
        degree_before = ws.deg[a]
        assert apply_degree_two_path_reduction(ws, 1) == RULE_EVEN_NO_EDGE
        assert ws.has_live_edge(a, b)
        assert ws.deg[a] == degree_before

    def test_irreducible_single_vertex(self):
        g, a, b = _chain_with_anchors(1)
        ws = _workspace(g)
        assert apply_degree_two_path_reduction(ws, 1) == RULE_IRREDUCIBLE
        assert ws.alive[1]


WORKSPACES = {
    "array": lambda g: ArrayWorkspace(g, track_degree_two=True),
    "flat": lambda g: FlatWorkspace(g, track_degree_two=True),
    "triangle": TriangleWorkspace,
    "flat-triangle": FlatTriangleWorkspace,
}


@pytest.mark.parametrize("make", WORKSPACES.values(), ids=WORKSPACES.keys())
class TestLengthOnePath:
    """``[u]`` between two degree-≥3 anchors: decided without a discovery."""

    def test_adjacent_anchors_are_both_excluded_in_order(self, make):
        g, a, b = _chain_with_anchors(1, connect_anchors=True)
        ws = make(g)
        before = list(ws.log.entries)
        assert apply_degree_two_path_reduction(ws, 1) == RULE_ODD_EDGE
        new = ws.log.entries[len(before) :]
        # Interleaved with them: the includes of the pendants they strand.
        excluded = [entry for entry in new if entry[0] == EXCLUDE]
        assert excluded == [(EXCLUDE, (a,)), (EXCLUDE, (b,))]
        assert not ws.alive[a] and not ws.alive[b]

    def test_non_adjacent_anchors_change_nothing(self, make):
        g, a, b = _chain_with_anchors(1)
        ws = make(g)
        before = list(ws.log.entries)
        degrees = list(ws.deg)
        assert apply_degree_two_path_reduction(ws, 1) == RULE_IRREDUCIBLE
        assert ws.log.entries == before
        assert list(ws.deg) == degrees
        assert all(ws.alive[v] for v in range(g.n))


class TestAlphaPreservation:
    """End-to-end: LinearTime must certify α on graphs solved rule-only."""

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("connect", [False, True])
    def test_chain_instances(self, length, connect):
        g, _, _ = _chain_with_anchors(length, connect_anchors=connect)
        result = linear_time(g)
        assert result.size == brute_force_alpha(g)

    def test_figure5_alternation(self):
        result = linear_time(paper_figure5())
        assert result.size == 4

    def test_cycles_exact(self):
        for n in range(3, 12):
            result = linear_time(cycle_graph(n))
            assert result.is_exact
            assert result.size == n // 2
