"""Tests for the flat-buffer workspace (FlatWorkspace).

Mirrors the ArrayWorkspace suite — the two backends share a public surface —
and adds what is specific to the flat layout: the rewire position hint, the
incrementally maintained live counters (fuzzed against O(n) scans), and the
compacted kernel-id round trip.
"""

import random

import pytest

from repro.core import KERNEL_METHODS, bdone, bdtwo, linear_time, near_linear
from repro.core.workspace import ArrayWorkspace, FlatWorkspace
from repro.graphs import Graph, cycle_graph, path_graph, star_graph
from repro.graphs.generators import gnm_random_graph, power_law_graph, web_like_graph
from repro.localsearch import arw_lt
from repro.serve import SolverService


def _storage(graph):
    """What a writer into the graph's buffers would change."""
    offsets, targets = graph.flat_csr()
    return offsets.tobytes(), targets.tobytes(), hash(graph)


def _serve_round(graph):
    """Solve, add one edge, solve again (a repair); the snapshot the repair
    splices from must be as untouched as the registered graph."""
    service = SolverService()
    gid = service.register(graph)
    service.solve(gid)
    base, _ = service.dynamic_graph(gid).snapshot()
    before = _storage(base)
    neighbours = set(graph.neighbors(0))
    service.add_edge(gid, 0, next(w for w in range(1, graph.n) if w not in neighbours))
    assert service.solve(gid).source == "repair"
    assert _storage(base) == before


#: Every production path that reads a caller's graph, each run for effect.
PRODUCTION_PATHS = {
    "bdone": bdone,
    "linear_time": linear_time,
    "near_linear": near_linear,
    "bdtwo": bdtwo,
    "arw_lt": lambda graph: arw_lt(graph, max_iterations=5, rng=random.Random(0)),
    **{f"kernel-{name}": reduce for name, reduce in KERNEL_METHODS.items()},
    "subgraph": lambda graph: graph.subgraph(range(0, graph.n, 3)),
    "serve": _serve_round,
}

#: Past the numpy subgraph cutoff (2,048 vertices) and below it.
INPUTS = [
    gnm_random_graph(500, 1500, seed=1),
    power_law_graph(3000, beta=2.1, average_degree=4.0, seed=2),
    web_like_graph(400, attach=3, seed=3),
]


class TestInitialisation:
    def test_degree_zero_included_immediately(self):
        g = Graph.empty(3)
        ws = FlatWorkspace(g)
        outcome = ws.log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0, 1, 2}

    def test_initial_worklists(self):
        g = path_graph(4)  # degrees 1, 2, 2, 1
        ws = FlatWorkspace(g, track_degree_two=True)
        assert set(ws.v1) == {0, 3}
        assert set(ws.v2) == {1, 2}

    def test_degree_two_not_tracked_by_default(self):
        ws = FlatWorkspace(path_graph(4))
        assert ws.v2 == []

    def test_adjacency_is_a_private_copy(self):
        g = path_graph(3)
        ws1 = FlatWorkspace(g)
        ws2 = FlatWorkspace(g)
        ws1.remove_silently(1)
        ws1.rewire(0, 1, 2)
        assert list(ws2.adj) == list(g.flat_csr()[1])  # untouched

    @pytest.mark.parametrize("path", sorted(PRODUCTION_PATHS))
    def test_no_production_path_writes_into_its_input(self, path):
        # The buffers are the graph's only copy: a workspace that worked
        # in them instead of a copy would corrupt the graph and its hash.
        for graph in INPUTS:
            before = _storage(graph)
            PRODUCTION_PATHS[path](graph)
            assert _storage(graph) == before, graph.name


class TestDeletion:
    def test_delete_updates_degrees(self):
        g = star_graph(3)
        ws = FlatWorkspace(g)
        ws.delete_vertex(0, "exclude")
        assert ws.deg[1] == 0
        outcome = ws.log.replay(g, extend_maximal=False)
        assert outcome.vertices == {1, 2, 3}

    def test_delete_refiles_into_worklists(self):
        g = cycle_graph(5)
        ws = FlatWorkspace(g, track_degree_two=True)
        ws.delete_vertex(0, "exclude")
        popped = ws.pop_degree_one()
        assert popped in (1, 4)

    def test_pop_validates_staleness(self):
        g = path_graph(3)
        ws = FlatWorkspace(g)
        ws.delete_vertex(1, "exclude")  # 0 and 2 drop to degree 0
        assert ws.pop_degree_one() is None

    def test_live_neighbors_skip_dead(self):
        g = cycle_graph(4)
        ws = FlatWorkspace(g)
        ws.delete_vertex(1, "exclude")
        assert ws.live_neighbors(0) == [3]

    def test_live_counts(self):
        g = cycle_graph(4)
        ws = FlatWorkspace(g)
        assert ws.live_vertex_count == 4
        assert ws.live_edge_count() == 4
        ws.delete_vertex(0, "exclude")
        assert ws.live_vertex_count == 3
        assert ws.live_edge_count() == 2


class TestRewiring:
    def test_rewire_and_edge_check(self):
        g = path_graph(3)
        ws = FlatWorkspace(g)
        assert not ws.has_live_edge(0, 2)
        ws.remove_silently(1)
        ws.rewire(0, 1, 2)
        ws.rewire(2, 1, 0)
        assert ws.has_live_edge(0, 2)

    def test_rewire_missing_entry_raises(self):
        g = path_graph(3)
        ws = FlatWorkspace(g)
        try:
            ws.rewire(0, 2, 1)  # 2 is not adjacent to 0
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_hint_survives_repeated_rewires(self):
        # Lemma 4.1 retargets the same anchor slot repeatedly; the hint must
        # keep resolving to the freshly written entry.
        g = path_graph(5)  # 0-1-2-3-4
        ws = FlatWorkspace(g)
        ws.rewire(0, 1, 2)
        ws.rewire(0, 2, 3)
        ws.rewire(0, 3, 4)
        assert 4 in ws.adj[ws.xadj[0] : ws.xadj[1]]

    def test_peel_pops_max_degree(self):
        g = star_graph(4)
        ws = FlatWorkspace(g)
        assert ws.pop_max_degree() == 0


class TestLiveCounterFuzz:
    def _scan_counts(self, ws):
        nlive = sum(ws.alive)
        live_deg = sum(d for d, a in zip(ws.deg, ws.alive) if a)
        return nlive, live_deg // 2

    def test_counters_match_scan_under_random_mutation(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = gnm_random_graph(60, 150, seed=seed)
            for workspace_cls in (FlatWorkspace, ArrayWorkspace):
                ws = workspace_cls(g, track_degree_two=True)
                for _ in range(40):
                    live = [v for v in range(g.n) if ws.alive[v]]
                    if not live:
                        break
                    v = rng.choice(live)
                    op = rng.randrange(3)
                    if op == 0:
                        ws.delete_vertex(v, rng.choice(["exclude", "peel"]))
                    elif op == 1:
                        ws.remove_silently(v)
                        for w in ws.live_neighbors(v):
                            ws.decrement_degree(w)
                    else:
                        if ws.deg[v] == 0:
                            ws.include(v)
                    nlive, nedges = self._scan_counts(ws)
                    assert ws.live_vertex_count == nlive, (workspace_cls, seed)
                    assert ws.live_edge_count() == nedges, (workspace_cls, seed)


class TestKernelExport:
    def test_export_compacts_ids(self):
        g = cycle_graph(5)
        ws = FlatWorkspace(g)
        ws.delete_vertex(0, "peel")
        kernel, old_ids = ws.export_kernel()
        assert kernel.n == 4
        assert old_ids == [1, 2, 3, 4]
        assert kernel.m == 3

    def test_export_empty(self):
        g = Graph.empty(2)
        ws = FlatWorkspace(g)
        kernel, old_ids = ws.export_kernel()
        assert kernel.n == 0
        assert old_ids == []

    def test_kernel_id_round_trip_majority_dead(self):
        # Kill >50% of the vertices, then check every kernel edge maps back
        # to a live original edge and vice versa — both backends, both ways.
        g = gnm_random_graph(40, 140, seed=11)
        rng = random.Random(11)
        doomed = rng.sample(range(g.n), 24)  # 60% dead
        for workspace_cls in (FlatWorkspace, ArrayWorkspace):
            ws = workspace_cls(g)
            for v in doomed:
                if ws.alive[v]:
                    ws.delete_vertex(v, "peel")
            kernel, old_ids = ws.export_kernel()
            assert kernel.n == sum(ws.alive)
            assert sorted(old_ids) == [v for v in range(g.n) if ws.alive[v]]
            kernel_edges = {
                (old_ids[u], old_ids[w])
                for u in range(kernel.n)
                for w in kernel.neighbors(u)
            }
            live_edges = {
                (u, w)
                for u in range(g.n)
                if ws.alive[u]
                for w in ws.live_neighbors(u)
            }
            assert kernel_edges == live_edges
