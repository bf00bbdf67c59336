"""DynamicGraph: mutation semantics, dirty seeds, snapshots, serialisation."""

import gc
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, VertexError
from repro.graphs import Graph
from repro.graphs.generators import cycle_graph, gnm_random_graph
from repro.graphs.named import petersen_graph
from repro.serve import MUTATION_KINDS, DynamicGraph, Mutation


def _path5() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


class TestConstruction:
    def test_wraps_static_graph(self):
        d = DynamicGraph(petersen_graph())
        assert d.n == 10
        assert d.m == 15
        assert d.n_allocated == 10
        assert all(d.is_live(v) for v in range(10))

    def test_empty(self):
        d = DynamicGraph()
        assert d.n == 0 and d.m == 0 and d.n_allocated == 0

    def test_neighbors_match_source(self):
        g = gnm_random_graph(50, 120, seed=9)
        d = DynamicGraph(g)
        for v in range(g.n):
            assert d.neighbors(v) == g.neighbors(v)
            assert d.degree(v) == g.degree(v)


class TestMutations:
    def test_add_edge_reports_endpoints_dirty(self):
        d = DynamicGraph(_path5())
        assert d.add_edge(0, 4) == {0, 4}
        assert d.has_edge(0, 4)
        assert d.m == 5

    def test_add_edge_idempotent(self):
        d = DynamicGraph(_path5())
        assert d.add_edge(0, 1) == set()
        assert d.m == 4

    def test_self_loop_rejected(self):
        d = DynamicGraph(_path5())
        with pytest.raises(ReproError):
            d.add_edge(2, 2)

    def test_remove_edge(self):
        d = DynamicGraph(_path5())
        assert d.remove_edge(1, 2) == {1, 2}
        assert not d.has_edge(1, 2)
        assert d.remove_edge(1, 2) == set()
        assert d.m == 3

    def test_remove_vertex_dirties_neighbours_and_retires_id(self):
        d = DynamicGraph(_path5())
        assert d.remove_vertex(2) == {1, 3}
        assert d.n == 4
        assert d.m == 2
        assert not d.is_live(2)
        with pytest.raises(ReproError):
            d.degree(2)
        with pytest.raises(ReproError):
            d.add_edge(2, 0)

    def test_ids_never_reused(self):
        d = DynamicGraph(_path5())
        d.remove_vertex(4)
        fresh = d.add_vertex()
        assert fresh == 5
        assert not d.is_live(4)
        assert d.is_live(5)
        assert d.degree(5) == 0

    def test_out_of_range_raises_vertex_error(self):
        d = DynamicGraph(_path5())
        with pytest.raises(VertexError):
            d.degree(99)

    def test_version_bumps_only_on_effective_change(self):
        d = DynamicGraph(_path5())
        v0 = d.version
        d.add_edge(0, 1)  # already present
        assert d.version == v0
        d.add_edge(0, 2)
        assert d.version == v0 + 1


class TestApply:
    def test_batch_union_of_dirty_seeds(self):
        d = DynamicGraph(_path5())
        dirty = d.apply(
            [Mutation("add_edge", 0, 2), Mutation("remove_edge", 3, 4)]
        )
        assert dirty == {0, 2, 3, 4}

    def test_add_vertex_contributes_new_id(self):
        d = DynamicGraph(_path5())
        dirty = d.apply([Mutation("add_vertex")])
        assert dirty == {5}

    def test_seeds_that_die_in_batch_are_dropped(self):
        d = DynamicGraph(_path5())
        dirty = d.apply(
            [Mutation("add_edge", 0, 2), Mutation("remove_vertex", 2)]
        )
        # 2 died mid-batch: its dirtiness transferred to its neighbours.
        assert 2 not in dirty
        assert {0, 1, 3} <= dirty


class TestMutationWireFormat:
    @pytest.mark.parametrize(
        "mutation",
        [
            Mutation("add_edge", 1, 2),
            Mutation("remove_edge", 0, 3),
            Mutation("add_vertex"),
            Mutation("remove_vertex", 4),
        ],
    )
    def test_round_trip(self, mutation):
        assert Mutation.from_list(mutation.as_list()) == mutation

    @pytest.mark.parametrize(
        "raw", [[], ["bogus", 1, 2], ["add_edge", 1], ["remove_vertex"]]
    )
    def test_malformed_rejected(self, raw):
        with pytest.raises(ReproError):
            Mutation.from_list(raw)


class TestSnapshot:
    def test_snapshot_compacts_dead_ids(self):
        d = DynamicGraph(_path5())
        d.remove_vertex(2)
        snapshot, old_ids = d.snapshot()
        assert snapshot.n == 4
        assert old_ids == [0, 1, 3, 4]
        # Edges (0,1) and (3,4) survive, in compact coordinates.
        assert snapshot.m == 2
        assert snapshot.neighbors(0) == (1,)
        assert snapshot.neighbors(2) == (3,)

    def test_snapshot_cached_until_mutation(self):
        d = DynamicGraph(_path5())
        first, _ = d.snapshot()
        again, _ = d.snapshot()
        assert first is again
        d.add_edge(0, 2)
        third, _ = d.snapshot()
        assert third is not first

    def test_fingerprint_tracks_structure_not_history(self):
        d1 = DynamicGraph(_path5())
        d2 = DynamicGraph(_path5())
        d1.add_edge(0, 2)
        d1.remove_edge(0, 2)
        # Same structure again, even though versions differ.
        assert d1.fingerprint() == d2.fingerprint()
        d1.add_edge(0, 2)
        assert d1.fingerprint() != d2.fingerprint()

    def test_isolated_vertex_changes_fingerprint(self):
        d1 = DynamicGraph(_path5())
        d2 = DynamicGraph(_path5())
        d2.add_vertex()
        assert d1.fingerprint() != d2.fingerprint()


class TestPayload:
    def test_round_trip_preserves_dynamic_id_space(self):
        d = DynamicGraph(gnm_random_graph(30, 60, seed=4))
        d.remove_vertex(7)
        d.add_vertex()
        d.add_edge(0, 30)
        restored = DynamicGraph.from_payload(d.to_payload())
        assert restored.n == d.n
        assert restored.m == d.m
        assert restored.n_allocated == d.n_allocated
        assert not restored.is_live(7)
        assert restored.fingerprint() == d.fingerprint()
        for v in d.live_vertices():
            assert restored.neighbors(v) == d.neighbors(v)

    def test_corrupt_payload_rejected(self):
        d = DynamicGraph(cycle_graph(4))
        payload = d.to_payload()
        payload["edges"].append([0, 99])
        with pytest.raises((ReproError, IndexError)):
            DynamicGraph.from_payload(payload)


class TestStorage:
    """A registered graph is the base CSR, not a copy of it."""

    def test_register_retains_only_liveness_flags(self):
        graph = gnm_random_graph(20000, 60000, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            dynamic = DynamicGraph(graph)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dynamic.n == graph.n
        assert retained <= graph.n + 1024

    def test_first_snapshot_is_the_registered_graph(self):
        graph = gnm_random_graph(40, 80, seed=5)
        dynamic = DynamicGraph(graph)
        snapshot, old_ids = dynamic.snapshot()
        assert snapshot is graph
        assert old_ids == list(range(40))

    def test_reverted_write_rebuilds_an_equal_graph(self):
        graph = gnm_random_graph(40, 80, seed=5)
        dynamic = DynamicGraph(graph)
        dynamic.add_edge(0, 39) if not dynamic.has_edge(0, 39) else dynamic.remove_edge(0, 39)
        changed, _ = dynamic.snapshot()
        assert changed != graph
        dynamic.add_edge(0, 39) if not dynamic.has_edge(0, 39) else dynamic.remove_edge(0, 39)
        assert dynamic.snapshot()[0] == graph


_OPS = st.lists(
    st.tuples(st.sampled_from(MUTATION_KINDS), st.integers(0, 60), st.integers(0, 60)),
    max_size=40,
)


class TestAgainstMirror:
    """After any mutation sequence the snapshot is the mirror's graph."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(0, 25),
        edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=60),
        ops=_OPS,
        snapshot_every=st.integers(1, 5),
    )
    def test_snapshot_equals_mirror_graph(self, n, edges, ops, snapshot_every):
        edges = [(u, v) for u, v in edges if u < n and v < n]
        dynamic = DynamicGraph(Graph.from_edges(n, edges))
        alive = set(range(n))
        mirror = {frozenset(edge) for edge in edges if edge[0] != edge[1]}
        for step, (kind, a, b) in enumerate(ops):
            live = sorted(alive)
            if kind == "add_vertex":
                alive.add(dynamic.add_vertex())
            elif not live:
                continue
            elif kind == "remove_vertex":
                v = live[a % len(live)]
                dynamic.remove_vertex(v)
                alive.discard(v)
                mirror = {edge for edge in mirror if v not in edge}
            else:
                u, v = live[a % len(live)], live[b % len(live)]
                if u == v:
                    continue
                if kind == "add_edge":
                    dynamic.add_edge(u, v)
                    mirror.add(frozenset((u, v)))
                else:
                    dynamic.remove_edge(u, v)
                    mirror.discard(frozenset((u, v)))
            if step % snapshot_every == 0:
                self._check(dynamic, alive, mirror)
        self._check(dynamic, alive, mirror)
        restored = DynamicGraph.from_payload(dynamic.to_payload())
        assert restored.snapshot() == dynamic.snapshot()
        assert restored.fingerprint() == dynamic.fingerprint()

    @staticmethod
    def _check(dynamic, alive, mirror):
        live = sorted(alive)
        compact = {old: new for new, old in enumerate(live)}
        expected = Graph.from_edges(
            len(live), [tuple(compact[v] for v in edge) for edge in mirror]
        )
        snapshot, old_ids = dynamic.snapshot()
        assert old_ids == live
        assert snapshot == expected
        assert (dynamic.n, dynamic.m) == (len(live), len(mirror))
        for v in live:
            row = tuple(sorted(w for edge in mirror if v in edge for w in edge - {v}))
            assert dynamic.neighbors(v) == row
            assert dynamic.degree(v) == len(row)
        for edge in list(mirror)[:10]:
            assert dynamic.has_edge(*edge)
