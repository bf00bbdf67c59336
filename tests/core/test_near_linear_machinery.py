"""Tests for NearLinear's triangle-count workspace and dominance machinery."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flat_dominance
from repro.core.dominance import TriangleWorkspace, one_pass_dominance
from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.near_linear import near_linear, near_linear_checkpoint
from repro.exact import brute_force_alpha
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    hypercube_graph,
    isolated_clique_gadget,
    mutual_dominance_gadget,
    paper_figure1_modified,
    petersen_graph,
    power_law_graph,
    random_regular_graph,
    star_graph,
    triangle_counts,
)

from .test_differential_backends import CORPUS


def _assert_triangle_counts_consistent(workspace):
    """The workspace's δ must match a recount on the live residual graph."""
    kernel, old_ids = workspace.export_kernel()
    recounted = triangle_counts(kernel)
    new_of = {old: new for new, old in enumerate(old_ids)}
    for u in range(workspace.n):
        if not workspace.alive[u]:
            continue
        for v, count in workspace.tri[u].items():
            a, b = new_of[u], new_of[v]
            key = (a, b) if a < b else (b, a)
            assert recounted[key] == count, (u, v)


class TestInitialTriangleCounts:
    def test_k4(self):
        ws = TriangleWorkspace(complete_graph(4))
        assert all(c == 2 for row in ws.tri for c in row.values())

    def test_triangle_free(self):
        ws = TriangleWorkspace(petersen_graph())
        assert all(c == 0 for row in ws.tri for c in row.values())

    def test_matches_reference_counter(self):
        # The scipy count against the independent per-edge counter, on one
        # G(30, 90) and ten seeds of the denser G(35, 140).
        graphs = [gnm_random_graph(30, 90, seed=5)]
        graphs += [gnm_random_graph(35, 140, seed=seed) for seed in range(10)]
        for g in graphs:
            ws = TriangleWorkspace(g)
            reference = triangle_counts(g)
            for (u, v), count in reference.items():
                assert ws.tri[u][v] == count, g.name
                assert ws.tri[v][u] == count, g.name
            assert sum(map(len, ws.tri)) == 2 * len(reference)


def _blocked_count_graphs():
    """This module's graphs, a star whose centre row alone exceeds a
    small block, and triangles with isolated vertices (empty rows) at the
    start, between the triangles and at the end."""
    return [
        complete_graph(4),
        petersen_graph(),
        gnm_random_graph(30, 90, seed=5),
        *(gnm_random_graph(35, 140, seed=seed) for seed in range(10)),
        *(gnm_random_graph(18, 50, seed=seed) for seed in range(15)),
        isolated_clique_gadget(4),
        isolated_clique_gadget(5, pendants_per_vertex=1),
        mutual_dominance_gadget(),
        paper_figure1_modified(),
        cycle_graph(11),
        star_graph(20),
        Graph.from_edges(
            12, [(1, 2), (1, 3), (2, 3), (6, 7), (6, 8), (7, 8), (8, 9)]
        ),
    ]


class TestBlockedTriangleCount:
    """The row-blocked count in :class:`FlatTriangleWorkspace` gives the
    oracle's counts and worklist whatever the block size."""

    @pytest.mark.parametrize("wedges_per_block", [1, 2, 7])
    def test_matches_oracle_and_reference(self, monkeypatch, wedges_per_block):
        monkeypatch.setattr(flat_dominance, "WEDGES_PER_BLOCK", wedges_per_block)
        for g in _blocked_count_graphs():
            flat = FlatTriangleWorkspace(g)
            oracle = TriangleWorkspace(g)
            reference = triangle_counts(g)
            for v in range(g.n):
                for i in range(flat.xadj[v], flat.xadj[v + 1]):
                    w = flat.adj[i]
                    assert flat.tri[i] == oracle.tri[v][w], g.name
                    assert flat.tri[i] == reference[(min(v, w), max(v, w))], g.name
            assert flat.dominated == oracle.dominated, g.name


def _wheel(spokes):
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    spokes_ = [(0, i) for i in range(1, spokes + 1)]
    return Graph.from_edges(spokes + 1, spokes_ + rim, name=f"wheel({spokes})")


def _star_joined_to_clique(leaves, size):
    """A star's centre 0 adjacent to every vertex of a K_size: the hub
    ranks last, so every clique triangle through it is found from the
    clique side."""
    clique = range(leaves + 1, leaves + 1 + size)
    edges = [(0, v) for v in range(1, leaves + 1)] + [(0, v) for v in clique]
    edges += [(a, b) for a in clique for b in clique if a < b]
    return Graph.from_edges(leaves + 1 + size, edges, name=f"star({leaves})+K{size}")


#: Graphs for the degree-ordered count: cliques, a wheel, a hub, degree
#: ties everywhere, isolated vertices, no edges, random and power-law.
COUNT_GRAPHS = [
    *(complete_graph(n) for n in (1, 2, 3, 7)),
    _wheel(9),
    _star_joined_to_clique(12, 6),
    random_regular_graph(30, 4, seed=2),
    hypercube_graph(4),
    Graph.from_edges(
        10, [(2, 3), (3, 4), (2, 4), (4, 5), (7, 8)], name="triangle+isolated"
    ),
    Graph.empty(6, name="edgeless(6)"),
    Graph.empty(0, name="empty"),
    *(gnm_random_graph(60, 300, seed=seed) for seed in range(4)),
    *(power_law_graph(400, 2.1, average_degree=8.0, seed=seed) for seed in range(3)),
]


def _forward_wedges(graph):
    """Wedges the count makes: pairs of higher-(degree, id) neighbours."""
    deg = graph.degrees()
    wedges = 0
    for v in range(graph.n):
        ahead = sum(1 for w in graph.neighbors(v) if (deg[w], w) > (deg[v], v))
        wedges += ahead * (ahead - 1) // 2
    return wedges


class TestDegreeOrderedCount:
    """The degree-ordered wedge count against the oracle's scipy count and
    the reference counter: δ per slot, ``_tsum``, the dominance seed and
    the worklists filed with it."""

    @pytest.mark.parametrize("graph", COUNT_GRAPHS, ids=lambda g: f"{g.name}-m{g.m}")
    def test_matches_reference_and_oracle(self, graph):
        flat = FlatTriangleWorkspace(graph)
        oracle = TriangleWorkspace(graph)
        reference = triangle_counts(graph)
        for v in range(graph.n):
            row = range(flat.xadj[v], flat.xadj[v + 1])
            counts = [flat.tri[i] for i in row]
            assert counts == [oracle.tri[v][flat.adj[i]] for i in row]
            assert counts == [
                reference[(min(v, flat.adj[i]), max(v, flat.adj[i]))] for i in row
            ]
            assert flat._tsum[v] == sum(counts)
        assert flat.dominated == oracle.dominated
        assert flat.v1 == oracle.v1
        assert flat.v2 == oracle.v2
        assert flat.log.entries == oracle.log.entries
        assert bytes(flat.alive) == bytes(oracle.alive)
        assert flat.live_vertex_count == oracle.live_vertex_count

    @pytest.mark.parametrize("wedges_per_block", [1, 2, 7, 1 << 16])
    def test_chunks_honour_the_cap(self, monkeypatch, wedges_per_block):
        # Every chunk's probes reach _edge_hits in one call: together they
        # are the forward wedges, and no call holds more than the cap.
        sizes = []
        edge_hits = flat_dominance._edge_hits

        def spy(keyed, edges):
            sizes.append(len(keyed) - edges)
            return edge_hits(keyed, edges)

        monkeypatch.setattr(flat_dominance, "WEDGES_PER_BLOCK", wedges_per_block)
        monkeypatch.setattr(flat_dominance, "_edge_hits", spy)
        for graph in COUNT_GRAPHS:
            sizes.clear()
            FlatTriangleWorkspace(graph)
            wedges = _forward_wedges(graph)
            assert sum(sizes) == wedges, graph.name
            assert max(sizes, default=0) <= wedges_per_block, graph.name
            assert len(sizes) == -(-wedges // wedges_per_block), graph.name


class TestMaintenanceUnderDeletion:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_deletions_preserve_counts(self, seed):
        import random

        rng = random.Random(seed)
        g = gnm_random_graph(18, 50, seed=seed)
        ws = TriangleWorkspace(g)
        victims = rng.sample(range(g.n), 6)
        for v in victims:
            if ws.alive[v]:
                ws.delete_vertex(v, "exclude")
        _assert_triangle_counts_consistent(ws)

    def test_dominance_detection_via_counts(self):
        g = isolated_clique_gadget(4)
        ws = TriangleWorkspace(g)
        # Vertex 0 dominates its clique neighbours: they must be on the
        # candidate list and verified on pop.
        dominated = set()
        while True:
            u = ws.pop_dominated()
            if u is None:
                break
            dominated.add(u)
            ws.delete_vertex(u, "exclude")
        assert dominated  # at least one clique member removed

    def test_mutual_dominance_recheck(self):
        # 0 and 1 dominate each other; once one is removed the other no
        # longer verifies — the re-check of Algorithm 5 Line 8.
        g = mutual_dominance_gadget()
        ws = TriangleWorkspace(g)
        assert ws.is_dominated(0)
        assert ws.is_dominated(1)
        ws.delete_vertex(0, "exclude")
        assert not ws.is_dominated(1)


class TestOnePassDominance:
    def test_clique_gadget_collapses(self):
        g = isolated_clique_gadget(5, pendants_per_vertex=1)
        removed = one_pass_dominance(g)
        assert len(removed) >= 3

    def test_triangle_free_untouched_except_pendants(self):
        g = petersen_graph()
        assert one_pass_dominance(g) == []

    def test_preserves_alpha(self):
        for seed in range(20):
            g = gnm_random_graph(14, 30, seed=seed)
            removed = one_pass_dominance(g)
            survivors = sorted(set(range(g.n)) - set(removed))
            sub, _ = g.subgraph(survivors)
            assert brute_force_alpha(sub) == brute_force_alpha(g)


class TestNearLinearPhases:
    def test_preprocess_toggle(self):
        g = paper_figure1_modified()
        with_prep = near_linear(g, preprocess=True)
        without_prep = near_linear(g, preprocess=False)
        alpha = brute_force_alpha(g)
        assert with_prep.size == alpha
        assert without_prep.size == alpha
        # The main loop's incremental dominance must certify on its own.
        assert without_prep.is_exact

    def test_cycle_paths_inside_triangle_workspace(self):
        # Degree-two cycles exercise the path driver on TriangleWorkspace.
        result = near_linear(cycle_graph(11), preprocess=False)
        assert result.is_exact
        assert result.size == 5

    def test_even_no_edge_rewiring_with_triangles(self):
        # Two anchors sharing a common neighbour: the rewired (v, w) edge
        # must pick up δ = 1 and stay consistent.
        edges = [
            (0, 1), (1, 2),          # the degree-two path (1, 2)... anchors 0, 3
            (2, 3),
            (0, 4), (3, 4),          # common neighbour 4 -> future triangle
            (0, 5), (0, 6), (3, 7), (3, 8),  # degree padding
        ]
        g = Graph.from_edges(9, edges)
        ws = TriangleWorkspace(g)
        from repro.core.degree_two_paths import apply_degree_two_path_reduction

        rule = apply_degree_two_path_reduction(ws, 1)
        assert rule == "path:even-no-edge"
        assert ws.tri[0][3] == 1  # triangle (0, 3, 4)
        _assert_triangle_counts_consistent(ws)


def _keep_masks(graph, seed):
    """Three masks over ``graph``: all, none and a seeded random half."""
    rng = np.random.default_rng(seed)
    return [
        np.ones(graph.n, dtype=bool),
        np.zeros(graph.n, dtype=bool),
        rng.random(graph.n) < 0.6,
    ]


@st.composite
def _masked_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(pairs, max_size=4 * n)) if n else []
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Graph.from_edges(n, edges), np.array(keep, dtype=bool)


class TestMaskedWorkspace:
    """A workspace over the input graph masked to ``keep`` equals the one
    built on the induced subgraph, under the monotone relabel: the same
    rows, δ, sums, worklists, live flags and initial includes, in input
    ids, and every removed vertex dead with an empty row."""

    def _compact(self, factory, graph, keep):
        sub, old_ids = graph.subgraph(np.flatnonzero(keep).tolist())
        return factory(graph, keep), factory(sub), old_ids

    def _assert_common(self, masked, compact, old_ids, keep):
        up = old_ids.__getitem__
        assert [masked.deg[v] for v in old_ids] == list(compact.deg)
        assert [masked.alive[v] for v in old_ids] == list(compact.alive)
        removed = np.flatnonzero(~keep).tolist()
        assert not any(masked.alive[v] or masked.deg[v] for v in removed)
        assert masked.dominated == list(map(up, compact.dominated))
        assert masked.v1 == list(map(up, compact.v1))
        assert masked.v2 == list(map(up, compact.v2))
        assert masked.log.entries == [
            (kind, tuple(map(up, data))) for kind, data in compact.log.entries
        ]
        assert masked.live_vertex_count == compact.live_vertex_count
        assert masked.live_edge_count() == compact.live_edge_count()

    def _check_flat(self, graph, keep):
        masked, compact, old_ids = self._compact(FlatTriangleWorkspace, graph, keep)
        self._assert_common(masked, compact, old_ids, keep)
        assert [masked._tsum[v] for v in old_ids] == compact._tsum
        up = old_ids.__getitem__
        for new, v in enumerate(old_ids):
            lo, hi = masked.xadj[v], masked._rend[v]
            c_lo, c_hi = compact.xadj[new], compact._rend[new]
            assert masked.adj[lo:hi] == list(map(up, compact.adj[c_lo:c_hi]))
            assert masked.tri[lo:hi] == compact.tri[c_lo:c_hi]
        for v in np.flatnonzero(~keep).tolist():
            assert masked.xadj[v] == masked._rend[v]

    def _check_oracle(self, graph, keep):
        masked, compact, old_ids = self._compact(TriangleWorkspace, graph, keep)
        self._assert_common(masked, compact, old_ids, keep)
        up = old_ids.__getitem__
        for new, v in enumerate(old_ids):
            assert list(masked.tri[v].items()) == [
                (up(w), count) for w, count in compact.tri[new].items()
            ]
        assert not any(masked.tri[v] for v in np.flatnonzero(~keep).tolist())

    @pytest.mark.parametrize("check", ["_check_flat", "_check_oracle"])
    def test_corpus(self, check):
        for seed, graph in enumerate(CORPUS + COUNT_GRAPHS):
            for keep in _keep_masks(graph, seed):
                getattr(self, check)(graph, keep)

    @settings(max_examples=80, deadline=None)
    @given(_masked_graphs())
    def test_random_masks(self, case):
        graph, keep = case
        self._check_flat(graph, keep)
        self._check_oracle(graph, keep)


#: ``near_linear_checkpoint`` on G(2000, 6000), seeds 0–2: the kernel's CSR,
#: its ``old_ids`` and the log at the stall (sha256 of their ``repr``),
#: taken when the main loop ran on a relabelled residual and remapped its log.
CHECKPOINT_PINS = {
    0: (
        "f45b36aa6c31eaf39439f7fd9ddd476f63ac1cdc0258064b66839320a5d0ee33",
        "ca070a06649f4636684c43f195b00dc7c12be6438fa959e41ba3fabc4d35403c",
        "dc34e384e58122778be5cc7be7edf1fbe8d78eb8c7a0a2842ec625d7792271e0",
    ),
    1: (
        "91cea3aa6f82e28ee998a10a6b27a8c77dacf1281082146c8074dbb0c5f8129f",
        "32d5759fad397bcd743607903127fac7e9780f2878f3ada58dc0d047f8f28e1e",
        "a4fd5bc8351980bef70ef6e58c57344db70665750464897960b41c86fc06122e",
    ),
    2: (
        "b9e5c2ba793cb488eea41aefbe2f3aa6d21b717694dd7eea6228f660f6fd275a",
        "a67efbed1d785e944376cf51c380fd2caace875c2b3dbf368bdc381d779220d7",
        "ac4b42437d249bc66a9051e20e754c8d58962d60da8bc8ba936ba628ece35203",
    ),
}


@pytest.mark.parametrize("seed", sorted(CHECKPOINT_PINS))
def test_checkpoint_kernel_is_pinned(seed):
    graph = gnm_random_graph(2000, 6000, seed=seed)
    checkpoint = near_linear_checkpoint(graph)

    def sha(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    assert (
        sha(tuple(tuple(buffer) for buffer in checkpoint.kernel.flat_csr())),
        sha(checkpoint.old_ids),
        sha(checkpoint.log.entries),
    ) == CHECKPOINT_PINS[seed]
    assert checkpoint.kernel.name == f"{graph.name}-kernel"
