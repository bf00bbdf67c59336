"""Differential tests: flat-buffer backends vs. their reference oracles.

The specialized drivers in :mod:`repro.core.bdone` and
:mod:`repro.core.linear_time` must make *byte-identical* decision sequences
to the generic loop over :class:`~repro.core.workspace.ArrayWorkspace`, and
NearLinear's :class:`~repro.core.flat_dominance.FlatTriangleWorkspace` must
do the same against the list-of-dicts
:class:`~repro.core.dominance.TriangleWorkspace` — same independent set,
same Theorem-6.1 bound, same rule stats, same raw decision-log entries.
These tests sweep >100 seeded generator graphs and assert exactly that;
BDTwo (whose dynamic fold workspace has no flat twin) is checked for
determinism, validity and honest exactness on the same inputs.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import assert_valid_solution
from repro.core.bdone import bdone
from repro.core.bdtwo import bdtwo
from repro.core.dominance import TriangleWorkspace, one_pass_dominance
from repro.core.flat_dominance import FlatTriangleWorkspace, flat_one_pass_dominance
from repro.core.linear_time import linear_time, linear_time_reduce
from repro.core.near_linear import near_linear, near_linear_reduce
from repro.core.result import STAT_PEEL
from repro.core.workspace import ArrayWorkspace, FlatWorkspace
from repro.exact import brute_force_mis
from repro.graphs.generators import (
    barabasi_albert_graph,
    collaboration_graph,
    gnm_random_graph,
    path_graph,
    power_law_graph,
    star_graph,
    web_like_graph,
)
from repro.graphs.static_graph import Graph


def _graph_corpus():
    """>100 small seeded graphs spanning the generator families."""
    graphs = []
    for seed in range(40):
        graphs.append(gnm_random_graph(30 + seed, 2 * (30 + seed), seed=seed))
    for seed in range(40):
        graphs.append(
            power_law_graph(40 + seed, beta=2.1 + (seed % 5) * 0.2,
                            average_degree=3.0 + (seed % 4), seed=seed)
        )
    for seed in range(25):
        graphs.append(web_like_graph(35 + seed, attach=2 + seed % 3, seed=seed))
    # The default-degree power-law graphs the serving layer's cold solve
    # is checked on.
    for seed in range(8):
        graphs.append(power_law_graph(80 + seed, beta=2.2, seed=seed))
    return graphs


CORPUS = _graph_corpus()


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 100


@pytest.mark.parametrize("algorithm", [bdone, linear_time])
def test_backends_agree_everywhere(algorithm):
    for graph in CORPUS:
        flat = algorithm(graph)
        oracle = algorithm(graph, workspace_factory=ArrayWorkspace)
        assert flat.independent_set == oracle.independent_set, graph.name
        assert flat.upper_bound == oracle.upper_bound, graph.name
        assert flat.peeled == oracle.peeled, graph.name
        assert flat.surviving_peels == oracle.surviving_peels, graph.name
        assert flat.is_exact == oracle.is_exact, graph.name
        assert flat.stats == oracle.stats, graph.name
        assert_valid_solution(graph, flat.independent_set)


def test_linear_time_decision_logs_identical():
    # Stronger than result equality: the raw chronological decision entries
    # must match tuple-for-tuple (the kernel and id maps then match too).
    for graph in CORPUS:
        k_flat, ids_flat, log_flat = linear_time_reduce(graph)
        k_arr, ids_arr, log_arr = linear_time_reduce(
            graph, workspace_factory=ArrayWorkspace
        )
        assert log_flat.entries == log_arr.entries
        assert log_flat.stats == log_arr.stats
        assert ids_flat == ids_arr
        assert k_flat.n == k_arr.n and k_flat.m == k_arr.m


TINY = [
    Graph([0], [], name="empty"),
    Graph([0, 0], [], name="singleton"),
    Graph([0, 1, 2], [1, 0], name="K2"),
]


@pytest.mark.parametrize("algorithm", [bdone, linear_time])
def test_tiny_graph_answers(algorithm):
    # No vertices, one isolated vertex, and K₂ (both ends leaves): the
    # whole-array setup must file them exactly as the oracle does.
    expected_sizes = {"empty": 0, "singleton": 1, "K2": 1}
    for graph in TINY:
        flat = algorithm(graph)
        oracle = algorithm(graph, workspace_factory=ArrayWorkspace)
        assert len(flat.independent_set) == expected_sizes[graph.name]
        assert flat.independent_set == oracle.independent_set, graph.name
        assert flat.upper_bound == oracle.upper_bound, graph.name
        assert flat.is_exact and oracle.is_exact, graph.name
    assert algorithm(TINY[1]).independent_set == frozenset({0})


@pytest.mark.parametrize(
    "graph",
    TINY + [gnm_random_graph(120, 260, seed=4), web_like_graph(90, attach=2, seed=5)],
    ids=lambda graph: graph.name,
)
def test_flat_export_kernel_matches_oracle(graph):
    # The whole-array kernel export against the oracle's row-by-row one,
    # after the same exclusions (the kernel CSR buffers and id maps match).
    flat_ws = FlatWorkspace(graph, track_degree_two=True)
    oracle_ws = ArrayWorkspace(graph, track_degree_two=True)
    assert flat_ws.log.entries == oracle_ws.log.entries
    for v in (3, 7, 11):
        if v < graph.n and oracle_ws.alive[v]:
            flat_ws.delete_vertex(v, "exclude")
            oracle_ws.delete_vertex(v, "exclude")
    kernel, ids = flat_ws.export_kernel()
    oracle_kernel, oracle_ids = oracle_ws.export_kernel()
    assert list(ids) == list(oracle_ids)
    assert kernel == oracle_kernel  # Graph.__eq__: same CSR buffers


def test_near_linear_valid_and_deterministic():
    for graph in CORPUS[::5]:
        first = near_linear(graph)
        second = near_linear(graph)
        assert_valid_solution(graph, first.independent_set)
        assert first.independent_set == second.independent_set
        assert first.stats == second.stats


def test_near_linear_backends_agree_everywhere():
    # The flat dominance workspace against the list-of-dicts oracle:
    # identical results under both the full pipeline and preprocess=False
    # (where the workspace does all the work).
    for graph in CORPUS:
        flat = near_linear(graph)
        oracle = near_linear(graph, workspace_factory=TriangleWorkspace)
        assert flat.independent_set == oracle.independent_set, graph.name
        assert flat.upper_bound == oracle.upper_bound, graph.name
        assert flat.stats == oracle.stats, graph.name
        assert_valid_solution(graph, flat.independent_set)
    for graph in CORPUS[::7]:
        flat = near_linear(graph, preprocess=False)
        oracle = near_linear(
            graph, preprocess=False, workspace_factory=TriangleWorkspace
        )
        assert flat.independent_set == oracle.independent_set, graph.name
        assert flat.stats == oracle.stats, graph.name


def test_near_linear_decision_logs_identical():
    # Stronger than result equality: tuple-for-tuple identical decision
    # entries, kernels and id maps from the reducing-only mode.
    for graph in CORPUS:
        k_flat, ids_flat, log_flat = near_linear_reduce(graph)
        k_tri, ids_tri, log_tri = near_linear_reduce(
            graph, workspace_factory=TriangleWorkspace
        )
        assert log_flat.entries == log_tri.entries, graph.name
        assert log_flat.stats == log_tri.stats, graph.name
        assert ids_flat == ids_tri, graph.name
        assert k_flat == k_tri, graph.name


#: Peel-heavy, triangle-sparse graphs well past the corpus's ≤80 vertices:
#: most deletions hit neighbour rows the triangle-sum test skips, and most
#: degree-two pops are length-one paths.
SPARSE_LARGE = [gnm_random_graph(2000, 6000, seed=seed) for seed in (1, 2, 3)]


def _recording(factory, seen):
    """``factory`` wrapped to keep each workspace it builds in ``seen``."""

    def build(graph, *args, **kwargs):
        workspace = factory(graph, *args, **kwargs)
        seen.append(workspace)
        return workspace

    return build


@pytest.mark.parametrize("graph", SPARSE_LARGE, ids=lambda graph: graph.name)
def test_full_run_logs_identical_on_sparse_large_graphs(graph):
    # Whole runs, peels included, so the logs cover every deletion.
    for algorithm, flat, oracle in (
        (near_linear, FlatTriangleWorkspace, TriangleWorkspace),
        (linear_time, FlatWorkspace, ArrayWorkspace),
    ):
        seen = []
        flat_result = algorithm(graph, workspace_factory=_recording(flat, seen))
        oracle_result = algorithm(graph, workspace_factory=_recording(oracle, seen))
        flat_ws, oracle_ws = seen
        assert flat_ws.log.stats.get(STAT_PEEL, 0) > 0
        assert flat_ws.log.entries == oracle_ws.log.entries
        assert flat_result.independent_set == oracle_result.independent_set
        assert flat_result.upper_bound == oracle_result.upper_bound
        assert flat_result.stats == oracle_result.stats


def test_preprocess_free_power_law_log_matches_oracle():
    # The whole graph's count, not the residual's: a hub-heavy power-law
    # graph whose wedges fill more than one chunk at the default cap.
    graph = power_law_graph(4000, 2.1, average_degree=10.0, seed=3)
    seen = []
    flat = near_linear(
        graph, preprocess=False, workspace_factory=_recording(FlatTriangleWorkspace, seen)
    )
    oracle = near_linear(
        graph, preprocess=False, workspace_factory=_recording(TriangleWorkspace, seen)
    )
    flat_ws, oracle_ws = seen
    assert repr(list(flat_ws.log.entries)) == repr(list(oracle_ws.log.entries))
    assert flat_ws.log.stats == oracle_ws.log.stats
    assert flat.independent_set == oracle.independent_set
    assert flat.upper_bound == oracle.upper_bound


@pytest.mark.parametrize(
    "algorithm, factory, digest",
    [
        (
            linear_time,
            FlatWorkspace,
            "33b8d50984a027c7b9a88d2214c782558828ba6e17eac090d31ec56c5d9c389c",
        ),
        (
            near_linear,
            FlatTriangleWorkspace,
            "1c0a17930833984f43922e3fe30b83d6884fe12b61d9bacded0d1120f00a1c7f",
        ),
    ],
    ids=["linear_time", "near_linear"],
)
def test_sparse_large_run_is_pinned(algorithm, factory, digest):
    # Pinned from the implementation whose Lemma 4.1 driver built a path
    # discovery for every degree-two vertex and whose triangle workspace
    # rescanned every neighbour row on deletion.  The fused flat drivers
    # apply Lemma 4.1 on their own buffers and the oracles through the
    # shared path driver, so the differential tests catch a change to
    # either one alone; only the pin catches the same change to both.
    # NearLinear's pin was taken while its main loop ran on the phase 1–2
    # residual relabelled to 0..k−1; its workspace now logs the input's
    # ids, so the entries go through the survivors' (monotone) ranks first.
    seen = []
    keeps = []

    def build(graph, *args, **kwargs):
        keeps.extend(args[:1])
        return _recording(factory, seen)(graph, *args, **kwargs)

    result = algorithm(SPARSE_LARGE[0], workspace_factory=build)
    entries = list(seen[0].log.entries)
    if keeps:
        rank = {v: i for i, v in enumerate(keeps[0].nonzero()[0].tolist())}
        entries = [(kind, tuple(map(rank.__getitem__, data))) for kind, data in entries]
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest
    assert len(result.independent_set) == 784
    assert result.upper_bound == 1222


#: One named graph per certificate path of the flat sweep (the vertex ids
#: are chosen so that the sweep order is the one each comment describes).
SWEEP_GADGETS = [
    # A triangle of degree-two rows, which are scanned rather than planned:
    # 1 dominates 0, although 0 is nobody's latest neighbour (no watch).
    Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], name="degree-two-triangle"),
    # Static triangle dominator: v = 1 has N[v] = {0, 1, 2} ⊆ N[0], and its
    # witness z1(1) = 2 is adjacent to u = 0, so the probe flags row 0.
    Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)], name="triangle-dominator"
    ),
    # A leaf once z2 is removed: v = 2 has neighbours u = 1 = z1(2) and
    # s = 0 = z2(2).  The leaf wave removes s (it holds leaf 4) before u's
    # turn, so v becomes u's leaf; only the watch on s flags row 1.
    Graph.from_edges(
        9,
        [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (3, 7), (6, 8), (7, 8), (5, 7)],
        name="leaf-after-z2",
    ),
    # v = 3 of degree 3 dominates u = 2 = z1(3) once s = 1 = z2(3) is gone
    # (the leaf wave removes s for leaf 4): N(3) \ {2} = {0} ⊆ N(2).
    Graph.from_edges(
        11,
        [(0, 2), (0, 3), (0, 8), (0, 9), (1, 3), (1, 4), (1, 5), (2, 3), (2, 6),
         (6, 7), (5, 7), (8, 10), (9, 10)],
        name="v-dominates-z1-after-z2",
    ),
    # K₂ formed during the sweep: 0 and 1 each lose both other neighbours
    # (hubs 2-5, each holding three leaves) before their turns; 0 then
    # sees leaf 1 and is removed, and 1 is left isolated.
    Graph.from_edges(
        18,
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
        + [(hub, 6 + 3 * i + j) for i, hub in enumerate((2, 3, 4, 5)) for j in range(3)],
        name="k2-forms",
    ),
]


def _dominance_graphs():
    """The corpus, larger graphs of the families whose sweeps remove many
    vertices, and the degenerate shapes the leaf wave special-cases: no
    vertices, an isolated vertex, K₂ (both ends leaves), a star and a path
    (leaf partners of degree ≥ 2).  Clique unions (collaboration graphs)
    hold static triangle dominators.  A triangle on a hub of degree
    2¹⁶ + 2 checks the order at a degree no 16-bit key holds: the hub
    (id 2) must still go before the triangle's low-id, degree-two corners."""
    tiny = [
        Graph([0], [], name="empty"),
        Graph([0, 0], [], name="singleton"),
        Graph([0, 1, 2], [1, 0], name="K2"),
        star_graph(6),
        path_graph(7),
        Graph.from_edges(
            3 + (1 << 16),
            [(0, 1), (0, 2), (1, 2)] + [(2, leaf) for leaf in range(3, 3 + (1 << 16))],
            name="wide-hub",
        ),
    ]
    families = []
    for seed in range(3):
        families += [
            power_law_graph(600, beta=2.1 + 0.3 * seed, average_degree=4.0, seed=seed),
            web_like_graph(500, attach=2 + seed, seed=seed),
            barabasi_albert_graph(500, attach=1 + seed, seed=seed),
            collaboration_graph(400, papers=150 + 100 * seed, seed=seed),
        ]
    return tiny + families + CORPUS


def test_one_pass_dominance_sweeps_agree():
    # Phase 1 of NearLinear: the flat sweep (whole-array plan, then a loop
    # over the vertices it could not certify) must remove the same
    # vertices in the same order as the set-based oracle.
    for graph in _dominance_graphs():
        assert flat_one_pass_dominance(graph) == one_pass_dominance(graph), graph.name


@pytest.mark.parametrize("graph", SWEEP_GADGETS, ids=lambda graph: graph.name)
def test_sweep_gadgets_remove_their_vertex(graph):
    # Each gadget's certificate path must end in a removal the oracle makes.
    removed = one_pass_dominance(graph)
    assert removed
    assert flat_one_pass_dominance(graph) == removed


@st.composite
def _sweep_graphs(draw):
    """Up to 60 vertices: sparse random edges plus a few small cliques."""
    n = draw(st.integers(min_value=0, max_value=60))
    edges = set()
    if n >= 2:
        vertex = st.integers(min_value=0, max_value=n - 1)
        for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
            if a != b:
                edges.add((min(a, b), max(a, b)))
        for clique in draw(st.lists(st.sets(vertex, min_size=2, max_size=5), max_size=n // 5)):
            members = sorted(clique)
            edges.update((a, b) for i, a in enumerate(members) for b in members[i + 1 :])
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=_sweep_graphs())
def test_one_pass_dominance_sweeps_agree_on_random_graphs(graph):
    assert flat_one_pass_dominance(graph) == one_pass_dominance(graph)


def test_bdtwo_deterministic_and_valid_on_corpus():
    # BDTwo has a single (dynamic-set) workspace; cover its decision
    # behaviour on the same corpus: deterministic, valid, honest bounds.
    for graph in CORPUS[::3]:
        first = bdtwo(graph)
        second = bdtwo(graph)
        assert first.independent_set == second.independent_set, graph.name
        assert first.stats == second.stats, graph.name
        assert first.upper_bound == second.upper_bound, graph.name
        assert_valid_solution(graph, first.independent_set)
        assert len(first.independent_set) <= first.upper_bound


def test_bdtwo_exact_flags_honest_on_tiny_graphs():
    for seed in range(8):
        graph = gnm_random_graph(14, 24, seed=seed)
        alpha = len(brute_force_mis(graph))
        result = bdtwo(graph)
        assert len(result.independent_set) <= alpha
        if result.is_exact:
            assert len(result.independent_set) == alpha


def test_exact_flags_honest_on_tiny_graphs():
    # Where brute force is affordable, a certified-exact result must match
    # the true independence number — for every algorithm and both backends.
    for seed in range(8):
        graph = gnm_random_graph(14, 24, seed=seed)
        alpha = len(brute_force_mis(graph))
        for result in (
            bdone(graph),
            bdone(graph, workspace_factory=ArrayWorkspace),
            linear_time(graph),
            linear_time(graph, workspace_factory=ArrayWorkspace),
            near_linear(graph),
        ):
            assert len(result.independent_set) <= alpha
            if result.is_exact:
                assert len(result.independent_set) == alpha
