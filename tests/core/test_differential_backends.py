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

import pytest

import repro.core.flat_dominance as flat_dominance_mod

from repro.analysis import assert_valid_solution
from repro.core.bdone import bdone
from repro.core.bdtwo import bdtwo
from repro.core.dominance import TriangleWorkspace, one_pass_dominance
from repro.core.flat_dominance import flat_one_pass_dominance
from repro.core.linear_time import linear_time, linear_time_reduce
from repro.core.near_linear import near_linear, near_linear_reduce
from repro.core.workspace import ArrayWorkspace
from repro.exact import brute_force_mis
from repro.graphs.generators import (
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


def _dominance_graphs():
    """The corpus plus the degenerate shapes the leaf wave special-cases:
    no vertices, an isolated vertex, K₂ (both ends leaves), a star and a
    path (leaf partners of degree ≥ 2)."""
    tiny = [
        Graph([0], [], name="empty"),
        Graph([0, 0], [], name="singleton"),
        Graph([0, 1, 2], [1, 0], name="K2"),
        star_graph(6),
        path_graph(7),
    ]
    return tiny + CORPUS


def test_one_pass_dominance_sweeps_agree():
    # Phase 1 of NearLinear: the flat sweep (numpy preamble) must remove
    # the same vertices in the same order as the set-based oracle.
    for graph in _dominance_graphs():
        assert flat_one_pass_dominance(graph) == one_pass_dominance(graph), graph.name


def test_one_pass_dominance_sweeps_agree_without_numpy(monkeypatch):
    # The same check on the interpreted preamble taken when numpy is absent.
    monkeypatch.setattr(flat_dominance_mod, "_np", None)
    for graph in _dominance_graphs():
        assert flat_one_pass_dominance(graph) == one_pass_dominance(graph), graph.name


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
